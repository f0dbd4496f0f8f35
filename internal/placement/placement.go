// Package placement decides where swapped clusters live. It replaces the
// single-winner device picker with one coherent placement layer shared by
// swap-out, failover and repair:
//
//   - every swap key is rendezvous-hashed (weighted HRW) onto the donor
//     devices currently reachable, weighted by each donor's free capacity
//     from store.Stats — a donor offering more room wins proportionally more
//     keys, and adding or removing one donor only remaps the keys that
//     scored it highest;
//   - a shipment goes to the top K donors in parallel and commits once a
//     write quorum W (majority of K by default) has accepted the payload;
//     a rejecting donor is replaced by the next-ranked candidate, which is
//     exactly the old failover walk, now a by-product of ranking;
//   - the same ranking re-ships under-replicated clusters during repair
//     (see Repairer), so there are not two competing donor-selection paths.
//
// The key is device-independent, so a payload lands unchanged on whichever
// donors accept it; replicas are byte-identical.
package placement

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"log/slog"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"objectswap/internal/obs"
	"objectswap/internal/store"
)

// Source enumerates the donor devices currently offered for placement,
// appending them to dst[:0]. Implemented by *store.Registry.
type Source interface {
	Available(dst []store.Device) []store.Device
}

var _ Source = (*store.Registry)(nil)

// Planner ranks donors for swap keys and ships payloads to K of them.
type Planner struct {
	src    Source
	logger *slog.Logger
	ships  *obs.CounterVec // quorum shipments by outcome
	puts   *obs.CounterVec // per-replica Put attempts by outcome
}

// Options configures a Planner. Both fields are optional.
type Options struct {
	// Obs records the planner's shipment and replica-put counters. A private
	// registry is used when nil.
	Obs *obs.Registry
	// Logger narrates quorum decisions. A nil logger logs nothing.
	Logger *slog.Logger
}

// New builds a planner over the given donor source.
func New(src Source, o Options) *Planner {
	if o.Obs == nil {
		o.Obs = obs.NewRegistry(nil)
	}
	return &Planner{
		src:    src,
		logger: obs.Logger(o.Logger),
		ships: o.Obs.CounterVec("objectswap_placement_ships_total",
			"Quorum shipments planned, by outcome.", "outcome"),
		puts: o.Obs.CounterVec("objectswap_placement_replica_puts_total",
			"Individual replica Put attempts, by outcome.", "outcome"),
	}
}

// Candidate is one ranked donor for a key.
type Candidate struct {
	Name  string
	Store store.Store
	// Free is the donor's advertised free capacity at ranking time.
	Free int64
	// Score is the donor's weighted rendezvous score for the key; candidates
	// are returned best-first.
	Score float64
	// Formats is the donor's wire-format advertisement from the same Stats
	// probe (empty = pre-negotiation donor, XML only).
	Formats []string
	// LeaseTTL is the lease the donor grants a stored key, from the same probe
	// (0 = it expires nothing).
	LeaseTTL time.Duration
}

// Accepts reports whether the candidate's advertisement covers format. The
// XML fallback is always accepted.
func (c Candidate) Accepts(format string) bool {
	if format == "" || format == store.FormatXML {
		return true
	}
	for _, f := range c.Formats {
		if f == format {
			return true
		}
	}
	return false
}

// Rank orders the reachable donors for key by weighted rendezvous hash,
// best-first. Donors named in exclude, donors whose Stats probe fails and
// donors with less than need free bytes are left out. Stats probes run
// outside any planner lock: a probe may be a slow network call, and a
// resilience decorator declaring the device unhealthy mid-probe re-enters
// the registry through its connectivity monitor.
func (p *Planner) Rank(ctx context.Context, key string, need int64, exclude []string) []Candidate {
	var sc Scratch
	return p.RankInto(ctx, &sc, key, need, exclude)
}

// Scratch is the storage a ranking is built in: the donor list read from the
// Source and the candidate list returned. A caller that ranks again and
// again keeps one per concurrent ranking and passes it to RankInto, which
// then allocates neither.
type Scratch struct {
	devices []store.Device
	ranked  []Candidate
}

// Reset drops what the last ranking refers to (stores, format lists) and
// keeps the storage.
func (sc *Scratch) Reset() {
	clear(sc.devices)
	clear(sc.ranked)
	sc.devices, sc.ranked = sc.devices[:0], sc.ranked[:0]
}

// RankInto is Rank building its ranking in sc. The result is sc's storage:
// valid until sc is ranked into again or Reset.
func (p *Planner) RankInto(ctx context.Context, sc *Scratch, key string, need int64, exclude []string) []Candidate {
	sc.devices = p.src.Available(sc.devices)
	cands := sc.ranked[:0]
	for _, d := range sc.devices {
		if slices.Contains(exclude, d.Name) {
			continue
		}
		st, err := d.Store.Stats(ctx)
		if err != nil {
			continue // unreachable right now
		}
		free := st.Free()
		if free < need {
			continue
		}
		cands = append(cands, Candidate{
			Name: d.Name, Store: d.Store, Free: free, Score: score(key, d.Name, free),
			Formats: st.Formats, LeaseTTL: st.LeaseTTL,
		})
	}
	slices.SortFunc(cands, func(a, b Candidate) int {
		if c := cmp.Compare(b.Score, a.Score); c != 0 {
			return c
		}
		return strings.Compare(a.Name, b.Name)
	})
	sc.ranked = cands
	return cands
}

// Order is the pure (equal-weight) HRW ranking of names for key. Tests and
// tools use it to predict where a key lands without probing stores — with
// donors of equal free capacity it matches Rank exactly.
func Order(key string, names []string) []string {
	out := append([]string(nil), names...)
	scores := make(map[string]float64, len(out))
	for _, n := range out {
		scores[n] = score(key, n, 1)
	}
	sort.Slice(out, func(i, j int) bool {
		if scores[out[i]] != scores[out[j]] {
			return scores[out[i]] > scores[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// score is the weighted rendezvous score of donor name for key:
// weight / -ln(h) with h the (key, name) hash normalized into (0, 1).
// Donors win keys in proportion to their weight, and a donor-set change
// only remaps keys whose top choice changed (the HRW minimal-disruption
// property).
func score(key, name string, weight int64) float64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write([]byte(name))
	// Normalize the top 53 bits (a float64 mantissa) into (0, 1).
	x := float64(h.Sum64()>>11) / float64(uint64(1)<<53)
	if x <= 0 {
		x = math.SmallestNonzeroFloat64
	} else if x >= 1 {
		x = 1 - 1e-16
	}
	w := float64(weight)
	if w <= 0 {
		w = 1
	}
	return -w / math.Log(x)
}

// defaultQuorum is the write quorum applied when a ShipRequest leaves Quorum
// zero: a majority of the requested replicas.
func defaultQuorum(replicas int) int {
	if replicas < 1 {
		replicas = 1
	}
	return replicas/2 + 1
}

// ShipRequest describes one replicated shipment.
type ShipRequest struct {
	Key string
	// Data is the payload, shared read-only by every replica's Put. Ship joins
	// all of them before it returns — on success and on failure — so the
	// caller may reuse the buffer immediately afterwards.
	Data []byte
	// Replicas is the target replica count K (minimum 1).
	Replicas int
	// Quorum is the write quorum W; 0 selects defaultQuorum(Replicas).
	Quorum int
	// Exclude names donors that must not be selected (live replicas during a
	// repair re-ship, or an operator blacklist).
	Exclude []string
	// Format names the payload's wire format. It rides the store envelope to
	// every replica — all replicas of one shipment use ONE format, so any
	// surviving replica can serve the fault-in. Empty means the XML fallback.
	Format string
	// NoExtend confines the shipment to the top K candidates: a rejecting
	// donor is not replaced by the next-ranked one (the pre-resilience
	// fail-fast behavior).
	NoExtend bool
	// OnFailure, when set, is invoked once per donor that rejects the
	// payload, on the goroutine that called Ship (never concurrently).
	OnFailure func(device string, err error)
}

// ShipReport describes where a shipment landed.
type ShipReport struct {
	// Replicas are the donors holding the payload, in rank order.
	Replicas []string
	// Attempted are the donors that rejected the payload, in rank order.
	Attempted []string
	// Quorum is the write quorum that applied.
	Quorum int
	// Requested is the replica count K the shipment aimed for; fewer landed
	// replicas than Requested (with quorum still met) is a sparse-donor
	// shortfall the caller surfaces on its swap event.
	Requested int
	// Orphans are the donors a quorum-failed shipment landed on and could not
	// be made to drop the payload again; the caller owns retrying those drops.
	Orphans []string
}

// cleanupTimeout bounds the drops that follow a failed quorum, all of them
// together: they run detached from the caller's context, which is often what
// ran out.
const cleanupTimeout = time.Second

// Ship stores the payload on the top K ranked donors in parallel and returns
// once every attempt settles. It succeeds when at least W donors accepted
// the payload; unless NoExtend is set, each rejection recruits the
// next-ranked candidate, so the shipment degrades through the whole donor
// population before giving up. On quorum failure the partial replicas are
// dropped so no orphan payloads linger (the report names any donor that
// would not), and the error wraps the last Put failure — or
// store.ErrNoDevice when no donor was even eligible.
func (p *Planner) Ship(ctx context.Context, req ShipRequest) (ShipReport, error) {
	cands := p.Rank(ctx, req.Key, int64(len(req.Data)), req.Exclude)
	return p.ShipRanked(ctx, req, cands)
}

// ShipRanked ships over an already-ranked candidate list. The format
// negotiation path ranks once (need 0, to see every donor's advertisement),
// picks a format, then ships on the filtered ranking — without a second round
// of Stats probes. Candidates without room for the payload or whose
// advertisement does not cover req.Format are skipped here, so a stale or
// over-broad ranking degrades to fewer replicas, not to misdirected Puts.
//
// The puts run in rank order, each batch at once: the K first eligible
// candidates, then one more per rejection. The calling goroutine makes the
// first put of a batch itself, and only a batch of more than one starts
// goroutines, which report back on a channel made then — so a K = 1
// shipment, failover included, starts none and allocates nothing but the
// replica set it reports. A replacement for a rejecting extra replica starts
// once the caller's own put has returned.
func (p *Planner) ShipRanked(ctx context.Context, req ShipRequest, ranked []Candidate) (ShipReport, error) {
	k := req.Replicas
	if k < 1 {
		k = 1
	}
	quorum := req.Quorum
	if quorum <= 0 {
		quorum = defaultQuorum(k)
	}
	if quorum > k {
		quorum = k
	}
	rep := ShipReport{Quorum: quorum, Requested: k}

	need := int64(len(req.Data))
	eligible := func(c Candidate) bool { return c.Free >= need && c.Accepts(req.Format) }
	nEligible := 0
	for _, c := range ranked {
		if eligible(c) {
			nEligible++
		}
	}
	if nEligible == 0 {
		p.ships.With("no_donor").Inc()
		return rep, fmt.Errorf("placement: ship %q (%d bytes, %d replicas): %w",
			req.Key, len(req.Data), k, store.ErrNoDevice)
	}

	// okIdx and failIdx index ranked; a shipment of up to four puts keeps
	// them on the stack.
	var okBuf, failBuf [4]int
	okIdx, failIdx := okBuf[:0], failBuf[:0]
	var (
		results  chan putResult // made by the first batch of more than one; a slot per possible put, so no sender blocks
		lastErr  error
		next     int // ranked index the next put starts from
		inflight int // puts on goroutines not yet received
		start    = k // puts the next batch starts
	)
puts:
	for {
		own := -1 // the batch's put this goroutine makes
		for ; start > 0; start-- {
			for next < len(ranked) && !eligible(ranked[next]) {
				next++
			}
			if next == len(ranked) {
				start = 0
				break
			}
			if own < 0 {
				own = next
			} else {
				if results == nil {
					results = make(chan putResult, nEligible)
				}
				inflight++
				go put(ctx, results, next, ranked[next].Store, req)
			}
			next++
		}
		var r putResult
		switch {
		case own >= 0:
			r = putResult{own, putOne(ctx, ranked[own].Store, req)}
		case inflight > 0:
			r = <-results
			inflight--
		default:
			break puts
		}
		if r.err == nil {
			p.puts.With("ok").Inc()
			okIdx = append(okIdx, r.idx)
			continue
		}
		p.puts.With("failed").Inc()
		failIdx = append(failIdx, r.idx)
		lastErr = r.err
		if req.OnFailure != nil {
			req.OnFailure(ranked[r.idx].Name, r.err)
		}
		if !req.NoExtend && len(okIdx)+inflight < k {
			start = 1
		}
	}
	slices.Sort(okIdx)
	slices.Sort(failIdx)
	rep.Replicas = make([]string, len(okIdx))
	for j, i := range okIdx {
		rep.Replicas[j] = ranked[i].Name
	}
	for _, i := range failIdx {
		rep.Attempted = append(rep.Attempted, ranked[i].Name)
	}

	if len(okIdx) >= quorum {
		p.ships.With("ok").Inc()
		if p.logger.Enabled(ctx, slog.LevelDebug) {
			p.logger.LogAttrs(ctx, slog.LevelDebug, "shipment placed", slog.String("key", req.Key),
				slog.String("replicas", strings.Join(rep.Replicas, ",")), slog.Int("quorum", quorum))
		}
		return rep, nil
	}
	// Quorum failed: a partial replica set gives a false durability promise
	// and leaks donor capacity — drop what landed. The shipment may have failed
	// because ctx ran out (one donor hanging to the deadline), so the drops
	// keep its values but not its cancellation.
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), cleanupTimeout)
	defer cancel()
	var dropped []string
	for _, i := range okIdx {
		if err := ranked[i].Store.Drop(dctx, req.Key); err != nil && !errors.Is(err, store.ErrNotFound) {
			rep.Orphans = append(rep.Orphans, ranked[i].Name)
			continue
		}
		dropped = append(dropped, ranked[i].Name)
	}
	p.ships.With("quorum_failed").Inc()
	landed := len(rep.Replicas)
	rep.Replicas = nil
	if lastErr == nil {
		// No Put failed — there simply were not enough eligible donors to
		// reach the quorum.
		lastErr = fmt.Errorf("%d donor(s) eligible: %w", nEligible, store.ErrNoDevice)
	}
	// The message says what became of each donor, and only what happened.
	fate := fmt.Sprintf("quorum %d", quorum)
	if len(dropped) > 0 {
		fate += ", dropped " + strings.Join(dropped, ",")
	}
	if len(rep.Orphans) > 0 {
		fate += ", still on " + strings.Join(rep.Orphans, ",")
	}
	if len(rep.Attempted) > 0 {
		fate += ", failed " + strings.Join(rep.Attempted, ",")
	}
	return rep, fmt.Errorf("placement: ship %q: %d/%d replicas landed (%s): %w",
		req.Key, landed, k, fate, lastErr)
}

// putResult is one put's outcome: the ranked index of its donor and its error.
type putResult struct {
	idx int
	err error
}

// put is putOne on a goroutine of its own, reporting to results.
func put(ctx context.Context, results chan<- putResult, idx int, st store.Store, req ShipRequest) {
	results <- putResult{idx, putOne(ctx, st, req)}
}

// putOne stores req's payload on st in req's format.
func putOne(ctx context.Context, st store.Store, req ShipRequest) error {
	return store.PutWith(ctx, st, req.Key, req.Data, store.PutOpts{Format: req.Format})
}
