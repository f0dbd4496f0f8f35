package placement

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"objectswap/internal/store"
)

var ctx = context.Background()

// reg builds a registry with the given unlimited memory donors.
func reg(t *testing.T, names ...string) *store.Registry {
	t.Helper()
	r := store.NewRegistry(store.SelectMostFree)
	for _, n := range names {
		if err := r.Add(n, store.NewMem(0)); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

func TestOrderDeterministicAndComplete(t *testing.T) {
	names := []string{"alpha", "beta", "gamma", "delta"}
	a := Order("some-key", names)
	b := Order("some-key", names)
	if len(a) != len(names) {
		t.Fatalf("order dropped names: %v", a)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("order not deterministic: %v vs %v", a, b)
		}
	}
	seen := map[string]bool{}
	for _, n := range a {
		seen[n] = true
	}
	for _, n := range names {
		if !seen[n] {
			t.Fatalf("order lost %q: %v", n, a)
		}
	}
}

func TestOrderSpreadsKeysAcrossDonors(t *testing.T) {
	// HRW should hand every donor a reasonable share of keys. With 3 equal
	// donors and 300 keys, expect each to win far more than zero.
	names := []string{"alpha", "beta", "gamma"}
	wins := map[string]int{}
	for i := 0; i < 300; i++ {
		wins[Order(fmt.Sprintf("key-%d", i), names)[0]]++
	}
	for _, n := range names {
		if wins[n] < 50 {
			t.Fatalf("donor %s won only %d/300 keys: %v", n, wins[n], wins)
		}
	}
}

func TestOrderMinimalDisruption(t *testing.T) {
	// Removing one donor must only remap the keys it was winning: every
	// other key keeps its top choice (the HRW property the planner relies on
	// for stable placement across donor churn).
	all := []string{"alpha", "beta", "gamma", "delta"}
	without := []string{"alpha", "beta", "gamma"}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("key-%d", i)
		before := Order(key, all)[0]
		after := Order(key, without)[0]
		if before != "delta" && before != after {
			t.Fatalf("key %s moved %s -> %s though its winner survived", key, before, after)
		}
	}
}

func TestRankWeightsByFreeCapacity(t *testing.T) {
	// A donor with vastly more free capacity should win nearly every key
	// against a nearly-full donor.
	r := store.NewRegistry(store.SelectMostFree)
	big := store.NewMem(1 << 30)
	small := store.NewMem(4 << 10)
	if err := r.Add("big", big); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("small", small); err != nil {
		t.Fatal(err)
	}
	p := New(r, Options{})
	bigWins := 0
	const keys = 200
	for i := 0; i < keys; i++ {
		cands := p.Rank(ctx, fmt.Sprintf("key-%d", i), 0, nil)
		if len(cands) != 2 {
			t.Fatalf("ranked %d candidates", len(cands))
		}
		if cands[0].Name == "big" {
			bigWins++
		}
	}
	if bigWins < keys*9/10 {
		t.Fatalf("big donor won only %d/%d keys despite 2^18x the capacity", bigWins, keys)
	}
}

func TestRankExcludesAndFiltersCapacity(t *testing.T) {
	r := store.NewRegistry(store.SelectMostFree)
	if err := r.Add("roomy", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("tiny", store.NewMem(16)); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("banned", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	p := New(r, Options{})

	cands := p.Rank(ctx, "k", 1024, []string{"banned"})
	if len(cands) != 1 || cands[0].Name != "roomy" {
		t.Fatalf("candidates = %+v", cands)
	}

	// An unreachable donor (Stats fails) is skipped too.
	dead := store.NewFlaky(store.NewMem(0), 1)
	dead.FailNext(store.OpStats, -1)
	if err := r.Add("dead", dead); err != nil {
		t.Fatal(err)
	}
	cands = p.Rank(ctx, "k", 1024, nil)
	for _, c := range cands {
		if c.Name == "dead" || c.Name == "tiny" {
			t.Fatalf("ranked ineligible donor %s", c.Name)
		}
	}
}

func TestShipReplicatesToTopK(t *testing.T) {
	r := reg(t, "d1", "d2", "d3", "d4")
	p := New(r, Options{})
	data := []byte("<swapcluster/>")

	rep, err := p.Ship(ctx, ShipRequest{Key: "k1", Data: data, Replicas: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Replicas) != 3 || rep.Quorum != 2 {
		t.Fatalf("report = %+v", rep)
	}
	want := Order("k1", []string{"d1", "d2", "d3", "d4"})[:3]
	for i, name := range want {
		if rep.Replicas[i] != name {
			t.Fatalf("replicas = %v, want top-3 %v", rep.Replicas, want)
		}
		st, err := r.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := st.Get(ctx, "k1"); err != nil || string(got) != string(data) {
			t.Fatalf("replica %s: %v %q", name, err, got)
		}
	}
}

func TestShipExtendsPastFailedDonor(t *testing.T) {
	// Fault the donor ranked first for the key: the shipment must recruit
	// the next-ranked candidate and still land K replicas.
	names := []string{"d1", "d2", "d3"}
	order := Order("k2", names)
	r := store.NewRegistry(store.SelectMostFree)
	flakies := map[string]*store.Flaky{}
	for _, n := range names {
		flakies[n] = store.NewFlaky(store.NewMem(0), 1)
		if err := r.Add(n, flakies[n]); err != nil {
			t.Fatal(err)
		}
	}
	flakies[order[0]].FailNext(store.OpPut, -1)
	p := New(r, Options{})

	var failed []string
	rep, err := p.Ship(ctx, ShipRequest{Key: "k2", Data: []byte("x"), Replicas: 2,
		OnFailure: func(device string, err error) { failed = append(failed, device) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Replicas) != 2 {
		t.Fatalf("replicas = %v", rep.Replicas)
	}
	for _, n := range rep.Replicas {
		if n == order[0] {
			t.Fatalf("failed donor %s in replica set %v", order[0], rep.Replicas)
		}
	}
	if len(failed) != 1 || failed[0] != order[0] {
		t.Fatalf("OnFailure calls = %v", failed)
	}
	if len(rep.Attempted) != 1 || rep.Attempted[0] != order[0] {
		t.Fatalf("attempted = %v", rep.Attempted)
	}
}

// TestShipQuorumFailureDropsPartials: K wants a quorum only one donor can
// give, so the shipment fails — and the copy that landed must be gone again,
// or named in the report, whatever made the other donors fail.
func TestShipQuorumFailureDropsPartials(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replicas int // K, and the number of donors attached
		deadline time.Duration
		// sabotage schedules the faults; donors are in rank order for the key.
		sabotage    func(ranked []*store.Flaky)
		wantOrphans []int // by rank
	}{
		{"two of three reject", 3, 0, func(d []*store.Flaky) {
			d[0].FailNext(store.OpPut, -1)
			d[1].FailNext(store.OpPut, -1)
		}, nil},
		// The shipment fails because its context ran out: the drop of the
		// landed copy must not die of the same deadline.
		{"one of two hangs to the deadline", 2, 50 * time.Millisecond, func(d []*store.Flaky) {
			d[1].HangOn(store.OpPut, 1)
		}, nil},
		{"landed donor refuses the drop", 3, 0, func(d []*store.Flaky) {
			d[0].FailNext(store.OpPut, -1)
			d[1].FailNext(store.OpPut, -1)
			d[2].FailNext(store.OpDrop, -1)
		}, []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			names := []string{"d1", "d2", "d3"}[:tc.replicas]
			order := Order("k3", names)
			r := store.NewRegistry(store.SelectMostFree)
			ranked := make([]*store.Flaky, len(order))
			for i, n := range order {
				ranked[i] = store.NewFlaky(store.NewMem(0), 1)
				if err := r.Add(n, ranked[i]); err != nil {
					t.Fatal(err)
				}
			}
			tc.sabotage(ranked)
			sctx := ctx
			if tc.deadline > 0 {
				var cancel context.CancelFunc
				sctx, cancel = context.WithTimeout(ctx, tc.deadline)
				defer cancel()
			}

			rep, err := New(r, Options{}).Ship(sctx, ShipRequest{Key: "k3", Data: []byte("x"), Replicas: tc.replicas})
			if err == nil {
				t.Fatalf("quorum-failed shipment succeeded: %+v", rep)
			}
			if len(rep.Replicas) != 0 {
				t.Fatalf("failed shipment reported replicas %v", rep.Replicas)
			}
			var wantOrphans []string
			for _, rank := range tc.wantOrphans {
				wantOrphans = append(wantOrphans, order[rank])
			}
			if !slices.Equal(rep.Orphans, wantOrphans) {
				t.Fatalf("orphans = %v, want %v (err: %v)", rep.Orphans, wantOrphans, err)
			}
			// Every copy is dropped or reported, and the error says which.
			for i, n := range order {
				keys, _ := ranked[i].Keys(ctx)
				if orphan := slices.Contains(wantOrphans, n); (len(keys) != 0) != orphan {
					t.Fatalf("donor %s holds %v, reported orphan = %v", n, keys, orphan)
				}
			}
			if claimsDrop := strings.Contains(err.Error(), "dropped"); claimsDrop != (len(wantOrphans) == 0) {
				t.Fatalf("error text does not match what happened: %v", err)
			}
		})
	}
}

func TestShipNoExtendConfinesToTopK(t *testing.T) {
	names := []string{"d1", "d2", "d3"}
	order := Order("k4", names)
	r := store.NewRegistry(store.SelectMostFree)
	flakies := map[string]*store.Flaky{}
	for _, n := range names {
		flakies[n] = store.NewFlaky(store.NewMem(0), 1)
		if err := r.Add(n, flakies[n]); err != nil {
			t.Fatal(err)
		}
	}
	flakies[order[0]].FailNext(store.OpPut, -1)
	p := New(r, Options{})

	_, err := p.Ship(ctx, ShipRequest{Key: "k4", Data: []byte("x"), Replicas: 1, NoExtend: true})
	if err == nil {
		t.Fatal("fail-fast shipment succeeded past a dead top donor")
	}
	if flakies[order[1]].Calls(store.OpPut) != 0 || flakies[order[2]].Calls(store.OpPut) != 0 {
		t.Fatal("NoExtend shipment recruited replacement donors")
	}
}

func TestShipTooFewDonorsForQuorum(t *testing.T) {
	// One live donor cannot satisfy K=2's majority quorum of 2: the shipment
	// must fail cleanly (no orphan copy, a well-formed ErrNoDevice cause)
	// even though no individual Put ever failed.
	r := reg(t, "lonely")
	p := New(r, Options{})
	rep, err := p.Ship(ctx, ShipRequest{Key: "k", Data: []byte("x"), Replicas: 2})
	if !errors.Is(err, store.ErrNoDevice) {
		t.Fatalf("err = %v", err)
	}
	if len(rep.Replicas) != 0 {
		t.Fatalf("failed shipment reported replicas %v", rep.Replicas)
	}
	st, err2 := r.Lookup("lonely")
	if err2 != nil {
		t.Fatal(err2)
	}
	if keys, _ := st.Keys(ctx); len(keys) != 0 {
		t.Fatalf("orphan payload left behind: %v", keys)
	}
}

func TestShipNoCandidates(t *testing.T) {
	r := store.NewRegistry(store.SelectMostFree)
	p := New(r, Options{})
	_, err := p.Ship(ctx, ShipRequest{Key: "k", Data: []byte("x"), Replicas: 2})
	if !errors.Is(err, store.ErrNoDevice) {
		t.Fatalf("err = %v", err)
	}
}

func TestShipClampsQuorumToReplicas(t *testing.T) {
	r := reg(t, "only")
	p := New(r, Options{})
	rep, err := p.Ship(ctx, ShipRequest{Key: "k", Data: []byte("x"), Replicas: 1, Quorum: 5})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Quorum != 1 || len(rep.Replicas) != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestDefaultQuorum(t *testing.T) {
	for k, want := range map[int]int{1: 1, 2: 2, 3: 2, 4: 3, 5: 3} {
		if got := defaultQuorum(k); got != want {
			t.Fatalf("defaultQuorum(%d) = %d, want %d", k, got, want)
		}
	}
}

// slowDonor is a donor whose Put dawdles before it reads the payload, and
// counts the Puts it is inside of.
type slowDonor struct {
	*store.Mem
	delay    time.Duration
	fail     bool
	inFlight *atomic.Int32
}

func (d slowDonor) PutEnvelope(ctx context.Context, key string, data []byte, opts store.PutOpts) error {
	d.inFlight.Add(1)
	defer d.inFlight.Add(-1)
	time.Sleep(d.delay)
	if d.fail {
		return fmt.Errorf("%w: %s", store.ErrUnavailable, key)
	}
	return d.Mem.PutEnvelope(ctx, key, data, opts)
}

// TestShipJoinsEveryPutBeforeReturning: Ship hands the same buffer to K
// concurrent Puts, and the caller reuses that buffer as soon as Ship returns
// (the swapping runtime encodes the next cluster into it). So no Put may
// still be running then — not the slow replica that was not needed for the
// quorum, not the one recruited after a failure, and not on a shipment that
// fails. Under -race a straggler reading the scribbled buffer is reported.
func TestShipJoinsEveryPutBeforeReturning(t *testing.T) {
	for _, tc := range []struct {
		name   string
		failed map[int]bool // by rank
		wantOK bool
	}{
		{"all land", nil, true},
		{"primary fails, next recruited", map[int]bool{0: true}, true},
		{"quorum fails", map[int]bool{0: true, 1: true, 2: true}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			names := []string{"d1", "d2", "d3", "d4"}
			var inFlight atomic.Int32
			r := store.NewRegistry(store.SelectMostFree)
			mems := map[string]*store.Mem{}
			for rank, n := range Order("k", names) {
				mems[n] = store.NewMem(0)
				// Later ranks are slower: the quorum is reached while they
				// are still writing.
				d := slowDonor{mems[n], time.Duration(rank) * 3 * time.Millisecond, tc.failed[rank], &inFlight}
				if err := r.Add(n, d); err != nil {
					t.Fatal(err)
				}
			}
			want := bytes.Repeat([]byte("<cluster/>"), 100)
			buf := bytes.Clone(want)
			rep, err := New(r, Options{}).Ship(ctx, ShipRequest{Key: "k", Data: buf, Replicas: 3})
			if n := inFlight.Load(); n != 0 {
				t.Fatalf("%d Put(s) still in flight after Ship returned", n)
			}
			for i := range buf {
				buf[i] = '!'
			}
			if (err == nil) != tc.wantOK {
				t.Fatalf("Ship: %v (report %+v), want success %v", err, rep, tc.wantOK)
			}
			for _, n := range rep.Replicas {
				if got, err := mems[n].Get(ctx, "k"); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("replica %s holds %.12q... (%v), want the shipped payload", n, got, err)
				}
			}
		})
	}
}

// TestAdvertisementsUnderConcurrentShipsAndFlips: shipments from several
// goroutines read, fill and drop the registry's kept advertisements while a
// donor's availability flips. Every shipment lands (one donor never flips),
// and once the flips stop the flipped donor is probed at most once more and
// then read from the registry, whatever the interleaving.
func TestAdvertisementsUnderConcurrentShipsAndFlips(t *testing.T) {
	r := store.NewRegistry(store.SelectMostFree)
	steady, flapping := store.NewFlaky(store.NewMem(0), 1), store.NewFlaky(store.NewMem(1<<30), 1)
	if err := r.Add("steady", steady); err != nil {
		t.Fatal(err)
	}
	if err := r.Add("flapping", flapping); err != nil {
		t.Fatal(err)
	}
	p := New(r, Options{})
	stop := make(chan struct{})
	flipped := make(chan struct{})
	go func() {
		defer close(flipped)
		for up := false; ; up = !up {
			select {
			case <-stop:
				r.SetAvailable("flapping", true)
				return
			default:
				r.SetAvailable("flapping", up)
			}
		}
	}()
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		go func() {
			var err error
			for i := 0; i < 200 && err == nil; i++ {
				_, err = p.Ship(ctx, ShipRequest{Key: fmt.Sprintf("g%d-k%d", g, i), Data: []byte("<c/>"), Replicas: 1})
			}
			errs <- err
		}()
	}
	for g := 0; g < 4; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	close(stop)
	<-flipped
	var sc Scratch
	for i := 0; i < 3; i++ {
		before := flapping.Calls(store.OpStats)
		if got := p.RankInto(ctx, &sc, "after", 0, nil); len(got) != 2 {
			t.Fatalf("ranking %d after the flips: %+v", i, got)
		}
		// The first ranking probes the donor unless a probe after the last
		// flip was kept; every later one reads what was kept.
		if n := flapping.Calls(store.OpStats) - before; n > 1 || i > 0 && n != 0 {
			t.Fatalf("ranking %d after the flips probed the flipped donor %d times", i, n)
		}
	}
}
