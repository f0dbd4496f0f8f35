package core

import (
	"context"
	"slices"
	"time"

	"objectswap/internal/heap"
	"objectswap/internal/placement"
	"objectswap/internal/wire"
)

// Wire-format negotiation. A swap-out no longer assumes the universal XML
// wrapper: the donors' Stats advertisements (collected by the same rendezvous
// ranking probe that weighs their free capacity) are matched against the
// runtime's preference order, and the whole shipment — all K replicas — uses
// the one chosen format, so any surviving replica can serve the fault-in.
// Donors that predate negotiation advertise nothing and are treated as
// XML-only; XML therefore remains the format of last resort that always
// succeeds wherever a pre-negotiation swap-out would have.

// shipPlan is the outcome of the negotiate phase: the wire format to encode
// in, the candidate donors to ship to, and — for a delta re-shipment — the
// dirty subset and removed set against the anchored base.
type shipPlan struct {
	format wire.FormatID
	// delta marks a dirty-only re-shipment against baseKey. changed selects
	// the members to encode; removed lists base members no longer in the
	// cluster. A delta can only land on donors already holding the base.
	delta   bool
	baseKey string
	changed map[heap.ObjID]bool
	removed []heap.ObjID
	// baseSlots is the base shipment's outbound slot table (ultimate targets
	// by slot). A delta's slot table must keep it as a prefix so slot
	// references inside unchanged base objects still resolve.
	baseSlots []heap.ObjID
	// ranked is the candidate list to ship over (for a pinned shipment, the
	// one donor it is pinned to).
	ranked []placement.Candidate
	// replicas is the target replica count for this shipment.
	replicas int
}

// leaseTTL is the shortest lease any of the donors that took the shipment
// grants a stored key, from the Stats probe that ranked them; 0 when none of
// them expires keys.
func (p *shipPlan) leaseTTL(replicas []string) time.Duration {
	var ttl time.Duration
	for _, c := range p.ranked {
		if c.LeaseTTL > 0 && (ttl == 0 || c.LeaseTTL < ttl) && slices.Contains(replicas, c.Name) {
			ttl = c.LeaseTTL
		}
	}
	return ttl
}

// negotiateDelta plans a dirty-only re-shipment against the retained copy. It
// declines (ok = false) whenever a full shipment is required or simply
// better: delta not among the runtime's formats, destination pinned, no
// usable base, more than half the cluster dirty, or no live base donor that
// accepts the delta format.
func (rt *Runtime) negotiateDelta(ctx context.Context, o swapOpts,
	base shipmentBase, dirty map[heap.ObjID]bool, memberIDs []heap.ObjID) (shipPlan, bool) {
	if !rt.deltaEnabled() || o.device != "" || !base.usable() || len(memberIDs) == 0 {
		return shipPlan{}, false
	}
	baseSet := make(map[heap.ObjID]bool, len(base.members))
	for _, m := range base.members {
		baseSet[m] = true
	}
	current := make(map[heap.ObjID]bool, len(memberIDs))
	changed := make(map[heap.ObjID]bool)
	for _, m := range memberIDs {
		current[m] = true
		// Members absent from the base are new since it was shipped; they
		// ride the delta regardless of the write-observer's dirty marks.
		if dirty[m] || !baseSet[m] {
			changed[m] = true
		}
	}
	var removed []heap.ObjID
	for _, m := range base.members {
		if !current[m] {
			removed = append(removed, m)
		}
	}
	// Too dirty: once half the cluster changed, a delta saves little wire
	// time and forfeits the chance to refresh the base.
	if len(changed)*2 >= len(memberIDs) {
		return shipPlan{}, false
	}
	// A delta decodes by fetching its base from the same donor, so the only
	// eligible donors are the live base replicas that advertise the format.
	var cands []placement.Candidate
	for i, d := range base.devices {
		s, err := rt.stores.Lookup(d)
		if err != nil {
			continue
		}
		st, err := s.Stats(ctx)
		if err != nil {
			continue
		}
		c := placement.Candidate{
			Name: d, Store: s, Free: st.Free(), Formats: st.Formats,
			// Preserve the base replica order (primary first).
			Score: float64(len(base.devices) - i),
		}
		if !c.Accepts(string(wire.FormatDelta)) {
			continue
		}
		cands = append(cands, c)
	}
	if len(cands) == 0 {
		return shipPlan{}, false
	}
	return shipPlan{
		format:    wire.FormatDelta,
		delta:     true,
		baseKey:   base.key,
		changed:   changed,
		removed:   removed,
		baseSlots: base.slots,
		ranked:    cands,
		replicas:  len(cands),
	}, true
}

// negotiateFull plans a self-contained shipment in the best format the donor
// neighborhood supports.
func (rt *Runtime) negotiateFull(ctx context.Context, o swapOpts, key string, k int) (shipPlan, error) {
	prefs := rt.shipFormats()
	if o.device != "" {
		// Pinned destination: probe just that donor's advertisement. A failed
		// probe negotiates down to XML — if the donor is truly gone the Put
		// will report it, exactly as before negotiation existed.
		format, pinned := string(wire.FormatXML), []placement.Candidate{{Name: o.device}}
		if s, err := rt.stores.Lookup(o.device); err == nil {
			if st, serr := s.Stats(ctx); serr == nil {
				pinned[0].Formats, pinned[0].LeaseTTL = st.Formats, st.LeaseTTL
				format = pickFormat(prefs, pinned, 1)
			}
		}
		return shipPlan{format: wire.FormatID(format), ranked: pinned, replicas: 1}, nil
	}
	if rt.placer == nil {
		return shipPlan{}, ErrNoPlacement
	}
	// Rank with need 0: the payload size is unknown until the format is
	// chosen, and ShipRanked re-checks Free against the encoded size.
	ranked := rt.placer.Rank(ctx, key, 0, nil)
	return shipPlan{
		format:   wire.FormatID(pickFormat(prefs, ranked, k)),
		ranked:   ranked,
		replicas: k,
	}, nil
}

// pickFormat returns the first preference that k of the candidate donors
// accept — all replicas of one shipment use one format, so a preference only
// wins when the whole target replica set can hold it. When the neighborhood
// is too sparse for any preference to reach k supporters, the preference with
// the most supporters wins (earlier preferences break ties). XML counts every
// donor as a supporter, so it is the floor the negotiation degrades to.
func pickFormat(prefs []string, cands []placement.Candidate, k int) string {
	best, bestCount := string(wire.FormatXML), -1
	for _, p := range prefs {
		if _, err := wire.Lookup(wire.FormatID(p)); err != nil {
			continue // unregistered preference: skip rather than ship garbage
		}
		n := 0
		for _, c := range cands {
			if c.Accepts(p) {
				n++
			}
		}
		if n >= k && n > 0 {
			return p
		}
		if n > bestCount {
			best, bestCount = p, n
		}
	}
	return best
}
