package core

import (
	"context"
	"slices"
	"time"

	"objectswap/internal/placement"
	"objectswap/internal/wire"
)

// Wire-format negotiation. A swap-out no longer assumes the universal XML
// wrapper: the donors' Stats advertisements (the ones the rendezvous ranking
// weighs their free capacity by: kept in the registry from the planner's
// probe, so a negotiation asks no donor anything) are matched against the
// runtime's preference order, and the whole shipment — all K replicas — uses
// the one chosen format, so any surviving replica can serve the fault-in. A
// donor that refuses the format (415) loses its kept advertisement, and the
// swap-out negotiates once more on a fresh probe (swapOut.reship).
// Donors that predate negotiation advertise nothing and are treated as
// XML-only; XML therefore remains the format of last resort that always
// succeeds wherever a pre-negotiation swap-out would have.

// shipPlan is the outcome of the negotiate phase: the wire format to encode
// in and the candidate donors to ship to.
type shipPlan struct {
	format wire.FormatID
	// ranked is the candidate list to ship over (for a pinned shipment, the
	// one donor it is pinned to).
	ranked []placement.Candidate
	// replicas is the target replica count for this shipment.
	replicas int
}

// leaseTTL is the shortest lease any of the donors that took the shipment
// grants a stored key, from the advertisement that ranked them; 0 when none
// of them expires keys.
func (p *shipPlan) leaseTTL(replicas []string) time.Duration {
	var ttl time.Duration
	for _, c := range p.ranked {
		if c.LeaseTTL > 0 && (ttl == 0 || c.LeaseTTL < ttl) && slices.Contains(replicas, c.Name) {
			ttl = c.LeaseTTL
		}
	}
	return ttl
}

// negotiate plans a shipment in the best format the donor neighborhood
// supports.
func (rt *Runtime) negotiate(ctx context.Context, rank *placement.Scratch, o swapOpts, key string, k int) (shipPlan, error) {
	prefs := rt.shipFormats()
	if o.device != "" {
		// Pinned destination: just that donor's advertisement. A failed
		// probe negotiates down to XML — if the donor is truly gone the Put
		// will report it, exactly as before negotiation existed.
		format, pinned := string(wire.FormatXML), []placement.Candidate{{Name: o.device}}
		if c, ok := rt.placer.Pinned(ctx, rank, o.device); ok {
			pinned[0] = c
			format = pickFormat(prefs, pinned, 1)
		}
		return shipPlan{format: wire.FormatID(format), ranked: pinned, replicas: 1}, nil
	}
	// Rank with need 0: the payload size is unknown until the format is
	// chosen, and ShipRanked re-checks Free against the encoded size.
	ranked := rt.placer.RankInto(ctx, rank, key, 0, nil)
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
