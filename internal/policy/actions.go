package policy

import (
	"errors"
	"fmt"

	"objectswap/internal/core"
	"objectswap/internal/event"
	"objectswap/internal/replication"
)

// BindSwapActions registers the standard Object-Swapping actions on an
// engine, wired to a swapping runtime:
//
//	swap-out  strategy=coldest|largest|least-used  count=N  collect=bool  parallel=N  replicas=K
//	    Selects count victim clusters under the strategy and swaps them out
//	    (the evictor's victim walk, core.SwapOutVictims). Each victim's
//	    memory is back when its swap-out commits; with collect true (the
//	    default) one collection afterwards also reclaims the garbage the
//	    detachments exposed, such as proxies only the victims referenced.
//	    With parallel > 1 the victims ship through a bounded worker pool,
//	    overlapping encoding with device transfer. With replicas > 0 each
//	    shipment goes to K rendezvous-ranked donors (overriding the
//	    runtime's default replication factor for this action).
//	swap-in   cluster=N
//	    Prefetches a swapped cluster back.
//	collect
//	    Runs a garbage collection.
//	log       message=...
//	    Writes a structured line through the engine's logger (SetLogger),
//	    carrying the swap trace ID when the triggering event has one.
//
// It also installs the runtime evictor so allocation pressure flows through
// the same machinery.
func BindSwapActions(e *Engine, rt *core.Runtime) {
	rt.SetEvictor(func(need int64) error { return rt.EvictWith(core.EvictOptions{}, need) })
	e.RegisterAction("swap-out", func(spec ActionSpec, _ event.Event) error {
		strategy, err := core.VictimStrategyFromString(spec.Param("strategy", "coldest"))
		if err != nil {
			return err
		}
		count := spec.IntParam("count", 1)
		collect := spec.BoolParam("collect", true)
		parallel := spec.IntParam("parallel", 1)
		// Policy-driven swap-outs are attributed to the rule that fired
		// them, not to the evictor or an explicit call.
		swapOpts := []core.SwapOption{core.WithCause(core.CausePolicy)}
		if replicas := spec.IntParam("replicas", 0); replicas > 0 {
			swapOpts = append(swapOpts, core.WithReplicas(replicas))
		}

		swapped, err := rt.SwapOutVictims(strategy, parallel,
			func(swapped int) int { return count - swapped }, swapOpts...)
		if err != nil {
			return fmt.Errorf("swap-out: %w", err)
		}
		if collect && swapped > 0 {
			rt.Collect()
		}
		if swapped == 0 {
			return errors.New("swap-out: no eligible victim")
		}
		return nil
	})

	e.RegisterAction("swap-in", func(spec ActionSpec, _ event.Event) error {
		id := spec.IntParam("cluster", -1)
		if id < 0 {
			return errors.New("swap-in: missing cluster parameter")
		}
		_, err := rt.SwapIn(core.ClusterID(id), core.WithCause(core.CausePolicy))
		return err
	})

	e.RegisterAction("collect", func(ActionSpec, event.Event) error {
		rt.Collect()
		return nil
	})

	e.RegisterAction("log", func(spec ActionSpec, ev event.Event) error {
		pairs := []any{"event", ev.Topic}
		if se, ok := ev.Payload.(core.SwapEvent); ok && se.Trace != "" {
			pairs = append(pairs, "trace", se.Trace, "cluster", uint32(se.Cluster))
		}
		e.Logger().Info(spec.Param("message", "fired"), pairs...)
		return nil
	})
}

// BindReplicationActions registers replication-adaptation actions:
//
//	set-group-size  n=N
//	    Changes how many future replication clusters share one swap-cluster
//	    (the paper's adaptable macro-object size) — e.g. shrink the grouping
//	    when the link degrades, so faults ship less per trip.
func BindReplicationActions(e *Engine, r *replication.Replicator) {
	e.RegisterAction("set-group-size", func(spec ActionSpec, _ event.Event) error {
		n := spec.IntParam("n", 0)
		if n <= 0 {
			return errors.New("set-group-size: missing or invalid n")
		}
		r.SetGroupSize(n)
		return nil
	})
}

// DefaultSwapPolicy is a ready-to-load machine policy that swaps the coldest
// cluster whenever the memory monitor signals pressure — the paper's
// prototypical "middleware, evaluating the policies loaded, decides to
// swap-out a set of objects to nearby devices".
const DefaultSwapPolicy = `<policies>
  <policy name="swap-on-pressure" category="machine">
    <on event="memory.threshold"/>
    <action do="swap-out" strategy="coldest" count="1" collect="true"/>
  </policy>
</policies>`
