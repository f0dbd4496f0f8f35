package policy

import (
	"errors"
	"fmt"

	"objectswap/internal/core"
	"objectswap/internal/event"
)

// BindSwapActions registers the standard Object-Swapping actions on an
// engine, wired to a swapping runtime:
//
//	swap-out  strategy=coldest|largest|least-used  count=N  collect=bool  replicas=K
//	    Selects count victim clusters under the strategy and swaps them out
//	    one at a time (the evictor's victim walk, core.SwapOutVictims). Each
//	    victim's memory is back when its swap-out commits; with collect true
//	    (the default) one collection afterwards also reclaims the garbage the
//	    detachments exposed, such as proxies only the victims referenced.
//	    With replicas > 0 each shipment goes to K rendezvous-ranked donors
//	    (overriding the runtime's default replication factor for this
//	    action). Any other attribute, such as a leftover parallel=N, is
//	    ignored.
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
	rt.SetEvictor(func(need int64) error { return rt.EvictWith(core.VictimColdest, need) })
	e.registerAction("swap-out", func(spec ActionSpec, _ event.Event) error {
		strategy, err := core.VictimStrategyFromString(spec.param("strategy", "coldest"))
		if err != nil {
			return err
		}
		count := spec.intParam("count", 1)
		collect := spec.boolParam("collect", true)
		// Policy-driven swap-outs are attributed to the rule that fired
		// them, not to the evictor or an explicit call.
		swapOpts := []core.SwapOption{core.WithCause(core.CausePolicy)}
		if replicas := spec.intParam("replicas", 0); replicas > 0 {
			swapOpts = append(swapOpts, core.WithReplicas(replicas))
		}

		swapped, err := rt.SwapOutVictims(strategy,
			func(swapped int) bool { return swapped >= count }, swapOpts...)
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

	e.registerAction("swap-in", func(spec ActionSpec, _ event.Event) error {
		id := spec.intParam("cluster", -1)
		if id < 0 {
			return errors.New("swap-in: missing cluster parameter")
		}
		_, err := rt.SwapIn(core.ClusterID(id), core.WithCause(core.CausePolicy))
		return err
	})

	e.registerAction("collect", func(ActionSpec, event.Event) error {
		rt.Collect()
		return nil
	})

	e.registerAction("log", func(spec ActionSpec, ev event.Event) error {
		pairs := []any{"event", ev.Topic}
		if se, ok := ev.Payload.(core.SwapEvent); ok && se.Trace != "" {
			pairs = append(pairs, "trace", se.Trace, "cluster", uint32(se.Cluster))
		}
		e.Logger().Info(spec.param("message", "fired"), pairs...)
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
