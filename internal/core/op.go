package core

import (
	"context"
	"errors"

	"objectswap/internal/heap"
	"objectswap/internal/obs"
)

// opKind names a swap operation where it is counted: its span (and telemetry
// op), its objectswap_swap_errors_total label and its failure log line.
type opKind struct{ span, errLabel, failMsg string }

var (
	opSwapOut = opKind{"swap_out", "swap_out", "swap-out failed"}
	opSwapIn  = opKind{"swap_in", "swap_in", "swap-in failed"}
	opRepair  = opKind{"swap_repair", "repair", "repair failed"}
)

// op is what SwapOut, swapInDirect and RepairCluster each own while they run:
// the trace, the span, and the undo list — the reservation and the
// replacement-object — that end gives back. It lives on the operation's
// stack, embedded in the struct its phase methods share; the operation is
// the list of do(phase, method) calls between begin and end.
type op struct {
	rt    *Runtime
	kind  *opKind
	id    ClusterID
	ctx   context.Context
	trace string
	span  *obs.Span

	err error         // the first phase failure; later phases are skipped
	cs  *clusterState // the reservation; nil before reserve and once committed
	// replacement is the cluster's replacement-object, pinned until end;
	// built marks one this operation made, which a failure removes.
	replacement heap.ObjID
	built       bool
}

// begin opens an operation: a fresh trace on the context and a span carrying
// it and the cluster.
func (rt *Runtime) begin(kind *opKind, id ClusterID, ctx context.Context) op {
	p := op{rt: rt, kind: kind, id: id, trace: rt.newTrace()}
	p.ctx = obs.ContextWithTrace(ctx, p.trace)
	p.span = rt.tracer.Start(kind.span)
	p.span.SetTrace(p.trace)
	p.span.SetCluster(uint32(id))
	return p
}

// do runs one phase unless an earlier one failed: the operation's phase
// boundary, and the only place a span phase opens.
func (p *op) do(phase string, step func() error) {
	if p.err == nil {
		p.span.Phase(phase)
		p.err = step()
	}
}

// reserve is every operation's first step (see Runtime.reserve).
func (p *op) reserve(from, to residency, snap func(*clusterState)) (err error) {
	p.cs, err = p.rt.reserve(p.id, from, to, snap)
	return err
}

// pin keeps the replacement-object alive until end.
func (p *op) pin(id heap.ObjID) {
	p.rt.h.Pin(id)
	p.replacement = id
}

// commit settles the reservation on the far side; the caller holds the swap
// lock.
func (p *op) commit(to residency, apply func(*clusterState)) {
	if p.rt.yield != nil {
		p.rt.yield("commit")
	}
	p.rt.settle(p.cs, to, apply)
	p.cs = nil
}

// end closes the operation; every operation defers it. Success only unpins.
// A failure first undoes what the operation still holds — the
// replacement-object it built, the reservation — so the cluster is back where
// it started, then fails the span, counts and logs (ErrNoRepair is an answer,
// not a failure).
func (p *op) end() {
	err := p.err
	if err != nil && p.built {
		_ = p.rt.h.Remove(p.replacement)
	}
	p.rt.h.Unpin(p.replacement)
	if err == nil {
		return
	}
	if p.cs != nil {
		p.rt.settle(p.cs, p.cs.where.settled(), nil)
	}
	p.span.Fail(err)
	if errors.Is(err, ErrNoRepair) {
		return
	}
	p.rt.swapErrors.With(p.kind.errLabel).Inc()
	p.rt.logger.Warn(p.kind.failMsg, "trace", p.trace, "cluster", uint32(p.id), "err", err)
}

// dropAll tells every listed donor to discard key; a drop that fails (the
// donor is unreachable) is queued for retry at the next collection.
func (rt *Runtime) dropAll(ctx context.Context, devices []string, key string, id ClusterID) {
	for _, d := range devices {
		if err := rt.dropFromDevice(ctx, d, key); err != nil {
			rt.mgr.deferDrop(d, key, id)
		}
	}
}
