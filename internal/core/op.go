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
// replacement-object — that end gives back. It is embedded in the struct its
// phase methods share, and holds its span by value: the phases and labels sit
// in the operation's own struct. The operation is the list of do(phase,
// method) calls between begin and end.
//
// What an operation hands to others outlives it, so it is allocated, in one
// record (see record): the trace id, the context carrying it and the phase
// list of its SwapEvent. The only other allocation of every successful
// operation is its SwapEvent boxed for the bus (event.Bus takes an any; the
// flight recorder and the subscribers keep the box, and on a swap-in it is
// also the fault's result).
type op struct {
	rt   *Runtime
	kind *opKind
	id   ClusterID
	seq  uint64 // the trace's sequence number, drawn at begin
	span obs.Span

	// parent is the caller's context. ctx carries the trace on top of it and
	// trace is the trace id; both are set by handOut, the first time the
	// operation hands its trace to anyone, and are nil and "" before.
	// phases is the record's phase array, which End copies the span into.
	parent context.Context
	ctx    context.Context
	trace  string
	phases []obs.Phase

	err error         // the first phase failure; later phases are skipped
	cs  *clusterState // the reservation; nil before reserve and once committed
	// replacement is the cluster's replacement-object, pinned until end;
	// built marks one this operation made, which a failure removes.
	replacement heap.ObjID
	built       bool
}

// begin opens the operation p: it draws the trace's sequence number and
// opens a span on the cluster. The trace itself is made by handOut.
func (p *op) begin(rt *Runtime, kind *opKind, id ClusterID, ctx context.Context) {
	p.rt, p.kind, p.id, p.parent, p.seq = rt, kind, id, ctx, rt.traceSeq.Add(1)
	rt.tracer.Begin(&p.span, kind.span)
	p.span.SetCluster(uint32(id))
}

// traceInline is the longest trace id a record holds in its own bytes: a
// default device name ("dev" and twelve digits), the dash
// and a sequence of up to sixteen hex digits fit. A longer id, from a long
// WithName, is an allocation of its own, which would make a runtime's swaps
// allocate more than another's by the length of its name alone
// (TestTraceIDInline).
const traceInline = 32

// record is what one swap operation hands to others, in one allocation: the
// context carrying its trace (handed to the stores, the logger and the bus's
// subscribers), the phase array its SwapEvent's Phases slices (Span.End
// copies into it), and the trace id's bytes, which the trace string aliases
// (heap.HandOver) — so the SwapEvent's Trace, the context, the log records
// and the flight recorder's span all carry the one copy. P is the phase
// array, sized to the phases the operation records.
//
// Each part is written once before it is handed out — the id and the
// context by handOut, the phases by Span.End — and never again. A record is
// never pooled or reused: anyone it was handed to may keep what they got — a
// store its context, a subscriber its event, the flight recorder's ring its
// trace string (and through it the record and the caller's context, until
// the slot is overwritten) — and the garbage collector frees it when the
// last of them lets go.
type record[P any] struct {
	ctx    obs.TraceContext
	phases P // before id: a trailing empty array would be padded
	id     [traceInline]byte
}

// handOut makes the operation's record, sized for the given number of phases,
// the first time the operation hands its trace out: a swap-in or a repair
// at its fetch (5 phases), a shipping swap-out at its negotiate (6), a clean
// swap-out at its finish (3) and an operation that failed before any of
// those at its end (none: a failure returns no phases). Later calls do
// nothing.
func (p *op) handOut(phases int) {
	if p.ctx != nil {
		return
	}
	var tc *obs.TraceContext
	var id []byte
	switch {
	case phases == 0:
		r := new(record[[0]obs.Phase])
		tc, id = &r.ctx, r.id[:0]
	case phases <= 3:
		r := new(record[[3]obs.Phase])
		tc, id, p.phases = &r.ctx, r.id[:0], r.phases[:]
	case phases <= 5:
		r := new(record[[5]obs.Phase])
		tc, id, p.phases = &r.ctx, r.id[:0], r.phases[:]
	default:
		r := new(record[[6]obs.Phase])
		tc, id, p.phases = &r.ctx, r.id[:0], r.phases[:]
	}
	p.trace = heap.HandOver(p.rt.appendTrace(id, p.seq))
	p.ctx = tc.Bind(p.parent, p.trace)
	p.span.SetTrace(p.trace)
}

// do runs one phase unless an earlier one failed: the operation's phase
// boundary, and the only place a span phase opens. The phase runs under the
// runtime lock the operation holds.
func (p *op) do(phase string, step func() error) {
	if p.err == nil {
		p.span.Phase(phase)
		p.err = step()
	}
}

// io runs one I/O phase as do does, with the runtime lock released: the
// reservation holds the cluster meanwhile. An I/O phase touches neither the
// heap nor the cluster table, only what the operation copied out of them.
func (p *op) io(phase string, step func() error) {
	if p.err == nil {
		p.span.Phase(phase)
		p.rt.unlocked(func() { p.err = step() })
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

// commit settles the reservation on the far side.
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
	p.handOut(0)
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

// dropAll tells every listed donor to discard key, with the runtime lock
// released for each drop; a drop that fails (the donor is unreachable) is
// queued for retry at the next collection. The caller holds the lock.
func (rt *Runtime) dropAll(ctx context.Context, devices []string, key string, id ClusterID) {
	for _, d := range devices {
		var err error
		rt.unlocked(func() { err = rt.dropFromDevice(ctx, d, key) })
		if err != nil {
			rt.mgr.deferDrop(d, key, id)
		}
	}
}
