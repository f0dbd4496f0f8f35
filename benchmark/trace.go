package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"objectswap/internal/store"
)

// span is one timed interval at a layer boundary, recorded from the harness's
// own files: around its facade calls and inside its store decorators.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // since the tracer's epoch
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index of the span that caused it, -1 at top level
	Op      int    `json:"op"`     // index of the enclosing harness op span, -1 outside any
}

// tracer keeps spans in memory for the traced run; they are written out when
// the benchmark ends. A nil *tracer records nothing, so the untraced run pays
// one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// cur is the innermost open harness span: the cause of whatever the
	// program does next, including what its prefetch workers do.
	cur atomic.Int64
	// curOp is the open harness op span.
	curOp atomic.Int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.cur.Store(-1)
	t.curOp.Store(-1)
	return t
}

// begin opens a harness span under the current one and makes it current.
// isOp marks the workload's unit of work.
func (t *tracer) begin(name string, isOp bool) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	op := int(t.curOp.Load())
	if isOp {
		op = id
	}
	t.spans = append(t.spans, span{Name: name, StartNS: now, Parent: int(t.cur.Load()), Op: op})
	t.mu.Unlock()
	t.cur.Store(int64(id))
	if isOp {
		t.curOp.Store(int64(id))
	}
	return id
}

// end closes a span opened by begin and restores its parent as current.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	parent := t.spans[id].Parent
	isOp := t.spans[id].Op == id
	t.mu.Unlock()
	t.cur.Store(int64(parent))
	if isOp {
		t.curOp.Store(-1)
	}
}

// add records a finished span (a store call seen by a decorator, or a hop the
// harness classified after the fact). parent < 0 means the current span.
func (t *tracer) add(name string, start, end time.Time, parent int) int {
	if t == nil {
		return -1
	}
	if parent < 0 {
		parent = int(t.cur.Load())
	}
	s := span{Name: name, StartNS: start.Sub(t.epoch).Nanoseconds(),
		EndNS: end.Sub(t.epoch).Nanoseconds(), Parent: parent, Op: int(t.curOp.Load())}
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

// len is the number of spans recorded so far.
func (t *tracer) len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// interval is a half-open [start,end) stretch of tracer time in ns.
type interval struct{ start, end int64 }

// unionOf merges overlapping intervals, so two prefetch workers inside the
// device at once count the wall time once.
func unionOf(in []interval) []interval {
	sort.Slice(in, func(i, j int) bool { return in[i].start < in[j].start })
	var out []interval
	for _, iv := range in {
		if n := len(out); n > 0 && iv.start <= out[n-1].end {
			if iv.end > out[n-1].end {
				out[n-1].end = iv.end
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// overlapNS is how much of [a.start,a.end) the merged, sorted intervals cover.
func overlapNS(a interval, merged []interval) int64 {
	i := sort.Search(len(merged), func(i int) bool { return merged[i].end > a.start })
	var total int64
	for ; i < len(merged) && merged[i].start < a.end; i++ {
		lo, hi := merged[i].start, merged[i].end
		if lo < a.start {
			lo = a.start
		}
		if hi > a.end {
			hi = a.end
		}
		total += hi - lo
	}
	return total
}

// spansNamed returns the intervals of every span whose name has the prefix.
func spansNamed(spans []span, prefix string) []interval {
	var out []interval
	for _, s := range spans {
		if strings.HasPrefix(s.Name, prefix) {
			out = append(out, interval{s.StartNS, s.EndNS})
		}
	}
	return out
}

// totalNS sums the lengths of the intervals.
func totalNS(ivs []interval) int64 {
	var sum int64
	for _, iv := range ivs {
		sum += iv.end - iv.start
	}
	return sum
}

// frame is one shipped payload the innermost decorator saw, kept so the
// isolated codec measurements replay what the program really sent.
type frame struct {
	format string
	data   []byte
}

// maxFrames bounds the captured payloads: clusters are uniform, so a handful
// represents them all.
const maxFrames = 8

// tracedStore is the harness's store decorator: it times every call as a span
// under the layer name it was given, counts calls and errors, and (innermost
// only) captures shipped frames. It forwards store.Envelope, which every store
// the workloads use implements; the variants below add exactly the other
// optional interfaces the wrapped store has, because a decorator that hides
// one silently changes the program (XML fallback, per-key gets).
type tracedStore struct {
	layer string
	inner store.Store
	env   store.Envelope
	tr    *tracer

	calls  atomic.Int64
	errors atomic.Int64
	busyNS atomic.Int64

	capture bool
	mu      sync.Mutex
	frames  []frame
}

type tracedMulti struct {
	*tracedStore
	mg store.MultiGetter
}

type tracedMultiLeaser struct {
	*tracedMulti
	l store.Leaser
}

// traced wraps inner under the given layer name. The returned store has the
// same optional interfaces as inner.
func traced(tr *tracer, layer string, inner store.Store, capture bool) (store.Store, *tracedStore, error) {
	env, ok := inner.(store.Envelope)
	if !ok {
		return nil, nil, fmt.Errorf("benchmark: %T has no store.Envelope; the decorator would change format negotiation", inner)
	}
	base := &tracedStore{layer: layer, inner: inner, env: env, tr: tr, capture: capture}
	mg, hasMulti := inner.(store.MultiGetter)
	l, hasLease := inner.(store.Leaser)
	switch {
	case hasMulti && hasLease:
		return &tracedMultiLeaser{&tracedMulti{base, mg}, l}, base, nil
	case hasMulti:
		return &tracedMulti{base, mg}, base, nil
	case hasLease:
		// No store in the tree leases without batching; say so rather than
		// hide the lease.
		return nil, nil, fmt.Errorf("benchmark: %T has store.Leaser without store.MultiGetter; the decorator has no such variant", inner)
	}
	return base, base, nil
}

type spanKey struct{}

// call times one forwarded store call. The span's parent is the enclosing
// decorator's span when there is one (carried in ctx through link.Link and
// transport.Resilient, which pass their context on), else the harness span
// that is current.
func (s *tracedStore) call(ctx context.Context, method string, fn func(context.Context) error) error {
	parent := -1
	if p, ok := ctx.Value(spanKey{}).(int); ok {
		parent = p
	}
	start := time.Now()
	// The span is added after the call, so the id handed to inner decorators
	// is reserved first.
	id := s.tr.add(s.layer+"."+method, start, start, parent)
	err := fn(context.WithValue(ctx, spanKey{}, id))
	end := time.Now()
	s.tr.mu.Lock()
	s.tr.spans[id].EndNS = end.Sub(s.tr.epoch).Nanoseconds()
	s.tr.mu.Unlock()
	s.calls.Add(1)
	s.busyNS.Add(end.Sub(start).Nanoseconds())
	if err != nil {
		s.errors.Add(1)
	}
	return err
}

func (s *tracedStore) keep(format string, data []byte) {
	if !s.capture {
		return
	}
	s.mu.Lock()
	if len(s.frames) < maxFrames {
		s.frames = append(s.frames, frame{format, append([]byte(nil), data...)})
	}
	s.mu.Unlock()
}

func (s *tracedStore) Put(ctx context.Context, key string, data []byte) error {
	s.keep(store.FormatXML, data)
	return s.call(ctx, "put", func(ctx context.Context) error { return s.inner.Put(ctx, key, data) })
}

func (s *tracedStore) PutEnvelope(ctx context.Context, key string, data []byte, opts store.PutOpts) error {
	s.keep(opts.Format, data)
	return s.call(ctx, "put", func(ctx context.Context) error { return s.env.PutEnvelope(ctx, key, data, opts) })
}

func (s *tracedStore) Get(ctx context.Context, key string) (data []byte, err error) {
	err = s.call(ctx, "get", func(ctx context.Context) error {
		data, err = s.inner.Get(ctx, key)
		return err
	})
	return data, err
}

func (s *tracedStore) GetEnvelope(ctx context.Context, key string) (data []byte, opts store.PutOpts, err error) {
	err = s.call(ctx, "get", func(ctx context.Context) error {
		data, opts, err = s.env.GetEnvelope(ctx, key)
		return err
	})
	return data, opts, err
}

func (s *tracedStore) Drop(ctx context.Context, key string) error {
	return s.call(ctx, "drop", func(ctx context.Context) error { return s.inner.Drop(ctx, key) })
}

func (s *tracedStore) Keys(ctx context.Context) (keys []string, err error) {
	err = s.call(ctx, "keys", func(ctx context.Context) error {
		keys, err = s.inner.Keys(ctx)
		return err
	})
	return keys, err
}

func (s *tracedStore) Stats(ctx context.Context) (st store.Stats, err error) {
	err = s.call(ctx, "stats", func(ctx context.Context) error {
		st, err = s.inner.Stats(ctx)
		return err
	})
	return st, err
}

func (s *tracedMulti) GetMulti(ctx context.Context, keys []string) (out map[string][]byte, err error) {
	err = s.call(ctx, "getmulti", func(ctx context.Context) error {
		out, err = s.mg.GetMulti(ctx, keys)
		return err
	})
	return out, err
}

func (s *tracedMultiLeaser) RenewLease(ctx context.Context, key string, ttl time.Duration) error {
	return s.call(ctx, "renewlease", func(ctx context.Context) error { return s.l.RenewLease(ctx, key, ttl) })
}
