package obs

import "context"

// TraceHeader is the HTTP header that carries a swap trace ID across the
// store and replication boundaries, so the span recorded on the constrained
// device correlates with the serving node's access log and flight recorder.
// See PROTOCOL.md.
const TraceHeader = "X-Obiswap-Trace"

// traceKey is the context key for the in-flight trace ID.
type traceKey struct{}

// TraceContext is a context carrying a trace ID. It answers the trace key
// with itself, so carrying an ID costs no box, as a context.WithValue value
// would. It is a value so that an operation can hold it inside a record of
// its own, beside the ID's bytes (core's op record).
type TraceContext struct {
	context.Context
	id string
}

// Bind makes c carry id on top of parent and returns it as a context. A
// bound TraceContext is handed out and never bound again: whoever it was
// handed to may keep it.
func (c *TraceContext) Bind(parent context.Context, id string) context.Context {
	c.Context, c.id = parent, id
	return c
}

func (c *TraceContext) Value(key any) any {
	if key == (traceKey{}) {
		return c
	}
	return c.Context.Value(key)
}

// TraceFrom extracts the trace ID carried by ctx ("" when absent).
func TraceFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	if c, ok := ctx.Value(traceKey{}).(*TraceContext); ok {
		return c.id
	}
	return ""
}
