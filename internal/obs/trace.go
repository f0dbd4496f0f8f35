package obs

import "context"

// TraceHeader is the HTTP header that carries a swap trace ID across the
// store and replication boundaries, so the span recorded on the constrained
// device correlates with the serving node's access log and flight recorder.
// See PROTOCOL.md.
const TraceHeader = "X-Obiswap-Trace"

// traceKey is the context key for the in-flight trace ID.
type traceKey struct{}

// traceCtx is a context carrying a trace ID. It answers the trace key with
// itself, so carrying an ID costs the one allocation of the context: the ID
// is not boxed, as a context.WithValue value would be.
type traceCtx struct {
	context.Context
	id string
}

func (c *traceCtx) Value(key any) any {
	if key == (traceKey{}) {
		return c
	}
	return c.Context.Value(key)
}

// ContextWithTrace returns ctx carrying the given trace ID. An empty id
// returns ctx unchanged.
func ContextWithTrace(ctx context.Context, id string) context.Context {
	if id == "" {
		return ctx
	}
	return &traceCtx{Context: ctx, id: id}
}

// TraceFrom extracts the trace ID carried by ctx ("" when absent).
func TraceFrom(ctx context.Context) string {
	if ctx == nil {
		return ""
	}
	if c, ok := ctx.Value(traceKey{}).(*traceCtx); ok {
		return c.id
	}
	return ""
}
