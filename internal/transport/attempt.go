package transport

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// attemptCtx is the context one attempt hands the store: the operation's
// context bounded by the per-attempt deadline. A Resilient reuses it from one
// attempt to the next, so an attempt over a store that only polls Err — as
// store.Mem and link.Link do — allocates nothing for its deadline.
//
// A store that asks for Done gets what context.WithDeadline would have given
// it: that first call arms a real deadline context, which the attempt context
// defers to from then on and cancels when the attempt ends, and a context
// that was armed is never reused. So a store may keep its context past its
// return, and watch it close, only if it asked for Done (the store.Store
// rule).
type attemptCtx struct {
	parent   context.Context
	deadline time.Time

	mu    sync.Mutex // serialises arming
	armed atomic.Pointer[armedDeadline]
}

// armedDeadline is the deadline context a Done call armed.
type armedDeadline struct {
	ctx    context.Context
	cancel context.CancelFunc
}

// Deadline is the earlier of the parent's deadline and the attempt's.
func (c *attemptCtx) Deadline() (time.Time, bool) {
	if d, ok := c.parent.Deadline(); ok && d.Before(c.deadline) {
		return d, true
	}
	return c.deadline, true
}

// Done arms the attempt's deadline context on its first call and returns that
// context's channel: closed by the deadline, by the parent or when the
// attempt ends, whichever comes first.
func (c *attemptCtx) Done() <-chan struct{} {
	if a := c.armed.Load(); a != nil {
		return a.ctx.Done()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	a := c.armed.Load()
	if a == nil {
		a = new(armedDeadline)
		a.ctx, a.cancel = context.WithDeadline(c.parent, c.deadline)
		c.armed.Store(a)
	}
	return a.ctx.Done()
}

// Err reports the parent's error first, then DeadlineExceeded once the
// attempt's deadline has passed. Once armed it is the deadline context's.
func (c *attemptCtx) Err() error {
	if a := c.armed.Load(); a != nil {
		return a.ctx.Err()
	}
	if err := c.parent.Err(); err != nil {
		return err
	}
	if !time.Now().Before(c.deadline) {
		return context.DeadlineExceeded
	}
	return nil
}

// Value is the parent's (the armed deadline context's once Done was called,
// so a context derived from this one finds its canceler).
func (c *attemptCtx) Value(key any) any {
	if a := c.armed.Load(); a != nil {
		return a.ctx.Value(key)
	}
	return c.parent.Value(key)
}

// beginAttempt hands out an attempt context bounding parent by the policy's
// per-attempt timeout, reusing one a finished attempt left unarmed.
func (r *Resilient) beginAttempt(parent context.Context) *attemptCtx {
	r.mu.Lock()
	var c *attemptCtx
	if n := len(r.idleCtx); n > 0 {
		c, r.idleCtx = r.idleCtx[n-1], r.idleCtx[:n-1]
	}
	r.mu.Unlock()
	if c == nil {
		c = new(attemptCtx)
	}
	c.parent, c.deadline = parent, time.Now().Add(r.pol.OpTimeout)
	return c
}

// endAttempt ends c's attempt. An armed context is cancelled, as
// context.WithTimeout's cancel function would, and dropped: the store that
// armed it may still hold it. An unarmed one goes back for the next attempt.
func (r *Resilient) endAttempt(c *attemptCtx) {
	if a := c.armed.Load(); a != nil {
		a.cancel()
		return
	}
	c.parent = nil
	r.mu.Lock()
	r.idleCtx = append(r.idleCtx, c)
	r.mu.Unlock()
}
