package core

import (
	"sync"
	"sync/atomic"

	"objectswap/internal/event"
	"objectswap/internal/heap"
)

// The runtime lock (DESIGN §6): every exported entry holds Runtime.mu from
// entry to return, everything below it is caller-locked, and an operation
// lets go of it only around its I/O (unlocked), while its reservation holds
// the cluster.

// acquisitions counts the acquisitions of every runtime lock in the process,
// in the lockcount build only (heap.LockCount).
var acquisitions atomic.Uint64

// lock takes the runtime lock.
func (rt *Runtime) lock() {
	rt.mu.Lock()
	if heap.LockCount {
		acquisitions.Add(1)
	}
}

// assertLocked panics, in the lockcount build, when the runtime lock is free:
// the cluster table's caller-locked entry points call it. A lock another
// goroutine holds passes: the check is that someone holds it.
func (rt *Runtime) assertLocked() {
	if heap.LockCount && rt.mu.TryLock() {
		rt.mu.Unlock()
		panic("core: runtime lock not held")
	}
}

// unlock releases the runtime lock, then publishes the events queued under
// it: a subscriber runs with no runtime lock held, so it may call back in.
func (rt *Runtime) unlock() {
	ob := rt.outbox
	rt.outbox = nil
	rt.mu.Unlock()
	if ob == nil {
		return
	}
	for _, ev := range *ob {
		rt.bus.Publish(ev)
	}
	clear(*ob)
	*ob = (*ob)[:0]
	outboxes.Put(ob)
}

// unlocked runs fn with the runtime lock released and takes it back after, as
// an operation does around its I/O. The caller holds the lock.
func (rt *Runtime) unlocked(fn func()) {
	rt.unlock()
	defer rt.lock()
	fn()
}

// outbox is the events one hold of the runtime lock emitted, in order, in
// storage a pool reuses.
type outbox []event.Event

var outboxes = sync.Pool{New: func() any { return new(outbox) }}

// emit counts an event and queues it for the bus, which gets it once the
// runtime lock is released. The caller holds the lock.
func (rt *Runtime) emit(topic event.Topic, payload any) {
	rt.coreEvents.With(string(topic)).Inc()
	if rt.bus == nil {
		return
	}
	if rt.outbox == nil {
		rt.outbox = outboxes.Get().(*outbox)
	}
	*rt.outbox = append(*rt.outbox, event.Event{Topic: topic, Payload: payload})
}
