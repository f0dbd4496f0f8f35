package core

import (
	"bytes"
	"fmt"
	"runtime"
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

// assertDispatcher, in the lockcount build, holds the invocation stack to one
// dispatcher (DESIGN §6): the goroutine that opens the outermost frame is
// recorded, and any other that opens a frame while the stack holds one — one
// that dispatched while the first had the lock let go, in a fault, say —
// panics before it pushes anything. The outermost leave clears the record.
func (rt *Runtime) assertDispatcher() {
	if rt.stackTrace == nil {
		rt.stackTrace = make([]byte, 64)
	}
	g := goid(rt.stackTrace)
	switch {
	case rt.depth == 0:
		rt.dispatcher = g
	case g != rt.dispatcher:
		panic(fmt.Sprintf("core: goroutine %d dispatches while goroutine %d holds %d frames", g, rt.dispatcher, rt.depth))
	}
}

// goid reads the calling goroutine's id from the header of its stack trace,
// "goroutine 18 [running]:", written into buf. Only the lockcount build
// calls it.
func goid(buf []byte) uint64 {
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf, false)], []byte("goroutine "))
	var id uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + uint64(c-'0')
	}
	return id
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
