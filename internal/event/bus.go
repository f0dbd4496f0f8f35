// Package event provides a small synchronous publish/subscribe bus used to
// wire the OBIWAN-style middleware modules together: context management
// publishes memory and connectivity events, the policy engine subscribes and
// reacts, and the swapping manager both publishes replication/swapping events
// and acts on policy decisions.
//
// The bus is deliberately synchronous: handlers run on the publisher's
// goroutine, in subscription order. This mirrors the paper's design, where the
// policy engine "receives events generated by OBIWAN modules and applications,
// evaluates policy rules and triggers events, handled by actions" as part of
// the triggering operation, and it keeps middleware behaviour deterministic,
// which the reproduction benchmarks rely on.
package event

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"objectswap/internal/obs"
)

// Topic names an event stream. Topics are free-form strings; the conventional
// form is "module.subject" (for example "memory.threshold").
type Topic string

// Well-known topics published by the middleware modules.
const (
	// TopicMemoryThreshold fires when heap occupancy crosses a configured
	// threshold (rising edge). Payload: devctx.MemorySample.
	TopicMemoryThreshold Topic = "memory.threshold"
	// TopicMemoryRelief fires when occupancy falls back below the threshold
	// (falling edge). Payload: devctx.MemorySample.
	TopicMemoryRelief Topic = "memory.relief"
	// TopicLinkUp / TopicLinkDown signal connectivity changes for a named
	// nearby device. Payload: string device name.
	TopicLinkUp   Topic = "link.up"
	TopicLinkDown Topic = "link.down"
	// TopicClusterReplicated fires when the replication module installs a new
	// cluster of objects. Payload: replication.ClusterEvent.
	TopicClusterReplicated Topic = "replication.cluster"
	// TopicSwapOut and TopicSwapIn report completed swapping operations.
	// Payload: core.SwapEvent.
	TopicSwapOut Topic = "swap.out"
	TopicSwapIn  Topic = "swap.in"
	// TopicSwapDrop reports a swapped cluster dropped from its store because
	// its replacement-object became unreachable. Payload: core.SwapEvent.
	TopicSwapDrop Topic = "swap.drop"
	// TopicSwapFailover reports a swap-out shipment re-routed after the
	// selected device failed the Put. Payload: core.SwapEvent with Device set
	// to the failed device.
	TopicSwapFailover Topic = "swap.failover"
	// TopicDropAbandoned reports a deferred device-drop abandoned after
	// exhausting its retry budget: the remote payload may be leaked and needs
	// operator attention. Payload: core.SwapEvent.
	TopicDropAbandoned Topic = "swap.drop.abandoned"
	// TopicBreakerOpen / TopicBreakerClose report a device's transport
	// circuit breaker tripping and recovering. Payload: string device name.
	TopicBreakerOpen  Topic = "transport.breaker.open"
	TopicBreakerClose Topic = "transport.breaker.close"
	// TopicSwapRepair reports a swapped cluster re-shipped to fresh donors
	// after losing replicas. Payload: core.SwapEvent with Replicas set to the
	// restored replica set.
	TopicSwapRepair Topic = "swap.repair"
	// TopicReadRepair reports a swap-in that had to fall through one or more
	// dead replicas before a donor served the payload — a signal that other
	// clusters on the failed donors are likely under-replicated too. Payload:
	// core.SwapEvent with Attempted listing the failed replicas.
	TopicReadRepair Topic = "swap.readrepair"
	// TopicDeviceRemoved reports a nearby device detached from the registry
	// entirely (not merely unreachable). Payload: string device name.
	TopicDeviceRemoved Topic = "device.removed"
)

// Event is a published occurrence on a topic. Beyond the topic and payload,
// the bus stamps each publication with a bus-wide monotonic sequence number
// and a timestamp from the bus clock, so subscribers — and tests — can order
// and correlate events across modules without wall-clock reads.
type Event struct {
	Topic   Topic
	Payload any
	// Seq is the bus-wide publication sequence number (1, 2, 3, ...).
	Seq uint64
	// At is the publication time read from the bus clock (deterministic
	// under a virtual clock).
	At time.Time
}

// Handler consumes an event. Handlers must not block for long; they execute
// synchronously on the publisher's goroutine.
type Handler func(Event)

// Bus is a synchronous publish/subscribe broker. The zero value is not usable;
// construct with NewBus.
type Bus struct {
	clock obs.Clock

	mu     sync.RWMutex
	nextID int
	seq    uint64
	// subs lists each topic's subscribers in subscription order. Subscribe
	// and Cancel replace a topic's slice and never edit one, so Publish
	// delivers from the slice it read under the lock, unlocked and uncopied.
	subs map[Topic][]subscriber

	// obs instruments (nil when the bus is not instrumented).
	published   *obs.CounterVec
	deliveredC  *obs.CounterVec
	panicsTotal *obs.Counter
	recorder    *obs.Recorder
}

// subscriber is one subscription's handler.
type subscriber struct {
	id int
	h  Handler
}

// Option configures a Bus.
type Option func(*Bus)

// WithClock stamps published events from clock (virtual time in tests).
func WithClock(c obs.Clock) Option {
	return func(b *Bus) {
		if c != nil {
			b.clock = c
		}
	}
}

// WithRegistry registers the bus's observability counters: publications and
// handler deliveries per topic, and recovered subscriber panics.
func WithRegistry(r *obs.Registry) Option {
	return func(b *Bus) {
		if r == nil {
			return
		}
		b.published = r.CounterVec("objectswap_bus_published_total",
			"Events published per topic.", "topic")
		b.deliveredC = r.CounterVec("objectswap_bus_delivered_total",
			"Handler invocations per topic.", "topic")
		b.panicsTotal = r.Counter("objectswap_bus_subscriber_panics_total",
			"Subscriber panics recovered by the bus.")
	}
}

// WithFlightRecorder retains every publication in rec (topic, bus sequence,
// timestamp and a bounded payload rendering) for post-incident look-back.
func WithFlightRecorder(rec *obs.Recorder) Option {
	return func(b *Bus) { b.recorder = rec }
}

// NewBus returns an empty bus. Without options it stamps events from the
// real clock and registers no metrics.
func NewBus(opts ...Option) *Bus {
	b := &Bus{
		clock: obs.RealClock{},
		subs:  make(map[Topic][]subscriber),
	}
	for _, opt := range opts {
		opt(b)
	}
	return b
}

// Subscription identifies an active subscription so it can be cancelled.
type Subscription struct {
	bus   *Bus
	topic Topic
	id    int
}

// Subscribe registers h for events on topic and returns a cancelable
// subscription. Handlers for a topic run in subscription order.
func (b *Bus) Subscribe(topic Topic, h Handler) *Subscription {
	if h == nil {
		panic("event: nil handler")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	id := b.nextID
	// Clipped, the old slice cannot be appended to in place.
	b.subs[topic] = append(slices.Clip(b.subs[topic]), subscriber{id, h})
	return &Subscription{bus: b, topic: topic, id: id}
}

// Cancel removes the subscription. Canceling twice is a no-op.
func (s *Subscription) Cancel() {
	if s == nil || s.bus == nil {
		return
	}
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	subs := s.bus.subs[s.topic]
	if i := slices.IndexFunc(subs, func(sub subscriber) bool { return sub.id == s.id }); i >= 0 {
		if len(subs) == 1 {
			delete(s.bus.subs, s.topic)
		} else {
			// A fresh slice: a publish delivering from the old one is not
			// disturbed.
			s.bus.subs[s.topic] = slices.Concat(subs[:i], subs[i+1:])
		}
	}
	s.bus = nil
}

// Publish delivers ev to all handlers subscribed to ev.Topic, synchronously,
// in subscription order. The bus stamps ev.Seq and ev.At before delivery. A
// panicking handler is recovered and counted so that one misbehaving
// subscriber cannot kill the publisher mid-swap; remaining handlers still
// run. It returns the number of handlers invoked.
func (b *Bus) Publish(ev Event) int {
	ev.At = b.clock.Now()

	b.mu.Lock()
	b.seq++
	ev.Seq = b.seq
	subs := b.subs[ev.Topic]
	b.mu.Unlock()

	b.published.With(string(ev.Topic)).Inc()
	b.recorder.RecordEvent(obs.EventRecord{
		BusSeq:  ev.Seq,
		Topic:   string(ev.Topic),
		At:      ev.At,
		Payload: ev.Payload,
	})
	for _, sub := range subs {
		b.invoke(sub.h, ev)
	}
	b.deliveredC.With(string(ev.Topic)).Add(float64(len(subs)))
	return len(subs)
}

// invoke runs one handler, recovering and counting a panic.
func (b *Bus) invoke(h Handler, ev Event) {
	defer func() {
		if r := recover(); r != nil {
			b.panicsTotal.Inc()
		}
	}()
	h(ev)
}

// Emit is shorthand for Publish(Event{Topic: t, Payload: payload}).
func (b *Bus) Emit(t Topic, payload any) int {
	return b.Publish(Event{Topic: t, Payload: payload})
}

// String summarizes the bus state for debugging.
func (b *Bus) String() string {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return fmt.Sprintf("event.Bus{topics:%d}", len(b.subs))
}
