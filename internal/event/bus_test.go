package event

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"objectswap/internal/obs"
)

func TestPublishDeliversInSubscriptionOrder(t *testing.T) {
	b := NewBus()
	var order []int
	b.Subscribe("t", func(Event) { order = append(order, 1) })
	b.Subscribe("t", func(Event) { order = append(order, 2) })
	b.Subscribe("t", func(Event) { order = append(order, 3) })
	n := b.Emit("t", nil)
	if n != 3 {
		t.Fatalf("Emit returned %d, want 3", n)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("delivery order = %v", order)
		}
	}
}

func TestPublishPayloadAndTopicIsolation(t *testing.T) {
	b := NewBus()
	var got any
	b.Subscribe("a", func(ev Event) { got = ev.Payload })
	other := 0
	b.Subscribe("b", func(Event) { other++ })
	b.Emit("a", 42)
	if got != 42 {
		t.Fatalf("payload = %v", got)
	}
	if other != 0 {
		t.Fatal("handler on unrelated topic fired")
	}
	if n := b.Emit("missing", nil); n != 0 {
		t.Fatalf("Emit on topic without subscribers = %d", n)
	}
}

func TestCancel(t *testing.T) {
	b := NewBus()
	calls := 0
	sub := b.Subscribe("t", func(Event) { calls++ })
	b.Emit("t", nil)
	sub.Cancel()
	b.Emit("t", nil)
	if calls != 1 {
		t.Fatalf("calls = %d, want 1", calls)
	}
	sub.Cancel() // double-cancel is a no-op
	var nilSub *Subscription
	nilSub.Cancel() // nil-cancel is a no-op
	if len(b.subs["t"]) != 0 {
		t.Fatal("subscriber count not zero after cancel")
	}
}

// TestCancelDuringPublish: a handler that cancels its own subscription
// while a publication is delivering does not disturb that delivery — every
// handler subscribed when it began runs, in order — and from the next
// publication on the remaining subscribers run in their subscription order.
func TestCancelDuringPublish(t *testing.T) {
	b := NewBus()
	var order []string
	b.Subscribe("t", func(Event) { order = append(order, "a") })
	var self *Subscription
	self = b.Subscribe("t", func(Event) {
		order = append(order, "b")
		self.Cancel()
	})
	b.Subscribe("t", func(Event) { order = append(order, "c") })
	b.Subscribe("t", func(Event) { order = append(order, "d") })

	if n := b.Emit("t", nil); n != 4 {
		t.Fatalf("first publication reached %d handlers, want 4", n)
	}
	if n := b.Emit("t", nil); n != 3 {
		t.Fatalf("second publication reached %d handlers, want 3", n)
	}
	if got, want := strings.Join(order, ""), "abcdacd"; got != want {
		t.Fatalf("delivery order %q, want %q", got, want)
	}
	if got := len(b.subs["t"]); got != 3 {
		t.Fatalf("%d subscribers left, want 3", got)
	}
}

func TestDeliveredCounter(t *testing.T) {
	r := obs.NewRegistry(nil)
	b := NewBus(WithRegistry(r))
	b.Subscribe("t", func(Event) {})
	b.Subscribe("t", func(Event) {})
	b.Emit("t", nil)
	b.Emit("t", nil)
	if got, _ := r.Value("objectswap_bus_delivered_total", "t"); got != 4 {
		t.Fatalf("Delivered = %v, want 4", got)
	}
}

func TestNilHandlerPanics(t *testing.T) {
	b := NewBus()
	defer func() {
		if recover() == nil {
			t.Fatal("Subscribe(nil) should panic")
		}
	}()
	b.Subscribe("t", nil)
}

func TestHandlerMayPublish(t *testing.T) {
	// Synchronous cascading: a handler publishing on another topic must not
	// deadlock (handlers run outside the bus lock).
	b := NewBus()
	hits := 0
	b.Subscribe("second", func(Event) { hits++ })
	b.Subscribe("first", func(Event) { b.Emit("second", nil) })
	b.Emit("first", nil)
	if hits != 1 {
		t.Fatalf("cascaded delivery = %d, want 1", hits)
	}
}

func TestConcurrentPublishSafe(t *testing.T) {
	b := NewBus()
	var mu sync.Mutex
	count := 0
	b.Subscribe("t", func(Event) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				b.Emit("t", j)
			}
		}()
	}
	wg.Wait()
	if count != 1600 {
		t.Fatalf("count = %d, want 1600", count)
	}
}

func TestPanickingSubscriberDoesNotKillPublisher(t *testing.T) {
	r := obs.NewRegistry(nil)
	b := NewBus(WithRegistry(r))
	after := 0
	b.Subscribe("t", func(Event) { panic("subscriber bug") })
	b.Subscribe("t", func(Event) { after++ })

	n := b.Emit("t", nil) // must not panic out of Publish
	if n != 2 {
		t.Fatalf("Emit returned %d, want 2", n)
	}
	if after != 1 {
		t.Fatal("handler after the panicking one did not run")
	}
	if v, ok := r.Value("objectswap_bus_subscriber_panics_total"); !ok || v != 1 {
		t.Fatalf("panic counter = %v %v", v, ok)
	}
	if v, _ := r.Value("objectswap_bus_published_total", "t"); v != 1 {
		t.Fatalf("published counter = %v", v)
	}
	if v, _ := r.Value("objectswap_bus_delivered_total", "t"); v != 2 {
		t.Fatalf("delivered counter = %v", v)
	}
}

func TestEnvelopeSeqAndTimestamp(t *testing.T) {
	clk := obs.NewVirtualClock(time.Unix(500, 0))
	b := NewBus(WithClock(clk))
	var events []Event
	b.Subscribe("a", func(ev Event) { events = append(events, ev) })
	b.Subscribe("b", func(ev Event) { events = append(events, ev) })

	b.Emit("a", nil)
	clk.Advance(2 * time.Second)
	b.Emit("b", nil)
	b.Emit("a", nil)

	if len(events) != 3 {
		t.Fatalf("events = %d", len(events))
	}
	// Seq is bus-wide monotonic across topics.
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d Seq = %d", i, ev.Seq)
		}
	}
	if !events[0].At.Equal(time.Unix(500, 0)) {
		t.Fatalf("first At = %v", events[0].At)
	}
	if !events[1].At.Equal(time.Unix(502, 0)) || !events[2].At.Equal(time.Unix(502, 0)) {
		t.Fatalf("later At = %v, %v", events[1].At, events[2].At)
	}
}

// TestFlightDetailRenderedOnRead: a publication costs no payload rendering —
// the flight recorder renders when it is read — yet what is read is what was
// published: a value payload renders as it always did, and a payload the
// publisher can still change is captured on the spot.
func TestFlightDetailRenderedOnRead(t *testing.T) {
	type swap struct {
		Cluster uint32
		Phases  []string
		Took    time.Duration
	}
	rec := obs.NewRecorder(4, 4)
	b := NewBus(WithFlightRecorder(rec))

	value := swap{Cluster: 7, Phases: []string{"fetch", "install"}, Took: 1500 * time.Microsecond}
	b.Emit("swap.in", value)
	ptr := &swap{Cluster: 8}
	b.Emit("swap.out", ptr)
	ptr.Cluster = 99
	b.Emit("long", strings.Repeat("x", 400))

	events := rec.Events() // most recent first
	if got, want := events[2].Detail, fmt.Sprintf("%+v", value); got != want {
		t.Fatalf("value payload detail = %q, want %q", got, want)
	}
	if got, want := events[1].Detail, "&{Cluster:8 Phases:[] Took:0s}"; got != want {
		t.Fatalf("pointer payload detail = %q, want the state at publication %q", got, want)
	}
	if got := events[0].Detail; len(got) != 163 || !strings.HasSuffix(got, "...") {
		t.Fatalf("long payload detail has %d bytes, want 160 and an ellipsis", len(got))
	}

	value.Cluster = 1
	if allocs := testing.AllocsPerRun(100, func() { b.Emit("swap.in", &value) }); allocs < 1 {
		t.Fatalf("pointer payload rendered at publication should allocate, got %v", allocs)
	}
	quiet := NewBus() // recorder off: nothing is rendered, ever
	if allocs := testing.AllocsPerRun(100, func() { quiet.Emit("swap.in", ptr) }); allocs != 0 {
		t.Fatalf("publication without a recorder allocates %v times", allocs)
	}
	// Nor is anything copied or sorted to deliver: the handlers run from the
	// topic's subscriber list as it stood.
	delivered := 0
	quiet.Subscribe("swap.out", func(Event) { delivered++ })
	quiet.Subscribe("swap.out", func(Event) { delivered++ })
	if allocs := testing.AllocsPerRun(100, func() { quiet.Emit("swap.out", ptr) }); allocs != 0 {
		t.Fatalf("publication to two subscribers without a recorder allocates %v times", allocs)
	}
	if delivered != 2*101 {
		t.Fatalf("two subscribers saw %d deliveries over 101 publications", delivered)
	}
	if allocs := testing.AllocsPerRun(100, func() { b.Emit("swap.in", "dev-a") }); allocs > 1 {
		t.Fatalf("publication of a value payload allocates %v times, want at most the boxing", allocs)
	}
}

func TestStringSummary(t *testing.T) {
	b := NewBus()
	b.Subscribe("x", func(Event) {})
	if got := b.String(); got != "event.Bus{topics:1}" {
		t.Fatalf("String = %q", got)
	}
}
