package devctx

import (
	"testing"
	"time"

	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/store"
)

func fill(t testing.TB, h *heap.Heap, bytes int) heap.ObjID {
	t.Helper()
	c := heap.NewClass("Blob", heap.FieldDef{Name: "data", Kind: heap.KindBytes})
	o, err := h.New(c)
	if err != nil {
		t.Fatal(err)
	}
	o.MustSet("data", heap.Bytes(make([]byte, bytes)))
	return o.ID()
}

func TestMemoryMonitorEdgeTriggering(t *testing.T) {
	h := heap.New(1000)
	bus := event.NewBus()
	mon := NewMemoryMonitor(h, bus, 0.5)

	var ups, downs []MemorySample
	bus.Subscribe(event.TopicMemoryThreshold, func(ev event.Event) {
		ups = append(ups, ev.Payload.(MemorySample))
	})
	bus.Subscribe(event.TopicMemoryRelief, func(ev event.Event) {
		downs = append(downs, ev.Payload.(MemorySample))
	})

	// Below threshold: no event.
	if _, fired := mon.Check(); fired {
		t.Fatal("fired below threshold")
	}
	// Cross the threshold: one rising-edge event, then silence while high.
	id := fill(t, h, 600)
	if _, fired := mon.Check(); !fired {
		t.Fatal("did not fire on rising edge")
	}
	if _, fired := mon.Check(); fired {
		t.Fatal("re-fired while above threshold (not edge-triggered)")
	}
	if len(ups) != 1 || ups[0].Fraction < 0.5 {
		t.Fatalf("threshold events: %+v", ups)
	}
	// Fall back below: one relief event.
	if err := h.Remove(id); err != nil {
		t.Fatal(err)
	}
	if _, fired := mon.Check(); !fired {
		t.Fatal("did not fire on falling edge")
	}
	if len(downs) != 1 {
		t.Fatalf("relief events: %d", len(downs))
	}
}

func TestMemoryMonitorDefaults(t *testing.T) {
	h := heap.New(0)
	mon := NewMemoryMonitor(h, event.NewBus(), -3)
	if mon.Threshold() != 0.8 {
		t.Fatalf("default threshold = %v", mon.Threshold())
	}
	// Unlimited heaps never fire.
	fill(t, h, 1<<20)
	if _, fired := mon.Check(); fired {
		t.Fatal("unlimited heap fired")
	}
	s := mon.Sample()
	if s.Objects != 1 || s.Capacity != 0 {
		t.Fatalf("sample = %+v", s)
	}
}

func TestMemoryMonitorPeriodic(t *testing.T) {
	h := heap.New(100)
	bus := event.NewBus()
	fired := make(chan struct{}, 1)
	bus.Subscribe(event.TopicMemoryThreshold, func(event.Event) {
		select {
		case fired <- struct{}{}:
		default:
		}
	})
	mon := NewMemoryMonitor(h, bus, 0.5)
	mon.Start(time.Millisecond)
	mon.Start(time.Millisecond) // double-start is a no-op
	defer mon.Stop()

	fill(t, h, 40) // object overhead pushes this over 50%
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("periodic monitor never fired")
	}
	mon.Stop()
	mon.Stop() // double-stop is a no-op
}

func TestConnectivityMonitor(t *testing.T) {
	bus := event.NewBus()
	reg := store.NewRegistry(store.SelectMostFree)
	_ = reg.Add("pda", store.NewMem(0))
	conn := NewConnectivityMonitor(bus, reg)

	var ups, downs []string
	bus.Subscribe(event.TopicLinkUp, func(ev event.Event) { ups = append(ups, ev.Payload.(string)) })
	bus.Subscribe(event.TopicLinkDown, func(ev event.Event) { downs = append(downs, ev.Payload.(string)) })

	conn.Set("pda", true)
	conn.Set("pda", true) // no change: no event
	conn.Set("pda", false)
	if len(ups) != 1 || len(downs) != 1 {
		t.Fatalf("events: ups=%v downs=%v", ups, downs)
	}
	if conn.Up("pda") {
		t.Fatal("Up after down")
	}
	if conn.upCount() != 0 {
		t.Fatalf("upCount = %d", conn.upCount())
	}
	// Registry mirrored the state.
	if _, err := reg.Lookup("pda"); err == nil {
		t.Fatal("registry still reachable after link down")
	}
	conn.Set("pda", true)
	if _, err := reg.Lookup("pda"); err != nil {
		t.Fatalf("registry unreachable after link up: %v", err)
	}
	if conn.upCount() != 1 {
		t.Fatalf("upCount = %d", conn.upCount())
	}
}

func TestContextSnapshot(t *testing.T) {
	h := heap.New(1000)
	fill(t, h, 100)
	bus := event.NewBus()
	reg := store.NewRegistry(store.SelectMostFree)
	_ = reg.Add("pda", store.NewMem(0))
	conn := NewConnectivityMonitor(bus, reg)
	conn.Set("pda", true)

	ctx := NewContext(h, conn)
	ctx.RegisterMetric("app.photos", func() float64 { return 12 })

	s := ctx.Snapshot()
	if s["heap.capacity"] != 1000 {
		t.Errorf("heap.capacity = %v", s["heap.capacity"])
	}
	if s["heap.used"] <= 0 || s["heap.used.pct"] <= 0 {
		t.Errorf("heap.used = %v, pct = %v", s["heap.used"], s["heap.used.pct"])
	}
	if s["heap.objects"] != 1 {
		t.Errorf("heap.objects = %v", s["heap.objects"])
	}
	if s["devices.up"] != 1 {
		t.Errorf("devices.up = %v", s["devices.up"])
	}
	if s["app.photos"] != 12 {
		t.Errorf("app.photos = %v", s["app.photos"])
	}
	// Without a connectivity monitor the metric is simply absent.
	bare := NewContext(h, nil)
	if _, ok := bare.Snapshot()["devices.up"]; ok {
		t.Error("devices.up present without monitor")
	}
}
