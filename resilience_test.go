package objectswap

import (
	"context"
	"errors"
	"sort"
	"testing"

	"objectswap/internal/heap"
	"objectswap/internal/placement"
	"objectswap/internal/store"
)

// buildClusters allocates n single-object clusters on sys, rooted so they
// survive collection, inside a scope, so it leaves no host root behind.
func buildClusters(t *testing.T, sys *System, cls *heap.Class, n int) []ClusterID {
	t.Helper()
	clusters := make([]ClusterID, n)
	_ = sys.Scope(func() error {
		for i := range clusters {
			clusters[i] = sys.NewCluster()
			o, err := sys.NewObject(cls, clusters[i])
			if err != nil {
				t.Fatal(err)
			}
			if err := sys.SetField(o.RefTo(), "title", heap.Str("x")); err != nil {
				t.Fatal(err)
			}
			if err := sys.SetRoot(string(rune('a'+i)), o.RefTo()); err != nil {
				t.Fatal(err)
			}
		}
		return nil
	})
	return clusters
}

func TestSystemFailoverBreakerAndMetrics(t *testing.T) {
	sys, err := New(Config{
		HeapCapacity: 1 << 20,
		// Pin the device name so storage keys — and with them the planner's
		// rendezvous ranking of the two donors — are reproducible.
		DeviceName: "fo-sys",
		// One attempt per op, breaker trips on the first failure, no timeout
		// machinery: the test exercises routing, not waiting.
		Transport: TransportPolicy{MaxAttempts: 1, BreakerThreshold: 1, OpTimeout: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first swap-out (cluster 1) mints key fo-sys-swapcluster-1-gen1;
	// fault whichever donor the planner ranks first for it.
	names := []string{"donor-a", "donor-b"}
	order := placement.Order("fo-sys-swapcluster-1-gen1", names)
	badName, goodName := order[0], order[1]
	flaky := store.NewFlaky(store.NewMem(0), 1)
	flaky.FailNext(store.OpPut, -1)
	if err := sys.AttachDevice(badName, flaky); err != nil {
		t.Fatal(err)
	}
	good := store.NewMem(0)
	if err := sys.AttachDevice(goodName, good); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	clusters := buildClusters(t, sys, cls, 2)

	// First swap-out: the top-ranked donor rejects the shipment, the swap
	// fails over.
	ev, err := sys.SwapOut(clusters[0])
	if err != nil {
		t.Fatalf("swap-out with failover: %v", err)
	}
	if ev.Device != goodName || len(ev.Attempted) != 1 || ev.Attempted[0] != badName {
		t.Fatalf("event = %+v", ev)
	}

	snap := sys.TransportSnapshot()
	if snap.Failovers != 1 {
		t.Fatalf("failovers = %d", snap.Failovers)
	}
	bad := snap.Devices[badName]
	if bad.BreakerTrips != 1 || !bad.BreakerOpen || bad.Failovers != 1 {
		t.Fatalf("%s snapshot = %+v", badName, bad)
	}
	if snap.Devices[goodName].BytesOut == 0 {
		t.Fatal("no bytes accounted to the healthy device")
	}

	// The tripped breaker marked the donor unreachable, so the second
	// swap-out routes straight to the healthy one without a failover hop.
	putsBefore := flaky.Calls(store.OpPut)
	ev2, err := sys.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	if ev2.Device != goodName || len(ev2.Attempted) != 0 {
		t.Fatalf("second event = %+v", ev2)
	}
	if flaky.Calls(store.OpPut) != putsBefore {
		t.Fatal("breaker-open device still received shipments")
	}

	// Both clusters reload from the healthy device.
	sys.Collect()
	for _, c := range clusters {
		if _, err := sys.SwapIn(c); err != nil {
			t.Fatalf("swap-in %d: %v", c, err)
		}
	}
}

func TestSystemSwapOptions(t *testing.T) {
	sys, err := New(Config{HeapCapacity: 1 << 20, DeviceName: "opt-sys",
		Transport: TransportPolicy{MaxAttempts: 1, OpTimeout: -1}})
	if err != nil {
		t.Fatal(err)
	}
	// Fault whichever donor the planner ranks first for the first swap-out's
	// key, so fail-fast shipment hits the faulty donor.
	names := []string{"donor-a", "donor-b"}
	order := placement.Order("opt-sys-swapcluster-1-gen1", names)
	badName, goodName := order[0], order[1]
	flaky := store.NewFlaky(store.NewMem(0), 1)
	flaky.FailNext(store.OpPut, -1)
	if err := sys.AttachDevice(badName, flaky); err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachDevice(goodName, store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	clusters := buildClusters(t, sys, cls, 2)

	// WithNoFailover restores fail-fast shipment.
	if _, err := sys.SwapOut(clusters[0], WithNoFailover()); !errors.Is(err, store.ErrUnavailable) {
		t.Fatalf("no-failover err = %v", err)
	}

	// WithDevice pins the destination past the planner's first choice.
	ev, err := sys.SwapOut(clusters[0], WithDevice(goodName))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Device != goodName || len(ev.Attempted) != 0 {
		t.Fatalf("pinned event = %+v", ev)
	}

	// WithContext: an already-canceled swap does nothing.
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.SwapOut(clusters[1], WithContext(cctx)); err == nil {
		t.Fatal("canceled swap-out succeeded")
	}
}

// mapStore is a minimal third-party store that predates the context API.
type mapStore struct{ m map[string][]byte }

func (s *mapStore) Put(key string, data []byte) error {
	s.m[key] = append([]byte(nil), data...)
	return nil
}

func (s *mapStore) Get(key string) ([]byte, error) {
	d, ok := s.m[key]
	if !ok {
		return nil, store.ErrNotFound
	}
	return d, nil
}

func (s *mapStore) Drop(key string) error {
	if _, ok := s.m[key]; !ok {
		return store.ErrNotFound
	}
	delete(s.m, key)
	return nil
}

func (s *mapStore) Keys() ([]string, error) {
	keys := make([]string, 0, len(s.m))
	for k := range s.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

func (s *mapStore) Stats() (store.Stats, error) {
	var used int64
	for _, d := range s.m {
		used += int64(len(d))
	}
	return store.Stats{Items: len(s.m), Used: used}, nil
}

func TestAttachLegacyDevice(t *testing.T) {
	sys, err := New(Config{HeapCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	legacy := &mapStore{m: make(map[string][]byte)}
	if err := sys.AttachDevice("old-pda", store.NewLegacy(legacy)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	clusters := buildClusters(t, sys, cls, 1)

	ev, err := sys.SwapOut(clusters[0])
	if err != nil {
		t.Fatal(err)
	}
	if ev.Device != "old-pda" {
		t.Fatalf("shipped to %q", ev.Device)
	}
	if _, ok := legacy.m[ev.Key]; !ok {
		t.Fatal("payload never reached the legacy store")
	}
	if _, err := sys.SwapIn(clusters[0]); err != nil {
		t.Fatal(err)
	}
	// The reload leaves the payload where it is, as the retained copy; it goes
	// when the cluster does.
	if _, ok := legacy.m[ev.Key]; !ok || len(legacy.m) != 1 {
		t.Fatalf("legacy store holds %d keys after reload, want the retained copy %q", len(legacy.m), ev.Key)
	}
	if err := sys.SetRoot("a", heap.Nil()); err != nil {
		t.Fatal(err)
	}
	sys.Collect()
	sys.Collect()
	sys.Collect()
	if len(legacy.m) != 0 {
		t.Fatalf("retained copy left on the legacy store after its cluster died: %d keys", len(legacy.m))
	}
}

func TestProbeDevicesRecoversBreakerOpenDevice(t *testing.T) {
	sys, err := New(Config{
		HeapCapacity: 1 << 20,
		DeviceName:   "probe-sys",
		Transport:    TransportPolicy{MaxAttempts: 1, BreakerThreshold: 1, OpTimeout: -1},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The final swap-out (cluster 2, second key minted) must re-select the
	// recovered donor, so make the dead one whichever the planner ranks
	// first for that key.
	names := []string{"donor-a", "donor-b"}
	order := placement.Order("probe-sys-swapcluster-2-gen2", names)
	deadName, goodName := order[0], order[1]
	dead := store.NewFlaky(store.NewMem(0), 1)
	dead.FailNext(store.OpPut, -1)
	dead.FailNext(store.OpStats, -1) // the whole link is down
	if err := sys.AttachDevice(deadName, dead); err != nil {
		t.Fatal(err)
	}
	if err := sys.AttachDevice(goodName, store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	clusters := buildClusters(t, sys, cls, 2)

	// The ranking probe trips the dead donor's breaker; the swap lands on
	// the healthy one without a Put ever reaching the dead device.
	if _, err := sys.SwapOut(clusters[0]); err != nil {
		t.Fatal(err)
	}
	if !sys.TransportSnapshot().Devices[deadName].BreakerOpen {
		t.Fatal("breaker not open after failed selection probe")
	}

	// While the device is down, probing reports nothing recovered.
	if got := sys.ProbeDevices(context.Background()); len(got) != 0 {
		t.Fatalf("probe of dead device recovered %v", got)
	}

	// The link comes back: one sweep closes the breaker and restores the
	// device to selection.
	dead.FailNext(store.OpPut, 0)
	dead.FailNext(store.OpStats, 0)
	got := sys.ProbeDevices(context.Background())
	if len(got) != 1 || got[0] != deadName {
		t.Fatalf("recovered = %v", got)
	}
	if sys.TransportSnapshot().Devices[deadName].BreakerOpen {
		t.Fatal("breaker still open after recovery sweep")
	}
	ev, err := sys.SwapOut(clusters[1])
	if err != nil {
		t.Fatal(err)
	}
	if ev.Device != deadName {
		t.Fatalf("recovered device not selected again (shipped to %q)", ev.Device)
	}
}
