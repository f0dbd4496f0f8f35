package objectswap

import (
	"context"
	"testing"
	"time"

	"objectswap/internal/obs"
	"objectswap/internal/store"
)

// TestRenewLeasesNowKeepsSwappedClustersAlive drives the owner side of the
// donor lease GC through the facade: swapped clusters' keys are renewed on
// their (lease-tracking) donor, so a sweep after the renewal expires only
// what the owner stopped claiming.
func TestRenewLeasesNowKeepsSwappedClustersAlive(t *testing.T) {
	now := time.Unix(5000, 0)
	clock := func() time.Time { return now }
	donor := store.NewLeaseGC(store.NewVersioned(store.NewMem(0), 1), 30*time.Second, clock)

	sys, err := New(Config{HeapCapacity: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	// Through AttachDevice: the transport decorator must pass the Leaser
	// capability through, or the facade loop cannot see it.
	if err := sys.AttachDevice("donor", donor); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	clusters := buildClusters(t, sys, cls, 2)
	for _, c := range clusters {
		if _, err := sys.SwapOut(c); err != nil {
			t.Fatal(err)
		}
	}
	if got := donor.LeaseCount(); got != 2 {
		t.Fatalf("leases after swap-out = %d, want 2", got)
	}

	// 20s later the owner renews; 20s after that only an unclaimed orphan
	// (stored out-of-band, never renewed) lapses.
	if err := donor.Put(context.Background(), "orphan", []byte("stale")); err != nil {
		t.Fatal(err)
	}
	now = now.Add(20 * time.Second)
	if renewed := sys.RenewLeasesNow(context.Background()); renewed != 2 {
		t.Fatalf("RenewLeasesNow renewed %d keys, want 2", renewed)
	}
	now = now.Add(20 * time.Second) // orphan: 40s > TTL; renewed keys: 20s in

	expired, err := donor.ExpireLapsed(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(expired) != 1 || expired[0] != "orphan" {
		t.Fatalf("expired = %v, want only the orphan", expired)
	}

	// The swapped clusters survive and still fault back in.
	for i := range clusters {
		root, err := sys.MustRoot(string(rune('a' + i)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Invoke(root, "title"); err != nil {
			t.Fatalf("reload cluster %d after sweep: %v", clusters[i], err)
		}
	}
}

// TestLeaseRenewLoopRuns starts the background loop and observes at least
// one renewal tick without any explicit RenewLeasesNow call.
func TestLeaseRenewLoopRuns(t *testing.T) {
	donor := store.NewLeaseGC(store.NewMem(0), time.Hour, nil)
	sys, err := New(Config{HeapCapacity: 1 << 20, LeaseRenewEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	if err := sys.AttachDevice("donor", donor); err != nil {
		t.Fatal(err)
	}
	cls := sys.MustRegisterClass(taskClass())
	c := buildClusters(t, sys, cls, 1)[0]
	if _, err := sys.SwapOut(c); err != nil {
		t.Fatal(err)
	}

	key := sys.Clusters()[len(sys.Clusters())-1].Key
	deadlineAt := func() (time.Time, bool) { return donor.Deadline(key) }
	first, ok := deadlineAt()
	if !ok {
		t.Fatalf("no lease for swapped key %q", key)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if d, ok := deadlineAt(); ok && d.After(first) {
			break // the loop renewed: the deadline moved forward
		}
		if time.Now().After(deadline) {
			t.Fatal("lease loop never renewed the swapped key")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRetainedCopyLease: a resident cluster's retained copy lives on a
// lease-GC'ing donor like any swapped payload. Renewed by the facade loop it
// outlasts three TTLs and the cluster leaves on it without shipping; left
// alone, the deadline the owner recorded for it (ship time + the TTL the donor
// advertises in Stats) passes, and the owner ships in full rather than leave
// on a copy the donor has expired.
func TestRetainedCopyLease(t *testing.T) {
	const ttl = 30 * time.Second
	for _, renew := range []bool{true, false} {
		name := "left alone"
		if renew {
			name = "renewed"
		}
		t.Run(name, func(t *testing.T) {
			clock := obs.NewVirtualClock(time.Unix(5000, 0))
			donor := store.NewLeaseGC(store.NewMem(0), ttl, clock.Now)
			sys, err := New(Config{HeapCapacity: 1 << 20, Clock: clock})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()
			if err := sys.AttachDevice("donor", donor); err != nil {
				t.Fatal(err)
			}
			cls := sys.MustRegisterClass(taskClass())
			c := buildClusters(t, sys, cls, 1)[0]
			first, err := sys.SwapOut(c)
			if err != nil {
				t.Fatal(err)
			}
			read := func() {
				t.Helper()
				root, err := sys.MustRoot("a")
				if err != nil {
					t.Fatal(err)
				}
				if res, err := sys.Invoke(root, "title"); err != nil {
					t.Fatalf("read through the root: %v", err)
				} else if title, _ := res[0].Str(); title != "x" {
					t.Fatalf("title reads %q, want %q", title, "x")
				}
			}
			read() // faults the cluster back: resident on the retained copy

			for elapsed := time.Duration(0); elapsed < 3*ttl; elapsed += ttl / 2 {
				clock.Advance(ttl / 2)
				if renew {
					if n := sys.RenewLeasesNow(context.Background()); n != 1 {
						t.Fatalf("RenewLeasesNow renewed %d keys, want the resident cluster's retained copy", n)
					}
				}
				if _, err := donor.ExpireLapsed(context.Background()); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := donor.Get(context.Background(), first.Key); (err == nil) != renew {
				t.Fatalf("donor's copy after 3 TTLs: %v (renewed: %v)", err, renew)
			}

			ev, err := sys.SwapOut(c)
			if err != nil {
				t.Fatal(err)
			}
			if ev.Clean != renew || (ev.Key == first.Key) != renew {
				t.Fatalf("swap-out after 3 TTLs (renewed: %v) = %+v, first key %q", renew, ev, first.Key)
			}
			read()
			if n := sys.Runtime().Manager().PendingDrops(); n != 0 {
				t.Fatalf("%d drops pending: dropping a key the donor already expired is not a failure", n)
			}
		})
	}
}
