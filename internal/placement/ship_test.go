package placement

import (
	"slices"
	"testing"

	"objectswap/internal/store"
)

// TestShipFailover pins how a shipment walks past rejecting donors, whichever
// goroutine makes each put: a K = 1 shipment whose top donor rejects extends
// to the next; a K = 2, quorum 1 shipment lands on what accepts, extending
// only when a spare donor is left; NoExtend confines the shipment to the top
// K; and every rejecting donor is named once in Attempted, in rank order,
// and reported once to OnFailure. No donor is asked twice.
func TestShipFailover(t *testing.T) {
	for _, tc := range []struct {
		name          string
		donors        int
		replicas      int
		quorum        int
		noExtend      bool
		fail          []int // ranks whose Put fails
		wantReplicas  []int // ranks
		wantAttempted []int
		wantErr       bool
	}{
		{"K=1, top donor rejects", 3, 1, 0, false, []int{0}, []int{1}, []int{0}, false},
		{"K=1, top two reject", 3, 1, 0, false, []int{0, 1}, []int{2}, []int{0, 1}, false},
		{"K=1, every donor rejects", 2, 1, 0, false, []int{0, 1}, nil, []int{0, 1}, true},
		{"K=2 quorum 1, one rejects, no spare", 2, 2, 1, false, []int{0}, []int{1}, []int{0}, false},
		{"K=2 quorum 1, one rejects, a spare", 3, 2, 1, false, []int{1}, []int{0, 2}, []int{1}, false},
		{"K=3, two reject, one spare", 4, 3, 0, false, []int{0, 2}, []int{1, 3}, []int{0, 2}, false},
		{"NoExtend K=1", 3, 1, 0, true, []int{0}, nil, []int{0}, true},
		{"NoExtend K=2 quorum 1", 3, 2, 1, true, []int{0}, []int{1}, []int{0}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			names := []string{"d1", "d2", "d3", "d4"}[:tc.donors]
			order := Order("kf", names)
			r := store.NewRegistry(store.SelectMostFree)
			ranked := make([]*store.Flaky, len(order))
			for i, n := range order {
				ranked[i] = store.NewFlaky(store.NewMem(0), 1)
				if err := r.Add(n, ranked[i]); err != nil {
					t.Fatal(err)
				}
			}
			for _, i := range tc.fail {
				ranked[i].FailNext(store.OpPut, -1)
			}
			byRank := func(ranks []int) []string {
				var out []string
				for _, i := range ranks {
					out = append(out, order[i])
				}
				return out
			}

			var reported []string
			rep, err := New(r, Options{}).Ship(ctx, ShipRequest{Key: "kf", Data: []byte("x"),
				Replicas: tc.replicas, Quorum: tc.quorum, NoExtend: tc.noExtend,
				OnFailure: func(device string, _ error) { reported = append(reported, device) }})
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, want failure %v", err, tc.wantErr)
			}
			if want := byRank(tc.wantReplicas); !slices.Equal(rep.Replicas, want) {
				t.Fatalf("replicas = %v, want %v", rep.Replicas, want)
			}
			if want := byRank(tc.wantAttempted); !slices.Equal(rep.Attempted, want) {
				t.Fatalf("attempted = %v, want %v", rep.Attempted, want)
			}
			slices.Sort(reported)
			want := byRank(tc.wantAttempted)
			slices.Sort(want)
			if !slices.Equal(reported, want) {
				t.Fatalf("OnFailure reported %v, want each of %v once", reported, want)
			}
			asked := append(slices.Clone(tc.wantReplicas), tc.wantAttempted...)
			for i, d := range ranked {
				wantCalls := 0
				if slices.Contains(asked, i) {
					wantCalls = 1
				}
				if got := d.Calls(store.OpPut); got != wantCalls {
					t.Fatalf("donor ranked %d (%s) was asked %d times, want %d", i, order[i], got, wantCalls)
				}
			}
		})
	}
}
