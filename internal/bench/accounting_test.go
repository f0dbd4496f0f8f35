package bench

import (
	"strings"
	"testing"

	"objectswap/internal/heap"
)

// TestDeviceByteAccountingPinned pins the accounted size of the two object
// shapes the ledger's workloads are made of, as literals. The accounting
// models the constrained device's slot and header, not Go's memory layout:
// changing how heap.Value is laid out in Go must move none of these bytes, or
// heap pressure, eviction order, swapins_per_kop and collections_per_kop
// would drift with it.
func TestDeviceByteAccountingPinned(t *testing.T) {
	task := heap.NewClass("Task",
		heap.FieldDef{Name: "title", Kind: heap.KindString},
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
	)
	for _, tc := range []struct {
		name  string
		class *heap.Class
		field string
		value heap.Value
		bare  int64 // freshly allocated, every field nil
		want  int64 // payload set and next aimed at another object
	}{
		{"BenchNode with a 64 B payload", NodeClass(), "payload", heap.Bytes(make([]byte, DefaultPayload)), 64, 128},
		{"Task with a 128 B title", task, "title", heap.Str(strings.Repeat("x", 128)), 64, 192},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := heap.New(0)
			other, err := h.New(tc.class)
			if err != nil {
				t.Fatal(err)
			}
			o, err := h.New(tc.class)
			if err != nil {
				t.Fatal(err)
			}
			if got := o.Size(); got != tc.bare {
				t.Fatalf("fresh object accounts %d B, want %d", got, tc.bare)
			}
			o.MustSet(tc.field, tc.value)
			o.MustSet("next", other.RefTo())
			if got := o.Size(); got != tc.want {
				t.Fatalf("object accounts %d B, want %d", got, tc.want)
			}
			if got := h.Used(); got != tc.bare+tc.want {
				t.Fatalf("heap accounts %d B, want %d", got, tc.bare+tc.want)
			}

			// A reload accounts the same object the same way.
			var b heap.Batch
			copy(b.Add(o.ID(), tc.class), []heap.Value{o.Field(0), o.Field(1)})
			h2 := heap.New(0)
			objs, err := h2.InstallBatch(&b)
			if err != nil {
				t.Fatal(err)
			}
			if got := objs[0].Size(); got != tc.want {
				t.Fatalf("installed object accounts %d B, want %d", got, tc.want)
			}
		})
	}
}
