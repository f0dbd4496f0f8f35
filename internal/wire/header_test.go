package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"objectswap/internal/heap"
)

// withFieldCount returns a copy of the plain binary frame with its header's
// nFields replaced by nFields(old).
func withFieldCount(t *testing.T, frame []byte, nFields func(uint64) uint64) []byte {
	t.Helper()
	body, _, err := openFrame(frame)
	if err != nil {
		t.Fatal(err)
	}
	var head []uint64
	rest := body
	for len(head) < 4 { // clusterIDLen docVersion nObjects nFields
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			t.Fatal("short header")
		}
		head, rest = append(head, v), rest[n:]
	}
	head[3] = nFields(head[3])
	var out []byte
	for _, v := range head {
		out = binary.AppendUvarint(out, v)
	}
	return appendFrame(nil, 0, out, rest)
}

// TestHeaderFieldCountMisstated: the frame header's nFields sizes the staging
// slab a reload writes its members into, so a header that misstates it must
// not change what is installed. One that understates the records' fields is
// refused before anything is staged past the count; one that overstates them
// — by one, twice over, or by as many as half the body's bytes — installs
// exactly what the honest frame installs, whose slab is only larger.
func TestHeaderFieldCountMisstated(t *testing.T) {
	doc := testDoc(5)
	reg, ok := docClasses(doc)
	if !ok {
		t.Fatal("the fixture document is not one a heap could produce")
	}
	frame, err := Encode(FormatBinary, doc, nil)
	if err != nil {
		t.Fatal(err)
	}
	install := func(frame []byte) (*heap.Heap, error) {
		h := heap.New(0)
		staged, err := Stage(bytes.Clone(frame), reg)
		if err != nil {
			return h, err
		}
		_, err = staged.Install(h, newForeignRefs().decode)
		return h, err
	}

	short := withFieldCount(t, frame, func(n uint64) uint64 { return n - 1 })
	if _, err := install(short); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("header one field short: %v, want ErrBadFrame", err)
	}
	if _, err := Decode(short, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("header one field short, decoded: %v, want ErrBadFrame", err)
	}

	body, _, _ := openFrame(frame)
	for name, grow := range map[string]func(uint64) uint64{
		"one field over":   func(n uint64) uint64 { return n + 1 },
		"half the body":    func(uint64) uint64 { return uint64(len(body) / 2) },
		"twice the fields": func(n uint64) uint64 { return 2 * n },
	} {
		long := withFieldCount(t, frame, grow)
		got, err := install(long)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := install(frame) // sameHeapState collects both heaps
		if err != nil {
			t.Fatal(err)
		}
		sameHeapState(t, name, got, want)
	}
}
