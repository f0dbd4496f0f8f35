package wire

import (
	"encoding/binary"
	"errors"
	"testing"

	"objectswap/internal/heap"
)

// A frame flagged the way an older build flagged a delta (bit 1), whose body
// carries that build's delta header with clusterIDLen + baseKeyLen >
// strBytes but each individually <= strBytes. The flag is reserved now: every
// entry point refuses the frame with ErrBadFrame before any reader sees the
// body, and nothing panics.
func TestReviewDeltaArenaPanic(t *testing.T) {
	body := []byte{}
	body = binary.AppendUvarint(body, 8)         // clusterIDLen
	body = binary.AppendUvarint(body, 1)         // docVersion
	body = binary.AppendUvarint(body, 0)         // nObjects
	body = binary.AppendUvarint(body, 0)         // nFields
	body = binary.AppendUvarint(body, 0)         // nListItems
	body = binary.AppendUvarint(body, 10)        // strBytes
	body = binary.AppendUvarint(body, 0)         // blobBytes
	body = binary.AppendUvarint(body, 8)         // baseKeyLen
	body = binary.AppendUvarint(body, 0)         // nRemoved
	body = append(body, []byte("0123456789")...) // 10-byte string arena
	frame := []byte{magic0, magic1, magic2, frameVersion, 0x02}
	frame = binary.AppendUvarint(frame, uint64(len(body)))
	frame = append(frame, body...)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("PANIC: %v", r)
		}
	}()
	if _, err := Detect(frame); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("Detect = %v, want ErrBadFrame", err)
	}
	if _, err := Decode(frame, nil); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("Decode = %v, want ErrBadFrame", err)
	}
	if _, err := Stage(frame, heap.NewRegistry()); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("Stage = %v, want ErrBadFrame", err)
	}
}

// Overflow strBytes+blobBytes so the sum check passes.
func TestReviewOverflowPanic(t *testing.T) {
	body := []byte{}
	body = binary.AppendUvarint(body, 0)          // clusterIDLen
	body = binary.AppendUvarint(body, 1)          // docVersion
	body = binary.AppendUvarint(body, 0)          // nObjects
	body = binary.AppendUvarint(body, 0)          // nFields
	body = binary.AppendUvarint(body, 0)          // nListItems
	body = binary.AppendUvarint(body, ^uint64(0)) // strBytes = 2^64-1
	// choose blobBytes so sum wraps to <= remaining; remaining depends on padding
	body = binary.AppendUvarint(body, 1) // blobBytes -> sum wraps to 0
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("PANIC: %v", r)
		}
	}()
	err := readBody(body, false, &docSink{})
	t.Logf("err=%v", err)
}
