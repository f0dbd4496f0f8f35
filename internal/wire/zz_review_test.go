package wire

import (
	"encoding/binary"
	"testing"
)

// Craft a delta frame body where clusterIDLen + baseKeyLen > strBytes but
// each individually <= strBytes.
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
	frame := []byte{magic0, magic1, magic2, frameVersion, flagDelta}
	frame = binary.AppendUvarint(frame, uint64(len(body)))
	frame = append(frame, body...)
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("PANIC: %v", r)
		}
	}()
	_, _, err := readBody(frame[5+1:], true, false, nil, &docSink{})
	t.Logf("err=%v", err)
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
	_, _, err := readBody(body, false, false, nil, &docSink{})
	t.Logf("err=%v", err)
}
