package core

import (
	"math/bits"

	"objectswap/internal/heap"
)

// keyTable is the shared-proxy index's table of packed keys (proxyKey.pack):
// an open-addressed slot array, linear-probed from a Fibonacci hash of the
// key, whose removal shifts the later entries of a probe run back (no
// tombstones), as the heap's objTable does. It grows at 3/4 load and never
// shrinks, so it is sized by the peak count of shared proxies, and a lookup
// is a multiply and a probe, not a Go map's hashing. The zero key, which no
// proxy has (its target would be heap.NilID), marks an empty slot.
type keyTable struct {
	slots []keySlot // power-of-two length
	shift uint8     // 64 - log2(len(slots))
	n     int
}

type keySlot struct {
	key uint64
	pid heap.ObjID
}

// fibonacci is 2^64 divided by the golden ratio: multiplying by it spreads
// neighbouring keys over the top bits, which home takes as the slot index.
const fibonacci = 0x9E3779B97F4A7C15

func (t *keyTable) home(key uint64) int { return int(key * fibonacci >> t.shift) }

// get returns the proxy held under key.
func (t *keyTable) get(key uint64) (heap.ObjID, bool) {
	if len(t.slots) == 0 {
		return heap.NilID, false
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		switch t.slots[i].key {
		case key:
			return t.slots[i].pid, true
		case 0:
			return heap.NilID, false
		}
	}
}

// set holds pid under key, in place of any proxy held there.
func (t *keyTable) set(key uint64, pid heap.ObjID) {
	if 4*(t.n+1) > 3*len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].key != 0 && t.slots[i].key != key {
		i = (i + 1) & mask
	}
	if t.slots[i].key == 0 {
		t.n++
	}
	t.slots[i] = keySlot{key, pid}
}

// grow doubles the slot array and re-homes every entry.
func (t *keyTable) grow() {
	old := t.slots
	n := max(2*len(old), 8)
	t.slots = make([]keySlot, n)
	t.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	mask := n - 1
	for _, s := range old {
		if s.key != 0 {
			i := t.home(s.key)
			for t.slots[i].key != 0 {
				i = (i + 1) & mask
			}
			t.slots[i] = s
		}
	}
}

// drop removes key's entry if it still holds pid.
func (t *keyTable) drop(key uint64, pid heap.ObjID) {
	if len(t.slots) == 0 {
		return
	}
	mask := len(t.slots) - 1
	i := t.home(key)
	for t.slots[i].key != key {
		if t.slots[i].key == 0 {
			return
		}
		i = (i + 1) & mask
	}
	if t.slots[i].pid != pid {
		return
	}
	// Close the hole: walk the probe run after it and move back every entry
	// whose home does not lie cyclically in (hole, j], so each stays
	// reachable from its home without crossing an empty slot.
	for j := (i + 1) & mask; t.slots[j].key != 0; j = (j + 1) & mask {
		k := t.home(t.slots[j].key)
		if (i <= j && i < k && k <= j) || (i > j && (i < k || k <= j)) {
			continue
		}
		t.slots[i] = t.slots[j]
		i = j
	}
	t.slots[i] = keySlot{}
	t.n--
}
