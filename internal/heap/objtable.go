package heap

import "math/bits"

// objTable is the heap's resident set: an open-addressed index from ObjID to
// object, and a dense list of the same objects. Get and the collector's mark
// phase resolve an id with one probe sequence and no hashing of a Go map; the
// sweep walks the dense list, which holds residents only.
//
// The index is linear-probed from the id's home (see home), deletes by
// shifting later entries of a probe run back (no tombstones) and grows at 3/4
// load. It never shrinks: its size is bounded by the peak resident count,
// whatever the number of ids ever minted, and a heap that swaps the same
// clusters out and back in reuses its slots instead of rebuilding them.
//
// The dense list is split in two: list[:young] holds what was resident at the
// last collection (age), list[young:] what was added since, in the order it
// was added, so a young pass sweeps the tail alone. Each object records its
// position in the list. Removing an object from the tail moves the last entry
// into the hole; removing one from the head moves the head's last entry into
// the hole and then the list's last entry into the slot that frees, so both
// parts stay contiguous.
//
// The caller holds the heap owner's lock.
type objTable struct {
	slots []objSlot // power-of-two length; an id of NilID marks an empty slot
	shift uint8     // 64 - log2(len(slots))
	list  []*Object // the residents, o.pos indexing o
	young uint32    // list[young:] was added since the last age
}

const gone = ^uint32(0) // pos of an object the table no longer holds

type objSlot struct {
	id ObjID
	o  *Object
}

// fibonacci is 2^64 divided by the golden ratio: multiplying by it spreads
// consecutive values over the top bits, which home takes as the slot index.
const fibonacci = 0x9E3779B97F4A7C15

// runBits is the log2 of the length of the runs of consecutive ids home keeps
// together.
const runBits = 3

// home returns the slot an id's probe sequence starts at. Ids are taken in
// aligned runs of 1<<runBits: a run's number is spread over the slot array by
// a Fibonacci hash to an aligned block of as many slots, and each id of the
// run homes in its own slot of the block. Objects allocated together get
// consecutive ids, so a walk over them reads adjacent slots instead of one
// cache line per probe. The slot array is never shorter than a block.
func (t *objTable) home(id ObjID) int {
	return int(uint64(id>>runBits)*fibonacci>>(t.shift+runBits))<<runBits | int(id&(1<<runBits-1))
}

// get returns the resident object with the given id, or nil.
func (t *objTable) get(id ObjID) *Object {
	if len(t.slots) == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	for i := t.home(id); ; i = (i + 1) & mask {
		switch t.slots[i].id {
		case id:
			return t.slots[i].o
		case NilID:
			return nil
		}
	}
}

// put adds o, whose id must be neither NilID nor resident.
func (t *objTable) put(o *Object) {
	if 4*(len(t.list)+1) > 3*len(t.slots) {
		t.grow()
	}
	t.insert(o)
	o.pos = uint32(len(t.list))
	t.list = append(t.list, o)
}

// insert places o in the index only.
func (t *objTable) insert(o *Object) {
	mask := len(t.slots) - 1
	i := t.home(o.id)
	for t.slots[i].id != NilID {
		i = (i + 1) & mask
	}
	t.slots[i] = objSlot{o.id, o}
}

// grow doubles the index and re-homes every resident.
func (t *objTable) grow() {
	n := 2 * len(t.slots)
	if n == 0 {
		n = 8
	}
	t.slots = make([]objSlot, n)
	t.shift = uint8(64 - bits.TrailingZeros(uint(n)))
	for _, o := range t.list {
		t.insert(o)
	}
}

// del removes and returns the resident object with the given id, or nil.
func (t *objTable) del(id ObjID) *Object {
	if len(t.slots) == 0 {
		return nil
	}
	mask := len(t.slots) - 1
	i := t.home(id)
	for t.slots[i].id != id {
		if t.slots[i].id == NilID {
			return nil
		}
		i = (i + 1) & mask
	}
	o := t.slots[i].o
	// Close the hole: walk the probe run after it and move back every entry
	// whose home does not lie cyclically in (hole, j], so each stays
	// reachable from its home without crossing an empty slot.
	for j := (i + 1) & mask; t.slots[j].id != NilID; j = (j + 1) & mask {
		k := t.home(t.slots[j].id)
		if (i <= j && i < k && k <= j) || (i > j && (i < k || k <= j)) {
			continue
		}
		t.slots[i] = t.slots[j]
		i = j
	}
	t.slots[i] = objSlot{}

	hole := o.pos
	if hole < t.young {
		t.young--
		t.move(t.young, hole)
		hole = t.young
	}
	last := uint32(len(t.list) - 1)
	if hole != last {
		t.move(last, hole)
	}
	t.list[last] = nil
	t.list = t.list[:last]
	o.pos = gone
	return o
}

// move puts the list entry at from into position to.
func (t *objTable) move(from, to uint32) {
	o := t.list[from]
	t.list[to] = o
	o.pos = to
}

// age makes every resident old: the next entries added form the young tail.
func (t *objTable) age() { t.young = uint32(len(t.list)) }

// added returns the residents added since the last age.
func (t *objTable) added() []*Object { return t.list[t.young:] }
