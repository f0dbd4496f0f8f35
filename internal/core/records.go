package core

// records is the cluster table's set of records, found by id with no
// hashing: an open-addressed slot array whose home for an id is the id
// itself, masked to the array's power-of-two length, and a list of the same
// records in id order.
//
// Cluster ids are minted in sequence, so the live ids of a table lie close
// together and each one sits in its home slot: a lookup is one load of the
// slot and a compare of the id of the record there. An id whose home is taken
// (a live id a multiple of the slot count away) probes linearly to the next
// free slot; removal shifts the later entries of its probe run back, as
// heap's objTable does, so no tombstone lengthens a probe. The slot array
// grows at 3/4 load and never shrinks, and the list is compacted once half
// of it is holes, so both are sized by the peak record count, not by the ids
// ever minted.
//
// The list holds the records in ascending id order, nil where one was removed
// since the last compaction, and each record knows its position in it
// (clusterState.pos): iteration walks it in id order with no sort. Removing
// the record iteration is at, or any other, is safe; adding one while an
// iteration runs is not, since adding may compact the list.
//
// The table always holds the root record, so get never sees an empty slot
// array. Only put and drop (state.go) add and remove records.
type records struct {
	slots []*clusterState // power-of-two length; nil marks an empty slot
	list  []*clusterState // id order; nil marks a removed record's place
	n     int             // records held
}

// get returns the record of cluster id, or nil.
func (s *records) get(id ClusterID) *clusterState {
	mask := uint32(len(s.slots) - 1)
	for i := uint32(id) & mask; ; i = (i + 1) & mask {
		if cs := s.slots[i]; cs == nil || cs.id == id {
			return cs
		}
	}
}

// len returns the number of records held.
func (s *records) len() int { return s.n }

// all yields every record in ascending id order.
func (s *records) all(yield func(*clusterState) bool) {
	for _, cs := range s.list {
		if cs != nil && !yield(cs) {
			return
		}
	}
}

// add inserts cs, whose id no record held has.
func (s *records) add(cs *clusterState) {
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
	}
	s.insert(cs)
	s.n++
	if len(s.list) >= 2*s.n {
		s.compact()
	}
	s.place(cs)
}

// insert puts cs in the slot array only.
func (s *records) insert(cs *clusterState) {
	mask := uint32(len(s.slots) - 1)
	i := uint32(cs.id) & mask
	for s.slots[i] != nil {
		i = (i + 1) & mask
	}
	s.slots[i] = cs
}

// grow doubles the slot array and re-homes every record.
func (s *records) grow() {
	n := max(2*len(s.slots), 8)
	s.slots = make([]*clusterState, n)
	for _, cs := range s.list {
		if cs != nil {
			s.insert(cs)
		}
	}
}

// place puts cs in the list at its place in id order: at the end for a
// freshly minted id, the highest yet, or in the hole or between the records
// its id falls among (a checkpoint restore may name ids in any order).
func (s *records) place(cs *clusterState) {
	i := len(s.list)
	for i > 0 && (s.list[i-1] == nil || s.list[i-1].id > cs.id) {
		i--
	}
	switch {
	case i == len(s.list):
		s.list = append(s.list, cs)
	case s.list[i] == nil:
		s.list[i] = cs
	default:
		s.list = append(s.list, nil)
		copy(s.list[i+1:], s.list[i:])
		s.list[i] = cs
		s.renumber(i + 1)
	}
	cs.pos = uint32(i)
}

// compact closes the list's holes in place, keeping the order.
func (s *records) compact() {
	live := s.list[:0]
	for _, cs := range s.list {
		if cs != nil {
			live = append(live, cs)
		}
	}
	clear(s.list[len(live):])
	s.list = live
	s.renumber(0)
}

// renumber records the position of every record of the list from i on.
func (s *records) renumber(i int) {
	for ; i < len(s.list); i++ {
		if cs := s.list[i]; cs != nil {
			cs.pos = uint32(i)
		}
	}
}

// remove takes cs, which the set holds, out of it.
func (s *records) remove(cs *clusterState) {
	mask := uint32(len(s.slots) - 1)
	i := uint32(cs.id) & mask
	for s.slots[i] != cs {
		i = (i + 1) & mask
	}
	// Close the hole: walk the probe run after it and move back every record
	// whose home does not lie cyclically in (hole, j], so each stays
	// reachable from its home without crossing an empty slot.
	for j := (i + 1) & mask; s.slots[j] != nil; j = (j + 1) & mask {
		k := uint32(s.slots[j].id) & mask
		if (i <= j && i < k && k <= j) || (i > j && (i < k || k <= j)) {
			continue
		}
		s.slots[i] = s.slots[j]
		i = j
	}
	s.slots[i] = nil
	s.list[cs.pos] = nil
	s.n--
}
