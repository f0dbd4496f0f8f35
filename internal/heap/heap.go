package heap

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync/atomic"

	"objectswap/internal/obs"
)

// Errors reported by heap operations.
var (
	// ErrOutOfMemory reports that an allocation or field growth would exceed
	// the heap's configured capacity — the constrained-device condition that
	// triggers Object-Swapping.
	ErrOutOfMemory = errors.New("heap: out of memory")
	// ErrNoSuchObject reports a dangling reference: the target is not (or is
	// no longer) resident in this heap.
	ErrNoSuchObject = errors.New("heap: no such object")
	// ErrNoSuchMethod reports an invocation of an undeclared method.
	ErrNoSuchMethod = errors.New("heap: no such method")
	// ErrNoSuchField reports access to an undeclared field.
	ErrNoSuchField = errors.New("heap: no such field")
)

// Stats summarizes heap occupancy and lifetime counters.
type Stats struct {
	Capacity    int64  // configured byte capacity; 0 = unlimited
	Used        int64  // accounted live bytes
	Objects     int    // resident object count
	Allocated   uint64 // objects ever allocated
	Collections uint64 // completed GC cycles
	Reclaimed   uint64 // objects ever reclaimed by GC
}

// UsedFraction returns Used/Capacity, or 0 when capacity is unlimited.
func (s Stats) UsedFraction() float64 {
	if s.Capacity <= 0 {
		return 0
	}
	return float64(s.Used) / float64(s.Capacity)
}

// Heap is a byte-accounted managed object store with named roots, middleware
// pins, and a mark-sweep collector. It models the VM heap of one constrained
// device.
//
// A Heap has no lock of its own: the caller holds its owner's lock (the
// swapping runtime's, or a DirectRuntime's) across every call but the byte
// budget and counter reads (Capacity, Reserve, Used, Len, StatsSnapshot).
type Heap struct {
	capacity int64 // read/written atomically
	headroom int64 // middleware reserve; read/written atomically
	used     int64 // atomic

	nextID  uint64
	objects objTable
	roots   map[string]Value
	pins    map[ObjID]int

	// Collector state: an object is marked in the current pass
	// when its mark word equals epoch, and work is the mark phase's scan
	// list, kept between passes so a collection allocates nothing. Marks are
	// sticky: an object a pass marked stays marked, old, until a full pass
	// advances the epoch; one with any other mark (0 for a new object) is
	// young. epoch starts at 1 so that a new object is young from the start.
	// Every pass leaves every resident marked, and the objects that appear
	// after it sit in the young tail of objects' resident list.
	epoch uint32
	work  []*Object

	// What the next young pass marks from (see CollectYoung): remembered, the
	// young objects a write stored into an old object or a root since the
	// last pass, and installs, the batches installed since then. Both are
	// kept between passes and emptied by every pass; overflowed records that
	// the barrier stopped listing, so the next young pass runs full.
	remembered []ObjID
	overflowed bool
	installs   [][]Object

	// swept is the buffer a pass sweeps into and hands its owner's purge,
	// sized once to the largest pass so far and emptied by the pass. free
	// holds, by slot count, the blocks of reclaimed pooled objects newObject
	// reissues: a pass's swept ones join after its purge, and Free and Remove
	// add theirs at once. Neither shrinks: the pool plus the live objects of
	// the pooled classes never exceed their peak residency.
	swept []*Object
	free  [maxInlineFields + 1][]*Object

	// writeObservers are invoked after every successful write to an
	// application object's field (Object.SetField) with its id — the swapping
	// runtime's dirty and heat tracking, replication write-back — in
	// registration order, under the owner's lock the writer holds.
	// observerSuspend > 0 silences them (writes that restore rather than
	// mutate, such as re-mediation).
	writeObservers  []func(*Object)
	observerSuspend int

	// Lifetime counters are atomics, so that gauges and the memory monitor
	// read them, and the byte budget above, on other goroutines without the
	// owner's lock. removed counts the objects Remove detached, so the
	// resident count is allocated - reclaimed - removed (Len).
	allocated   atomic.Uint64
	collections atomic.Uint64
	reclaimed   atomic.Uint64
	removed     atomic.Uint64

	// owner is the runtime the heap belongs to (RegisterOwner).
	owner Owner

	// GC observability hooks, installed by Instrument (nil when the heap is
	// not instrumented). The clock keeps cycle timings deterministic in
	// virtual-time tests.
	gcClock   obs.Clock
	gcSeconds *obs.Histogram
	gcFreed   *obs.Counter
}

// New returns an empty heap. capacity is the byte budget of the device;
// capacity <= 0 means unlimited (useful for master/server nodes).
func New(capacity int64) *Heap {
	return &Heap{
		capacity: capacity,
		epoch:    1,
		roots:    make(map[string]Value),
		pins:     make(map[ObjID]int),
	}
}

// Owner is what the runtime that owns a heap gives it. Any field may be nil.
type Owner struct {
	// Held asserts that the caller holds the owner's lock. Every entry point
	// that reads or writes the heap's tables or an object runs it first, in
	// the lockcount build (LockCount) and never otherwise.
	Held func()
	// Roots returns the ids every pass marks from beside the heap's own
	// roots: what the owner holds that the heap cannot see, such as the
	// swapping runtime's invocation stack. The pass keeps nothing of it.
	Roots func() []ObjID
	// Purge is handed what a pass swept, detached with their fields intact,
	// so the owner drops every record it keeps of them. The order is the
	// heap's resident list (a young pass walks its young tail alone), a
	// function of the heap's history of allocations, installs, reclamations
	// and passes, so two heaps built by the same sequence of calls sweep the
	// same objects in the same order. The list and the
	// objects in it are valid only during the call: then the blocks of the
	// pooled ones (see pooled) join the pool the next allocation reissues
	// from. Purge may allocate, but not collect.
	Purge func(swept []*Object)
}

// RegisterOwner registers the heap's owner, once, before the heap is
// shared. A heap without one marks from its own roots and purges nothing.
func (h *Heap) RegisterOwner(o Owner) { h.owner = o }

func (h *Heap) held() {
	if LockCount && h.owner.Held != nil {
		h.owner.Held()
	}
}

// AddWriteObserver registers a hook invoked after every successful write to
// an application object's field, with the writer's lock held. Observers
// cannot be removed; register once.
func (h *Heap) AddWriteObserver(fn func(*Object)) {
	if fn != nil {
		h.writeObservers = append(h.writeObservers, fn)
	}
}

// observeWrite dispatches to the write observers, if any.
func (h *Heap) observeWrite(o *Object) {
	if h.observerSuspend > 0 {
		return
	}
	for _, fn := range h.writeObservers {
		fn(o)
	}
}

// SuspendWriteObserver silences the write observers until the returned
// resume function is called (nestable). Middleware uses it around writes
// that restore rather than mutate state.
func (h *Heap) SuspendWriteObserver() (resume func()) {
	h.observerSuspend++
	return func() { h.observerSuspend-- }
}

// SetCapacity adjusts the byte budget. Shrinking below current usage is
// allowed: subsequent allocations fail until memory is freed (that is exactly
// the memory-pressure situation swapping resolves).
func (h *Heap) SetCapacity(capacity int64) {
	atomic.StoreInt64(&h.capacity, capacity)
}

// Capacity returns the configured byte budget (0 = unlimited).
func (h *Heap) Capacity() int64 { return atomic.LoadInt64(&h.capacity) }

// SetReserve sets the middleware headroom: application allocations (New,
// InstallBatch) stop at Capacity-Reserve, while middleware allocations
// (NewPrivileged, field growth) may use the full budget. This models the VM
// headroom that lets the swapping machinery allocate replacement-objects and
// proxies even when the application has exhausted its share — freeing memory
// must not itself require application-grade memory.
func (h *Heap) SetReserve(reserve int64) {
	atomic.StoreInt64(&h.headroom, reserve)
}

// Reserve returns the middleware headroom.
func (h *Heap) Reserve() int64 { return atomic.LoadInt64(&h.headroom) }

// Used returns the accounted live bytes.
func (h *Heap) Used() int64 { return atomic.LoadInt64(&h.used) }

// Len returns the number of resident objects, from the lifetime counters.
func (h *Heap) Len() int {
	reclaimed, removed := h.reclaimed.Load(), h.removed.Load()
	return int(h.allocated.Load() - reclaimed - removed)
}

// StatsSnapshot returns current occupancy and lifetime counters.
func (h *Heap) StatsSnapshot() Stats {
	return Stats{
		Capacity:    h.Capacity(),
		Used:        h.Used(),
		Objects:     h.Len(),
		Allocated:   h.allocated.Load(),
		Collections: h.collections.Load(),
		Reclaimed:   h.reclaimed.Load(),
	}
}

// reserve accounts delta bytes against the full budget (middleware grade).
func (h *Heap) reserve(delta int64) error {
	return h.reserveWithin(delta, atomic.LoadInt64(&h.capacity))
}

// reserveApp accounts delta bytes against the application share of the
// budget (capacity minus the middleware reserve).
func (h *Heap) reserveApp(delta int64) error {
	limit := atomic.LoadInt64(&h.capacity)
	if limit > 0 {
		if limit -= atomic.LoadInt64(&h.headroom); limit < 0 {
			limit = 1 // reserve swallows everything: all app allocs fail
		}
	}
	return h.reserveWithin(delta, limit)
}

func (h *Heap) reserveWithin(delta, limit int64) error {
	used := atomic.LoadInt64(&h.used)
	if limit > 0 && used+delta > limit {
		return fmt.Errorf("%w: need %d bytes, used %d of %d", ErrOutOfMemory, delta, used, limit)
	}
	atomic.StoreInt64(&h.used, used+delta)
	return nil
}

// release returns delta bytes to the budget.
func (h *Heap) release(delta int64) {
	atomic.AddInt64(&h.used, -delta)
}

// New allocates an object of class c with zero-valued fields. It fails with
// ErrOutOfMemory when the object does not fit the application share of the
// budget (capacity minus middleware reserve).
func (h *Heap) New(c *Class) (*Object, error) {
	return h.newObject(c, false, nil)
}

// NewPrivileged allocates like New but may use the middleware reserve. The
// swapping runtime uses it for proxies and replacement-objects so that
// freeing memory never deadlocks on the memory it is trying to free. The
// object's leading fields are set to init, each checked against its
// declaration and accounted, before it is resident, so no holder of its id
// or of its block ever sees it without them: a swap-cluster-proxy is minted
// with its slots this way.
func (h *Heap) NewPrivileged(c *Class, init ...Value) (*Object, error) {
	return h.newObject(c, true, init)
}

// newObject allocates an object of class c whose leading fields are init. An
// object of a pooled class reuses a block of its slot count from the pool,
// when one waits (see pooled): the block comes back with a fresh id, its
// leading fields set, the rest zeroed, and mark 0.
func (h *Heap) newObject(c *Class, privileged bool, init []Value) (*Object, error) {
	h.held()
	if c == nil {
		return nil, errors.New("heap: New: nil class")
	}
	n := c.NumFields()
	if len(init) > n {
		return nil, fmt.Errorf("heap: New: %d initial values for the %d fields of %s", len(init), n, c.Name)
	}
	size := int64(objectOverhead) + int64(n)*valueOverhead
	for i, v := range init {
		if def := c.fields[i]; !assignable(def.Kind, v.kind) {
			return nil, fmt.Errorf("%w: field %s.%s is %s, initializing %s",
				ErrBadKind, c.Name, def.Name, def.Kind, v.kind)
		}
		size += v.size() - valueOverhead
	}
	var err error
	if privileged {
		err = h.reserve(size)
	} else {
		err = h.reserveApp(size)
	}
	if err != nil {
		return nil, err
	}
	var o *Object
	if pooled(c) {
		o = h.reissue(n)
	} else {
		o = allocObject(n)
		o.heap = h
	}
	o.fill(c, size, init)
	h.nextID++
	o.id = ObjID(h.nextID)
	h.objects.put(o)
	h.allocated.Add(1)
	return o, nil
}

// pooled reports whether objects of class c come from, and go back to, the
// heap's pool of reclaimed blocks: swap-cluster-proxies and
// replacement-objects of an inline layout, the runtime's own blocks, which
// only the runtime holds, and nothing else. Application objects and
// object-fault proxies may be held past their reclamation by host code the
// heap cannot see.
func pooled(c *Class) bool {
	return (c.Special == SpecialSCProxy || c.Special == SpecialReplacement) && c.NumFields() <= maxInlineFields
}

// reissue pops a reclaimed block with n slots from the pool, or allocates a
// fresh one when none waits.
func (h *Heap) reissue(n int) *Object {
	free := h.free[n]
	last := len(free) - 1
	if last < 0 {
		o := allocObject(n)
		o.heap = h
		return o
	}
	o := free[last]
	free[last] = nil
	h.free[n] = free[:last]
	return o
}

// fill readies an unpublished block as an object of class c: size accounted
// bytes, mark 0, its leading fields init and the rest zeroed, each slot
// written once. Its id and its heap are the caller's to set.
func (o *Object) fill(c *Class, size int64, init []Value) {
	o.class, o.size, o.owner, o.mark = c, uint32(size), 0, 0
	c.zeroFields(o.fields, copy(o.fields, init))
}

// An object of a small class is one Go allocation: its header and its field
// array in one block, with fields pointing into it, so a proxy, a
// replacement-object or a two-slot application node costs the Go heap one
// object, as it costs the managed heap one. A class with more than
// maxInlineFields fields gets its vector separately.
const maxInlineFields = 4

type (
	object1 struct {
		Object
		slots [1]Value
	}
	object2 struct {
		Object
		slots [2]Value
	}
	object3 struct {
		Object
		slots [3]Value
	}
	object4 struct {
		Object
		slots [4]Value
	}
)

// allocObject returns an Object with n unset field slots.
func allocObject(n int) *Object {
	switch n {
	case 0:
		return new(Object)
	case 1:
		b := new(object1)
		b.fields = b.slots[:]
		return &b.Object
	case 2:
		b := new(object2)
		b.fields = b.slots[:]
		return &b.Object
	case 3:
		b := new(object3)
		b.fields = b.slots[:]
		return &b.Object
	case 4:
		b := new(object4)
		b.fields = b.slots[:]
		return &b.Object
	}
	return &Object{fields: make([]Value, n)}
}

// Batch stages a cluster for InstallBatch in the objects it will become: the
// members' headers share one array and their field vectors are carved from
// one slab of values, so a reloaded cluster costs the Go heap two
// allocations, not one per member. A member the slab has no room left for
// gets a vector of its own.
//
// The members die together as far as Go is concerned: a collected member's
// header and slots stay allocated until its last cluster-mate is collected
// too. The shared header array alone already did that, and through each
// header it held the member's vector; the slab adds no new retention.
type Batch struct {
	objs []Object
	slab []Value
}

// MakeBatch returns a batch with room for objects members and slots field
// values between them. Size it from counts the caller has already bounded:
// the slab is allocated up front, whatever the members turn out to need.
func MakeBatch(objects, slots int) Batch {
	return Batch{objs: make([]Object, 0, objects), slab: make([]Value, slots)}
}

// Add stages a member of class c under id and returns its field vector,
// zeroed as New zeroes one, for the caller to fill in: InstallBatch checks
// every value against its field. A nil class is staged as given and refused
// there.
func (b *Batch) Add(id ObjID, c *Class) []Value {
	var fields []Value
	if c != nil {
		n := c.NumFields()
		if n <= len(b.slab) {
			fields, b.slab = b.slab[:n:n], b.slab[n:]
		} else {
			fields = make([]Value, n)
		}
		c.zeroFields(fields, 0)
	}
	b.objs = append(b.objs, Object{id: id, class: c, fields: fields})
	return fields
}

// Len returns the number of staged members.
func (b *Batch) Len() int { return len(b.objs) }

// ID returns the identity the i-th member is staged under.
func (b *Batch) ID(i int) ObjID { return b.objs[i].id }

// Class returns the i-th member's class.
func (b *Batch) Class(i int) *Class { return b.objs[i].class }

// Fields returns the i-th member's field vector, for the caller to write.
func (b *Batch) Fields(i int) []Value { return b.objs[i].fields }

// InstallBatch makes every staged member resident under its original
// identity in one critical section, or none of them: the mirror of Free, used
// by swap-in, checkpoint restore and the baseline comparators to put a whole
// cluster back. The batch's bytes are reserved once against the application
// share of the budget, never the middleware reserve: restored objects are
// application data, and repeated reloads must not squeeze out the very
// machinery (replacement-objects, proxies) that makes the next eviction
// possible. An identity that is already resident, a nil class or id, a
// value its field cannot hold, or a member past 4 GiB fails the batch and
// leaves Used and residency exactly as found; so does a member
// of a pooled class (a swap-cluster-proxy or a replacement-object), which is
// allocated, never installed. It returns how many objects it made resident;
// on success the heap owns them and the batch is left empty. Write observers
// do not fire: restoring state is not a mutation.
func (h *Heap) InstallBatch(b *Batch) (int, error) {
	h.held()
	objs := b.objs
	var total int64
	for i := range objs {
		o := &objs[i]
		if o.class == nil {
			return 0, errors.New("heap: InstallBatch: nil class")
		}
		if o.id == NilID {
			return 0, errors.New("heap: InstallBatch: nil id")
		}
		if pooled(o.class) {
			// A batch member's block is its whole batch's: it must never
			// join the pool.
			return 0, fmt.Errorf("heap: InstallBatch: %s is a pooled class, allocated by NewPrivileged, never installed", o.class.Name)
		}
		size := int64(objectOverhead)
		for j := range o.fields {
			if def := o.class.fields[j]; !assignable(def.Kind, o.fields[j].kind) {
				return 0, fmt.Errorf("%w: field %s.%s is %s, installing %s",
					ErrBadKind, o.class.Name, def.Name, def.Kind, o.fields[j].kind)
			}
			size += o.fields[j].size()
		}
		if size > math.MaxUint32 { // the header's size word
			return 0, fmt.Errorf("%w: %s object of %d bytes", ErrOutOfMemory, o.class.Name, size)
		}
		o.heap, o.size = h, uint32(size)
		total += size
	}
	if err := h.reserveApp(total); err != nil {
		return 0, err
	}
	for i := range objs {
		o := &objs[i]
		if h.objects.get(o.id) != nil {
			for j := i - 1; j >= 0; j-- {
				h.objects.del(objs[j].id)
			}
			h.release(total)
			return 0, fmt.Errorf("heap: InstallBatch: object %d already resident", o.id)
		}
		h.objects.put(o)
	}
	for i := range objs {
		o := &objs[i]
		o.mark = h.epoch // born old: an older object may name its id already
		if uint64(o.id) > h.nextID {
			h.nextID = uint64(o.id)
		}
	}
	// The batch is remembered once, so the next young pass marks what its
	// members reference; past one batch per resident the next pass runs full.
	if len(h.installs) < len(h.objects.list) {
		h.installs = append(h.installs, objs)
	} else {
		h.overflowed = true
	}
	h.allocated.Add(uint64(len(objs)))
	*b = Batch{}
	return len(objs), nil
}

// EnsureIDAbove advances the allocation counter so future ids exceed id —
// used when restoring a checkpoint whose recorded objects (including ones
// currently swapped out to devices) must keep their identities collision-free.
func (h *Heap) EnsureIDAbove(id ObjID) {
	if uint64(id) > h.nextID {
		h.nextID = uint64(id)
	}
}

// Get resolves a reference to its resident object.
func (h *Heap) Get(id ObjID) (*Object, error) {
	h.held()
	o := h.objects.get(id)
	if o == nil {
		return nil, fmt.Errorf("%w: @%d", ErrNoSuchObject, id)
	}
	return o, nil
}

// Contains reports whether id is resident.
func (h *Heap) Contains(id ObjID) bool { h.held(); return h.objects.get(id) != nil }

// Remove detaches an object immediately. It is an explicit middleware action,
// not a collection, so no CollectStats reports it; the block of a pooled
// object joins the pool at once, as Free's does. Used by baseline
// comparators and to roll back a half-built allocation or a failed
// swap-out's replacement-object; Object-Swapping proper detaches a cluster by
// reference patching and reclaims its shipped members with Free the moment
// the swap-out commits.
func (h *Heap) Remove(id ObjID) error {
	h.held()
	var st CollectStats
	o := h.unlink(id, &st)
	if o == nil {
		return fmt.Errorf("%w: @%d", ErrNoSuchObject, id)
	}
	h.unpinAll(id)
	h.pool(o)
	h.removed.Add(1)
	h.release(st.BytesFreed)
	return nil
}

// SetRoot installs a named root (a global variable / static field — the
// paper's swap-cluster-0 state). Assigning a nil Value keeps the root
// declared but pointing nowhere. A young object the root names is remembered
// for the next young pass, as a write into an old object's field is.
func (h *Heap) SetRoot(name string, v Value) {
	h.held()
	h.roots[name] = v
	h.remember(&v)
}

// Root returns the named root value.
func (h *Heap) Root(name string) (Value, bool) {
	h.held()
	v, ok := h.roots[name]
	return v, ok
}

// RootNames returns the sorted names of declared roots.
func (h *Heap) RootNames() []string {
	h.held()
	return slices.Sorted(maps.Keys(h.roots))
}

// Pin marks an object as referenced by middleware bookkeeping so the
// collector treats it as live even when unreachable from application roots.
// Pins are counted; each Pin needs a matching Unpin.
func (h *Heap) Pin(id ObjID) {
	h.held()
	if id != NilID {
		h.pins[id]++
	}
}

// Pinned reports whether the object holds a pin.
func (h *Heap) Pinned(id ObjID) bool { h.held(); return h.pins[id] > 0 }

// Unpin removes one pin from the object.
func (h *Heap) Unpin(id ObjID) {
	h.held()
	if id == NilID {
		return
	}
	if h.pins[id] <= 1 {
		delete(h.pins, id)
	} else {
		h.pins[id]--
	}
}

// IDs returns the sorted ids of all resident objects (test/diagnostic aid).
func (h *Heap) IDs() []ObjID {
	h.held()
	ids := make([]ObjID, len(h.objects.list))
	for i, o := range h.objects.list {
		ids[i] = o.id
	}
	slices.Sort(ids)
	return ids
}
