package heap

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
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
type Heap struct {
	capacity int64 // read/written atomically
	headroom int64 // middleware reserve; read/written atomically
	used     int64 // atomic

	mu      sync.RWMutex
	nextID  uint64
	objects objTable
	roots   map[string]Value
	pins    map[ObjID]int

	// Collector state, guarded by mu: an object is marked in the current pass
	// when its mark word equals epoch, and work is the mark phase's scan
	// list, kept between passes so a collection allocates nothing.
	epoch uint32
	work  []*Object

	// swept is the buffer a pass reports CollectStats.Swept in, sized once
	// to the largest pass so far; free holds, by slot count, the swept
	// swap-cluster-proxy blocks newObject reissues. A pass moves the previous
	// pass's proxies from swept to free before it marks, so a block is
	// reissued only once its Swept report has lapsed. Neither shrinks: the
	// pool plus the live proxies never exceed the peak proxy residency.
	swept []*Object
	free  [maxInlineFields + 1][]*Object

	// writeObservers are invoked after every successful write to an
	// application object's field (Object.SetField) with its id — the swapping
	// runtime's dirty and heat tracking, replication write-back — in
	// registration order and outside heap locks. observerSuspend > 0 silences
	// them (writes that restore rather than mutate, such as re-mediation).
	// They live under their own lock so that the per-write dispatch check
	// never contends with allocation and lookup traffic on h.mu.
	obsMu           sync.RWMutex
	writeObservers  []func(ObjID)
	observerSuspend int

	// nursery grants newly allocated objects a grace period of N collection
	// cycles before they become collectable, protecting host-held references
	// that have not yet been anchored in the managed graph (the analogue of
	// JNI local references). Disabled (0) by default.
	nurseryGrace int
	nursery      map[ObjID]int

	// Lifetime counters are monotonic and independent of any map state, so
	// they are plain atomics: bumping them never extends a h.mu critical
	// section, and StatsSnapshot reads them without blocking allocators.
	// The `used` byte counter (above) deliberately stays a single exact
	// CAS-updated word instead of sharded counters: CheckInvariants demands
	// it equal the live-byte sum to the byte, and the reserve path needs an
	// exact read-modify-write against capacity.
	allocated   atomic.Uint64
	collections atomic.Uint64
	reclaimed   atomic.Uint64

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
		roots:    make(map[string]Value),
		pins:     make(map[ObjID]int),
		nursery:  make(map[ObjID]int),
	}
}

// AddWriteObserver registers a hook invoked after every successful write to
// an application object's field. Observers cannot be removed; register once.
func (h *Heap) AddWriteObserver(fn func(ObjID)) {
	if fn == nil {
		return
	}
	h.obsMu.Lock()
	defer h.obsMu.Unlock()
	h.writeObservers = append(h.writeObservers, fn)
}

// observeWrite dispatches to the write observers, if any.
func (h *Heap) observeWrite(id ObjID) {
	h.obsMu.RLock()
	observers := h.writeObservers
	if h.observerSuspend > 0 {
		observers = nil
	}
	h.obsMu.RUnlock()
	for _, fn := range observers {
		fn(id)
	}
}

// SuspendWriteObserver silences the write observers until the returned
// resume function is called (nestable). Middleware uses it around writes
// that restore rather than mutate state.
func (h *Heap) SuspendWriteObserver() (resume func()) {
	h.obsMu.Lock()
	h.observerSuspend++
	h.obsMu.Unlock()
	return func() {
		h.obsMu.Lock()
		h.observerSuspend--
		h.obsMu.Unlock()
	}
}

// SetNurseryGrace grants future allocations a grace of n collection cycles
// before they may be reclaimed, protecting them while host code wires them
// into the graph. 0 (the default) disables the nursery.
func (h *Heap) SetNurseryGrace(n int) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nurseryGrace = n
}

// TouchNursery refreshes an object's nursery grace, keeping a host-held
// object (such as an iteration cursor) alive across collections for as long
// as it is actively used. A no-op when the nursery is disabled or the object
// is not resident.
func (h *Heap) TouchNursery(id ObjID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.nurseryGrace <= 0 {
		return
	}
	if h.objects.get(id) != nil {
		h.nursery[id] = h.nurseryGrace
	}
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

// Len returns the number of resident objects.
func (h *Heap) Len() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.objects.list)
}

// StatsSnapshot returns current occupancy and lifetime counters.
func (h *Heap) StatsSnapshot() Stats {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return Stats{
		Capacity:    h.Capacity(),
		Used:        h.Used(),
		Objects:     len(h.objects.list),
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
	for {
		used := atomic.LoadInt64(&h.used)
		next := used + delta
		if limit > 0 && next > limit {
			return fmt.Errorf("%w: need %d bytes, used %d of %d",
				ErrOutOfMemory, delta, used, limit)
		}
		if atomic.CompareAndSwapInt64(&h.used, used, next) {
			return nil
		}
	}
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

// newObject allocates an object of class c whose leading fields are init. A
// swap-cluster-proxy reuses the block of one a collection swept, when one
// waits (see CollectStats.Swept), under the h.mu hold it takes anyway: the
// block comes back with a fresh id, its fields zeroed and then set, and mark 0.
func (h *Heap) newObject(c *Class, privileged bool, init []Value) (*Object, error) {
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
	if !pooled(c) {
		o = allocObject(n)
		o.heap = h
		o.fill(c, size, init)
	}
	h.mu.Lock()
	if o == nil {
		o = h.reissue(n)
		o.fill(c, size, init)
	}
	h.nextID++
	o.id = ObjID(h.nextID)
	h.objects.put(o)
	h.allocated.Add(1)
	if h.nurseryGrace > 0 {
		h.nursery[o.id] = h.nurseryGrace
	}
	h.mu.Unlock()
	return o, nil
}

// pooled reports whether objects of class c come from, and go back to, the
// heap's pool of swept blocks: swap-cluster-proxies of an inline layout, and
// nothing else. Application objects, replacement-objects and object-fault
// proxies may be held past their sweep by host code the heap cannot see.
func pooled(c *Class) bool {
	return c.Special == SpecialSCProxy && c.NumFields() <= maxInlineFields
}

// reissue pops a swept block with n slots from the pool, or allocates a fresh
// one when none waits. The caller holds h.mu exclusively.
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
// bytes, mark 0, fields zeroed and then set to init. Its id and its heap are
// the caller's to set.
func (o *Object) fill(c *Class, size int64, init []Value) {
	o.class, o.size, o.mark = c, size, 0
	c.zeroFields(o.fields)
	copy(o.fields, init)
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

// NewAt installs one zero-valued object with a caller-chosen ID: a batch of
// one, through the InstallBatch that swap-in and checkpoint restore use to
// put back whole clusters. The ID must not collide with a resident object;
// the internal ID counter advances past it so fresh allocations never
// collide either.
func (h *Heap) NewAt(id ObjID, c *Class) (*Object, error) {
	if c == nil {
		return nil, errors.New("heap: NewAt: nil class")
	}
	b := MakeBatch(1, c.NumFields())
	b.Add(id, c)
	objs, err := h.InstallBatch(&b)
	if err != nil {
		return nil, err
	}
	return objs[0], nil
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
		c.zeroFields(fields)
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
// possible. An identity that is already resident, a nil class or id, or a
// value its field cannot hold fails the batch and leaves Used, residency and
// the nursery exactly as found; so does a swap-cluster-proxy member, which
// is minted, never installed. The objects are returned in batch order; on
// success the heap owns them and the batch is left empty. Write observers do
// not fire: restoring state is not a mutation.
func (h *Heap) InstallBatch(b *Batch) ([]*Object, error) {
	objs := b.objs
	var total int64
	for i := range objs {
		o := &objs[i]
		if o.class == nil {
			return nil, errors.New("heap: InstallBatch: nil class")
		}
		if o.id == NilID {
			return nil, errors.New("heap: InstallBatch: nil id")
		}
		if pooled(o.class) {
			// A batch member's block is its whole batch's: it must never
			// join the pool of swept proxy blocks.
			return nil, fmt.Errorf("heap: InstallBatch: %s is a swap-cluster-proxy class, minted by NewPrivileged, never installed", o.class.Name)
		}
		size := int64(objectOverhead)
		for j := range o.fields {
			if def := o.class.fields[j]; !assignable(def.Kind, o.fields[j].kind) {
				return nil, fmt.Errorf("%w: field %s.%s is %s, installing %s",
					ErrBadKind, o.class.Name, def.Name, def.Kind, o.fields[j].kind)
			}
			size += o.fields[j].size()
		}
		o.heap, o.size = h, size
		total += size
	}
	if err := h.reserveApp(total); err != nil {
		return nil, err
	}
	out := make([]*Object, len(objs))
	h.mu.Lock()
	for i := range objs {
		o := &objs[i]
		if h.objects.get(o.id) != nil {
			for j := i - 1; j >= 0; j-- {
				h.objects.del(objs[j].id)
			}
			h.mu.Unlock()
			h.release(total)
			return nil, fmt.Errorf("heap: InstallBatch: object %d already resident", o.id)
		}
		h.objects.put(o)
		out[i] = o
	}
	for _, o := range out {
		if uint64(o.id) > h.nextID {
			h.nextID = uint64(o.id)
		}
		if h.nurseryGrace > 0 {
			h.nursery[o.id] = h.nurseryGrace
		}
	}
	h.allocated.Add(uint64(len(out)))
	h.mu.Unlock()
	*b = Batch{}
	return out, nil
}

// EnsureIDAbove advances the allocation counter so future ids exceed id —
// used when restoring a checkpoint whose recorded objects (including ones
// currently swapped out to devices) must keep their identities collision-free.
func (h *Heap) EnsureIDAbove(id ObjID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if uint64(id) > h.nextID {
		h.nextID = uint64(id)
	}
}

// Get resolves a reference to its resident object.
func (h *Heap) Get(id ObjID) (*Object, error) {
	h.mu.RLock()
	o := h.objects.get(id)
	h.mu.RUnlock()
	if o == nil {
		return nil, fmt.Errorf("%w: @%d", ErrNoSuchObject, id)
	}
	return o, nil
}

// Contains reports whether id is resident.
func (h *Heap) Contains(id ObjID) bool {
	h.mu.RLock()
	o := h.objects.get(id)
	h.mu.RUnlock()
	return o != nil
}

// Remove detaches an object immediately. It is an explicit middleware action,
// not a collection, so no CollectStats reports it. Used by baseline
// comparators and to roll back a half-built allocation; Object-Swapping
// proper detaches a cluster by reference patching and reclaims its shipped
// members with Free the moment the swap-out commits.
func (h *Heap) Remove(id ObjID) error {
	h.mu.Lock()
	o := h.objects.del(id)
	if o == nil {
		h.mu.Unlock()
		return fmt.Errorf("%w: @%d", ErrNoSuchObject, id)
	}
	delete(h.pins, id)
	delete(h.nursery, id)
	h.mu.Unlock()
	h.release(o.Size())
	return nil
}

// SetRoot installs a named root (a global variable / static field — the
// paper's swap-cluster-0 state). Assigning a nil Value keeps the root
// declared but pointing nowhere.
func (h *Heap) SetRoot(name string, v Value) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.roots[name] = v
}

// Root returns the named root value.
func (h *Heap) Root(name string) (Value, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	v, ok := h.roots[name]
	return v, ok
}

// DelRoot removes a named root entirely.
func (h *Heap) DelRoot(name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	delete(h.roots, name)
}

// RootNames returns the sorted names of declared roots.
func (h *Heap) RootNames() []string {
	h.mu.RLock()
	defer h.mu.RUnlock()
	names := make([]string, 0, len(h.roots))
	for n := range h.roots {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Pin marks an object as referenced by middleware bookkeeping so the
// collector treats it as live even when unreachable from application roots.
// Pins are counted; each Pin needs a matching Unpin.
func (h *Heap) Pin(id ObjID) {
	if id == NilID {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pins[id]++
}

// Unpin removes one pin from the object.
func (h *Heap) Unpin(id ObjID) {
	if id == NilID {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.pins[id] <= 1 {
		delete(h.pins, id)
	} else {
		h.pins[id]--
	}
}

// IDs returns the sorted ids of all resident objects (test/diagnostic aid).
func (h *Heap) IDs() []ObjID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	ids := make([]ObjID, len(h.objects.list))
	for i, o := range h.objects.list {
		ids[i] = o.id
	}
	slices.Sort(ids)
	return ids
}
