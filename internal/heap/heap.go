package heap

import (
	"errors"
	"fmt"
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
	objects map[ObjID]*Object
	roots   map[string]Value
	pins    map[ObjID]int

	finalizers map[ObjID][]func(ObjID)

	// Collector state, guarded by mu: an object is marked in the current pass
	// when its mark word equals epoch, and work is the mark phase's scan
	// list, kept between passes so a collection allocates nothing.
	epoch uint64
	work  []*Object

	// writeObserver, when set, is invoked after every successful field
	// write with the written object's id (replication uses it for dirty
	// tracking). Invoked outside heap locks. observerSuspend > 0 silences
	// it (middleware-internal writes such as swap-in reinstallation are not
	// user mutations). extraObservers are additional independent hooks (the
	// swapping runtime's delta dirty tracking) that SetWriteObserver does not
	// replace. The observer slots live under their own lock so that the
	// per-write dispatch check never contends with allocation and lookup
	// traffic on h.mu — with the swap core sharded, field writes from many
	// swap shards land here concurrently.
	obsMu           sync.RWMutex
	writeObserver   func(ObjID)
	extraObservers  []func(ObjID)
	observerSuspend int
	// accessObservers fire on every observed object access — both field
	// writes (dispatched alongside the write observers) and explicit
	// NoteAccess calls from the method/field dispatch path. They feed the
	// telemetry plane's heat tracking and share observerSuspend so that
	// middleware-internal traffic (swap-in reinstallation) never reads as
	// application heat.
	accessObservers []func(ObjID)

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
		capacity:   capacity,
		objects:    make(map[ObjID]*Object),
		roots:      make(map[string]Value),
		pins:       make(map[ObjID]int),
		finalizers: make(map[ObjID][]func(ObjID)),
		nursery:    make(map[ObjID]int),
	}
}

// SetWriteObserver installs a hook invoked after every successful field
// write. Pass nil to remove it.
func (h *Heap) SetWriteObserver(fn func(ObjID)) {
	h.obsMu.Lock()
	defer h.obsMu.Unlock()
	h.writeObserver = fn
}

// AddWriteObserver registers an additional write observer that coexists with
// the SetWriteObserver slot (which historically belongs to replication
// write-back). Observers cannot be removed; register once per heap.
func (h *Heap) AddWriteObserver(fn func(ObjID)) {
	if fn == nil {
		return
	}
	h.obsMu.Lock()
	defer h.obsMu.Unlock()
	h.extraObservers = append(h.extraObservers, fn)
}

// observeWrite dispatches to the write observers, if any. A write is also
// an access, so the access observers fire too.
func (h *Heap) observeWrite(id ObjID) {
	h.obsMu.RLock()
	fn := h.writeObserver
	extra := h.extraObservers
	access := h.accessObservers
	if h.observerSuspend > 0 {
		fn, extra, access = nil, nil, nil
	}
	h.obsMu.RUnlock()
	if fn != nil {
		fn(id)
	}
	for _, e := range extra {
		e(id)
	}
	for _, a := range access {
		a(id)
	}
}

// AddAccessObserver registers a hook invoked on every observed object
// access (field writes plus NoteAccess reads). Observers cannot be removed;
// register once per heap. SuspendWriteObserver silences these too.
func (h *Heap) AddAccessObserver(fn func(ObjID)) {
	if fn == nil {
		return
	}
	h.obsMu.Lock()
	defer h.obsMu.Unlock()
	h.accessObservers = append(h.accessObservers, fn)
}

// NoteAccess reports a read-side access (method dispatch, direct field
// read) to the access observers. It is a no-op when none are registered or
// while observers are suspended, so read paths pay only an RLock.
func (h *Heap) NoteAccess(id ObjID) {
	h.obsMu.RLock()
	access := h.accessObservers
	if h.observerSuspend > 0 {
		access = nil
	}
	h.obsMu.RUnlock()
	for _, a := range access {
		a(id)
	}
}

// SuspendWriteObserver silences the write observer until the returned
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
	if _, resident := h.objects[id]; resident {
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
	return len(h.objects)
}

// StatsSnapshot returns current occupancy and lifetime counters.
func (h *Heap) StatsSnapshot() Stats {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return Stats{
		Capacity:    h.Capacity(),
		Used:        h.Used(),
		Objects:     len(h.objects),
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
	return h.newObject(c, false)
}

// NewPrivileged allocates like New but may use the middleware reserve. The
// swapping runtime uses it for proxies and replacement-objects so that
// freeing memory never deadlocks on the memory it is trying to free.
func (h *Heap) NewPrivileged(c *Class) (*Object, error) {
	return h.newObject(c, true)
}

func (h *Heap) newObject(c *Class, privileged bool) (*Object, error) {
	if c == nil {
		return nil, errors.New("heap: New: nil class")
	}
	size := int64(objectOverhead) + int64(c.NumFields())*valueOverhead
	var err error
	if privileged {
		err = h.reserve(size)
	} else {
		err = h.reserveApp(size)
	}
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	h.nextID++
	id := ObjID(h.nextID)
	o := &Object{
		id:     id,
		class:  c,
		heap:   h,
		fields: c.ops.NewFieldVector(),
		size:   size,
	}
	h.objects[id] = o
	h.allocated.Add(1)
	if h.nurseryGrace > 0 {
		h.nursery[id] = h.nurseryGrace
	}
	h.mu.Unlock()
	return o, nil
}

// NewAt installs one zero-valued object with a caller-chosen ID: the
// single-object form of InstallBatch, which is what swap-in and checkpoint
// restore use to put back whole clusters. The ID must not collide with a
// resident object; the internal ID counter advances past it so fresh
// allocations never collide either.
func (h *Heap) NewAt(id ObjID, c *Class) (*Object, error) {
	if c == nil {
		return nil, errors.New("heap: NewAt: nil class")
	}
	objs, err := h.InstallBatch([]Staged{{ID: id, Class: c, Fields: c.ops.NewFieldVector()}})
	if err != nil {
		return nil, err
	}
	return objs[0], nil
}

// Staged is one object of a batch install: the identity it is restored
// under, its class, and its complete field vector.
type Staged struct {
	ID     ObjID
	Class  *Class
	Fields []Value // len == Class.NumFields(), taken over by the heap
}

// InstallBatch makes every staged object resident under its original identity
// in one critical section, or none of them: the mirror of Free, used by
// swap-in, checkpoint restore and the baseline comparators to put a whole
// cluster back. The batch's bytes are reserved once against the application
// share of the budget, never the middleware reserve: restored objects are
// application data, and repeated reloads must not squeeze out the very
// machinery (replacement-objects, proxies) that makes the next eviction
// possible. An identity that is already resident, a field vector of the wrong
// length or a value its field cannot hold fails the batch and leaves Used,
// residency and the nursery exactly as found. The objects are returned in
// batch order; the heap owns their field vectors from here on. Write
// observers do not fire: restoring state is not a mutation.
func (h *Heap) InstallBatch(batch []Staged) ([]*Object, error) {
	objs := make([]Object, len(batch))
	var total int64
	for i := range batch {
		s := &batch[i]
		if s.Class == nil {
			return nil, errors.New("heap: InstallBatch: nil class")
		}
		if s.ID == NilID {
			return nil, errors.New("heap: InstallBatch: nil id")
		}
		if len(s.Fields) != s.Class.NumFields() {
			return nil, fmt.Errorf("heap: InstallBatch: @%d has %d fields, class %s declares %d",
				s.ID, len(s.Fields), s.Class.Name, s.Class.NumFields())
		}
		size := int64(objectOverhead)
		for j := range s.Fields {
			if def := s.Class.fields[j]; !assignable(def.Kind, s.Fields[j].kind) {
				return nil, fmt.Errorf("%w: field %s.%s is %s, installing %s",
					ErrBadKind, s.Class.Name, def.Name, def.Kind, s.Fields[j].kind)
			}
			size += s.Fields[j].size()
		}
		objs[i] = Object{id: s.ID, class: s.Class, heap: h, fields: s.Fields, size: size}
		total += size
	}
	if err := h.reserveApp(total); err != nil {
		return nil, err
	}
	out := make([]*Object, len(objs))
	h.mu.Lock()
	for i := range objs {
		o := &objs[i]
		if _, exists := h.objects[o.id]; exists {
			for j := 0; j < i; j++ {
				delete(h.objects, objs[j].id)
			}
			h.mu.Unlock()
			h.release(total)
			return nil, fmt.Errorf("heap: InstallBatch: object %d already resident", o.id)
		}
		h.objects[o.id] = o
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
	o, ok := h.objects[id]
	h.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: @%d", ErrNoSuchObject, id)
	}
	return o, nil
}

// Contains reports whether id is resident.
func (h *Heap) Contains(id ObjID) bool {
	h.mu.RLock()
	_, ok := h.objects[id]
	h.mu.RUnlock()
	return ok
}

// Remove detaches an object immediately, without running finalizers (it is an
// explicit middleware action, not a collection). Pending finalizers for the
// id are discarded. Used by baseline comparators and to roll back a
// half-built allocation; Object-Swapping proper detaches a cluster by
// reference patching and reclaims its shipped members with Free, which does
// run finalizers, the moment the swap-out commits.
func (h *Heap) Remove(id ObjID) error {
	h.mu.Lock()
	o, ok := h.objects[id]
	if !ok {
		h.mu.Unlock()
		return fmt.Errorf("%w: @%d", ErrNoSuchObject, id)
	}
	delete(h.objects, id)
	delete(h.finalizers, id)
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

// OnFinalize registers fn to run (synchronously, at the end of the Collect or
// Free that reclaims it, outside the heap lock) when the object is
// reclaimed. The paper uses finalizers on swap-cluster-proxies to purge the
// SwappingManager's weak-reference tables.
func (h *Heap) OnFinalize(id ObjID, fn func(ObjID)) {
	if fn == nil || id == NilID {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.finalizers[id] = append(h.finalizers[id], fn)
}

// IDs returns the sorted ids of all resident objects (test/diagnostic aid).
func (h *Heap) IDs() []ObjID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	ids := make([]ObjID, 0, len(h.objects))
	for id := range h.objects {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
