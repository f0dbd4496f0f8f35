package heap

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// SpecialKind tags middleware-generated classes so the swapping runtime can
// recognize its own artifacts during dispatch, GC integration and
// serialization. Application classes are SpecialNone.
type SpecialKind uint8

const (
	// SpecialNone marks ordinary application classes.
	SpecialNone SpecialKind = iota
	// SpecialSCProxy marks swap-cluster-proxy classes: the permanent proxies
	// that mediate every reference crossing a swap-cluster boundary.
	SpecialSCProxy
	// SpecialReplacement marks replacement-objects: the per-swapped-cluster
	// arrays of references left behind by swap-out.
	SpecialReplacement
	// SpecialObjProxy marks incremental-replication proxies (object-fault
	// handlers for objects not yet replicated to the device).
	SpecialObjProxy
	// SpecialSurrogate marks per-object surrogates used only by the
	// baseline offloading comparator (Messer et al. style).
	SpecialSurrogate
)

// String returns a short tag for the special kind.
func (s SpecialKind) String() string {
	switch s {
	case SpecialNone:
		return "app"
	case SpecialSCProxy:
		return "scproxy"
	case SpecialReplacement:
		return "replacement"
	case SpecialObjProxy:
		return "objproxy"
	case SpecialSurrogate:
		return "surrogate"
	default:
		return "special?"
	}
}

// FieldDef declares one field of a class.
type FieldDef struct {
	Name string
	Kind Kind
}

// Accepts reports whether a value of kind k may be assigned to the field:
// its declared kind, or nil for the reference-like kinds.
func (f FieldDef) Accepts(k Kind) bool { return assignable(f.Kind, k) }

// Call carries the context of one method invocation: the invoker to use for
// nested calls (so middleware interposition applies transitively), the
// receiver, and the arguments.
type Call struct {
	RT   Invoker
	Self *Object
	Args []Value
}

// Arg returns the i-th argument or nil Value when absent.
func (c *Call) Arg(i int) Value {
	if i < 0 || i >= len(c.Args) {
		return Nil()
	}
	return c.Args[i]
}

// Method is the body of one method. Returning an error aborts the invocation
// chain.
type Method func(c *Call) ([]Value, error)

// zeroValue returns the initial value of a field of kind k, matching managed
// runtime semantics: primitives are zeroed, reference-like kinds are nil.
func zeroValue(k Kind) Value {
	switch k {
	case KindInt:
		return Int(0)
	case KindFloat:
		return Float(0)
	case KindBool:
		return Bool(false)
	case KindString:
		return Str("")
	default:
		return Nil()
	}
}

// Class describes a managed type: named fields and a method table. A Class is
// immutable after registration with a Registry.
type Class struct {
	Name    string
	Special SpecialKind

	fields     []FieldDef
	fieldIndex map[string]int
	methods    map[string]Method

	// ops is the class's behavior plane. NewClass installs defaultOps (the
	// closure-table/field-map synthesis); generated classes replace it via
	// BindOps. Never nil after NewClass.
	ops ClassOps
}

// NewClass builds a class with the given fields. Use AddMethod before
// registering it.
func NewClass(name string, fields ...FieldDef) *Class {
	c := &Class{
		Name:       name,
		fields:     append([]FieldDef(nil), fields...),
		fieldIndex: make(map[string]int, len(fields)),
		methods:    make(map[string]Method),
	}
	for i, f := range fields {
		if _, dup := c.fieldIndex[f.Name]; dup {
			panic(fmt.Sprintf("heap: class %s: duplicate field %s", name, f.Name))
		}
		c.fieldIndex[f.Name] = i
	}
	c.ops = defaultOps{c}
	return c
}

// BindOps replaces the class's behavior plane with a specialized (generated)
// implementation. It panics when the ops disagree with the declared fields —
// a generated file that drifted from its schema must fail at registration,
// not corrupt shipments later — or when an ops method collides with a
// closure method already added.
func (c *Class) BindOps(ops ClassOps) *Class {
	if ops == nil {
		panic(fmt.Sprintf("heap: class %s: BindOps(nil)", c.Name))
	}
	for i, f := range c.fields {
		if slot, ok := ops.FieldIndex(f.Name); !ok || slot != i {
			panic(fmt.Sprintf("heap: class %s: ops field %q resolves to (%d,%v), declared slot %d",
				c.Name, f.Name, slot, ok, i))
		}
	}
	if n := len(ops.NewFieldVector()); n != len(c.fields) {
		panic(fmt.Sprintf("heap: class %s: ops field vector has %d slots, class declares %d",
			c.Name, n, len(c.fields)))
	}
	for _, name := range ops.MethodNames() {
		if _, dup := c.methods[name]; dup {
			panic(fmt.Sprintf("heap: class %s: ops method %s collides with closure method", c.Name, name))
		}
	}
	c.ops = ops
	return c
}

// Ops returns the class's behavior plane.
func (c *Class) Ops() ClassOps { return c.ops }

// AddMethod attaches a method body under name and returns the class for
// chaining. Redefining an existing method panics: classes model compiled
// code, not dynamic monkey-patching.
func (c *Class) AddMethod(name string, m Method) *Class {
	if m == nil {
		panic("heap: nil method " + name)
	}
	if _, dup := c.methods[name]; dup {
		panic(fmt.Sprintf("heap: class %s: duplicate method %s", c.Name, name))
	}
	if c.ops != nil && c.ops.Has(name) {
		panic(fmt.Sprintf("heap: class %s: method %s already handled by bound ops", c.Name, name))
	}
	c.methods[name] = m
	return c
}

// Method looks up a closure-table method body by name. Methods handled by
// bound ops are not visible here; dispatch through Invoke instead.
func (c *Class) Method(name string) (Method, bool) {
	m, ok := c.methods[name]
	return m, ok
}

// HasMethod reports whether Invoke can dispatch name on this class.
func (c *Class) HasMethod(name string) bool {
	if c.ops.Has(name) {
		return true
	}
	_, ok := c.methods[name]
	return ok
}

// Invoke dispatches method through the class's behavior plane: bound ops
// first, the closure table as fallback. This is THE dispatch primitive — the
// direct runtime, the swapping runtime and the baseline comparators all call
// it, so generated and synthesized classes are interchangeable everywhere.
func (c *Class) Invoke(method string, call *Call) ([]Value, error) {
	if res, ok, err := c.ops.Dispatch(method, call); ok {
		return res, err
	}
	if m, ok := c.methods[method]; ok {
		return m(call)
	}
	return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, c.Name, method)
}

// MethodNames returns the sorted method names — the class's public interface,
// which swap-cluster-proxy classes replicate (the obicomp analogue). Methods
// handled by bound ops and closure-table methods appear alike.
func (c *Class) MethodNames() []string {
	seen := make(map[string]bool, len(c.methods))
	names := make([]string, 0, len(c.methods))
	for n := range c.methods {
		seen[n] = true
		names = append(names, n)
	}
	// Dedup against ops: defaultOps mirrors the closure table itself.
	for _, n := range c.ops.MethodNames() {
		if !seen[n] {
			seen[n] = true
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// NumFields returns the number of declared fields.
func (c *Class) NumFields() int { return len(c.fields) }

// Field returns the i-th field definition.
func (c *Class) Field(i int) FieldDef { return c.fields[i] }

// FieldIndex resolves a field name to its slot index through the behavior
// plane (generated ops resolve with a static switch instead of a map).
func (c *Class) FieldIndex(name string) (int, bool) {
	return c.ops.FieldIndex(name)
}

// Fields returns a copy of the field definitions.
func (c *Class) Fields() []FieldDef {
	return append([]FieldDef(nil), c.fields...)
}

// ErrUnknownClass reports a class name absent from a registry.
var ErrUnknownClass = errors.New("heap: unknown class")

// Registry maps class names to classes. Both devices in a replication pair
// and the swap-in path resolve classes by name through a registry, mirroring
// how class files / assemblies name types.
type Registry struct {
	mu      sync.RWMutex
	classes map[string]*Class
}

// NewRegistry returns an empty class registry.
func NewRegistry() *Registry {
	return &Registry{classes: make(map[string]*Class)}
}

// Register adds a class. Registering a second class under the same name is an
// error (assemblies do not redefine types).
func (r *Registry) Register(c *Class) error {
	if c == nil || c.Name == "" {
		return errors.New("heap: register: nil or unnamed class")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.classes[c.Name]; dup {
		return fmt.Errorf("heap: register: class %q already registered", c.Name)
	}
	r.classes[c.Name] = c
	return nil
}

// MustRegister is Register that panics on error, for program initialization.
func (r *Registry) MustRegister(c *Class) *Class {
	if err := r.Register(c); err != nil {
		panic(err)
	}
	return c
}

// Lookup resolves a class by name.
func (r *Registry) Lookup(name string) (*Class, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	c, ok := r.classes[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownClass, name)
	}
	return c, nil
}

// Names returns the sorted registered class names.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.classes))
	for n := range r.classes {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
