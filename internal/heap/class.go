package heap

import (
	"fmt"
	"slices"
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
	if names := [...]string{"app", "scproxy", "replacement", "objproxy", "surrogate"}; int(s) < len(names) {
		return names[s]
	}
	return "special?"
}

// FieldDef declares one field of a class.
type FieldDef struct {
	Name string
	Kind Kind
}

// Accepts reports whether a value of kind k may be assigned to the field:
// its declared kind, or nil for the reference-like kinds.
func (f FieldDef) Accepts(k Kind) bool { return assignable(f.Kind, k) }

// Call carries the context of one method invocation: the caller to make nested
// calls through (so middleware interposition applies transitively), the
// receiver, and the arguments.
//
// A Call belongs to the invoker that dispatched it, which hands the same Call
// to the next invocation at the same nesting depth (Frames). Each Call owns one
// value buffer, its frame's arena: the arguments of the method's nested calls,
// the results those calls return, and the results the method returns through
// Return all live there, so once the arena has grown a dispatch allocates no
// slice at all. It holds every result of one invocation until the method
// returns, so a body that makes many nested calls grows it, and it keeps the
// capacity it grew to.
//
// The lifetime rule: a Call, its Args and every result its nested calls return
// are valid until the method returns, and a method body must not keep any of
// them. A result handed to host code is valid until the host's next call
// through the same invoker, which may take it as that call's arguments; the
// swapping runtime keeps what it references live by its host-root rule
// (core.Runtime.Scope). A body may return Return's slice, Args or a slice of
// them, a nested call's result, or a fresh slice; all but the last allocate
// nothing.
type Call struct {
	RT   *Caller
	Self *Object
	Args []Value

	rt Caller // what RT points at
}

// Caller is the Invoker a method body calls out through: it forwards to the
// invoker that dispatched the body's Call. Invoke appends its arguments to the
// frame's arena, so the variadic array at the call site stays on the Go stack
// (through an interface it would escape) and the callee's Args are arena
// slots; the callee's results then replace those arguments in the arena.
type Caller struct {
	inv Invoker
	buf []Value // the frame's arena
}

var _ Invoker = (*Caller)(nil)

// Invoke calls method on the object target designates, through the frame's
// invoker, and returns the results from the frame's arena, where they stay
// valid until the calling method returns. They are copied there whatever the
// callee returned them in: its own frame's arena, which the next nested call
// reuses, its Args, or a fresh slice.
func (c *Caller) Invoke(target Value, method string, args ...Value) ([]Value, error) {
	mark := len(c.buf)
	c.buf = append(c.buf, args...)
	res, err := c.inv.Invoke(target, method, c.buf[mark:len(c.buf):len(c.buf)]...)
	c.buf = append(c.buf[:mark], res...)
	return c.buf[mark:len(c.buf):len(c.buf)], err
}

// Field reads a field of the designated object through the frame's invoker.
func (c *Caller) Field(target Value, name string) (Value, error) {
	return c.inv.Field(target, name)
}

// SetFieldValue writes a field of the designated object through the frame's
// invoker.
func (c *Caller) SetFieldValue(target Value, name string, v Value) error {
	return c.inv.SetFieldValue(target, name, v)
}

// Frames is an invoker's pool of Calls, one per nesting depth: the invocation
// at depth d gets the pool's d-th Call, set to its receiver and arguments, and
// releases it when it returns or panics. The pool keeps as many Calls as the
// deepest recursion it has served, so from then on dispatching a method
// allocates nothing. Frames is not synchronised: one goroutine dispatches
// through an invoker at a time.
type Frames struct {
	inv   Invoker
	calls []*Call
}

// NewFrames returns an empty pool whose Calls make nested calls through inv.
func NewFrames(inv Invoker) Frames { return Frames{inv: inv} }

// Enter returns the Call for an invocation of self at depth (1 for the
// outermost), holding args, with its arena reset. Host code may pass a result
// it got at this depth straight back as args: those values are moved to the
// front of the arena, and the invocation's nested calls append after them.
func (fs *Frames) Enter(depth int, self *Object, args []Value) *Call {
	for len(fs.calls) < depth {
		c := &Call{rt: Caller{inv: fs.inv}}
		c.RT = &c.rt
		fs.calls = append(fs.calls, c)
	}
	c := fs.calls[depth-1]
	c.rt.buf = c.rt.buf[:0]
	if i, ok := offset(args, c.rt.buf); ok {
		c.rt.buf = append(c.rt.buf, c.rt.buf[i:i+len(args)]...)
		args = c.rt.buf[:len(args):len(args)]
	}
	c.Self, c.Args = self, args
	return c
}

// Leave releases the Call at depth, whether or not one was entered there: it
// keeps no pointer to its receiver or its arguments, and its arena keeps only
// res, the invocation's results, when they live there — after a panic, when
// res is nil, it keeps nothing.
func (fs *Frames) Leave(depth int, res []Value) {
	if depth > len(fs.calls) {
		return
	}
	c := fs.calls[depth-1]
	c.Self, c.Args = nil, nil
	buf := c.rt.buf[:cap(c.rt.buf)]
	c.rt.buf = buf[:0]
	if i, ok := offset(res, buf); ok {
		clear(buf[:i])
		buf = buf[i+len(res):]
	}
	clear(buf)
}

// Arg returns the i-th argument or nil Value when absent.
func (c *Call) Arg(i int) Value {
	if i < 0 || i >= len(c.Args) {
		return Nil()
	}
	return c.Args[i]
}

// Return appends vals to the frame's arena and returns them from there: the
// way a method body returns its results without allocating. vals may be the
// Call's own Args or results of its nested calls.
func (c *Call) Return(vals ...Value) []Value {
	mark := len(c.rt.buf)
	c.rt.buf = append(c.rt.buf, vals...)
	return c.rt.buf[mark:len(c.rt.buf):len(c.rt.buf)]
}

// Method is the body of one method. Returning an error aborts the invocation
// chain.
type Method func(c *Call) ([]Value, error)

// zeroValue returns the initial value of a field of kind k, matching managed
// runtime semantics: primitives (the kinds up to KindString) are zeroed, a
// zero payload of their kind; reference-like kinds are nil.
func zeroValue(k Kind) Value {
	if k <= KindString {
		return Value{kind: k}
	}
	return Nil()
}

// Class describes a managed type: named fields and a method table. A Class is
// immutable after registration with a Registry. Every class is built the same
// way, whether by hand or by obicomp: NewClass, then one AddMethod per method.
//
// A name resolves to its slot by a scan of the declared names, in declaration
// order, with no hashing: a class declares a handful of fields and methods,
// and a name a caller passes is most often the very string the class was
// declared with, which compares equal without reading its bytes.
type Class struct {
	Name    string
	Special SpecialKind

	fields  []FieldDef
	methods []methodSlot
}

// methodSlot is one declared method.
type methodSlot struct {
	name string
	body Method
}

// NewClass builds a class with the given fields. Use AddMethod before
// registering it.
func NewClass(name string, fields ...FieldDef) *Class {
	c := &Class{Name: name, fields: make([]FieldDef, 0, len(fields))}
	for _, f := range fields {
		if _, dup := c.FieldIndex(f.Name); dup {
			panic(fmt.Sprintf("heap: class %s: duplicate field %s", name, f.Name))
		}
		c.fields = append(c.fields, f)
	}
	return c
}

// AddMethod attaches a method body under name and returns the class for
// chaining. Redefining an existing method panics: classes model compiled
// code, not dynamic monkey-patching.
func (c *Class) AddMethod(name string, m Method) *Class {
	if m == nil {
		panic("heap: nil method " + name)
	}
	if c.methodIndex(name) >= 0 {
		panic(fmt.Sprintf("heap: class %s: duplicate method %s", c.Name, name))
	}
	c.methods = append(c.methods, methodSlot{name, m})
	return c
}

// Invoke dispatches method through the class's method table. This is THE
// dispatch primitive — the direct runtime, the swapping runtime and the
// baseline comparators all call it.
func (c *Class) Invoke(method string, call *Call) ([]Value, error) {
	body, err := c.Method(method)
	if err != nil {
		return nil, err
	}
	return body(call)
}

// Method returns the body declared under name, or the ErrNoSuchMethod error
// Invoke reports: one lookup for a dispatch that checks before it calls. It
// is a call of its own, not part of Invoke's frame, which every nesting
// level of dispatch keeps on the Go stack.
func (c *Class) Method(name string) (Method, error) {
	if i := c.methodIndex(name); i >= 0 {
		return c.methods[i].body, nil
	}
	return nil, fmt.Errorf("%w: %s.%s", ErrNoSuchMethod, c.Name, name)
}

// methodIndex returns the slot of the method declared under name, or -1.
func (c *Class) methodIndex(name string) int {
	for i := range c.methods {
		if c.methods[i].name == name {
			return i
		}
	}
	return -1
}

// MethodNames returns the sorted method names — the class's public interface,
// which swap-cluster-proxy classes replicate (the obicomp analogue).
func (c *Class) MethodNames() []string {
	names := make([]string, len(c.methods))
	for i, m := range c.methods {
		names[i] = m.name
	}
	slices.Sort(names)
	return names
}

// NumFields returns the number of declared fields.
func (c *Class) NumFields() int { return len(c.fields) }

// Field returns the i-th field definition.
func (c *Class) Field(i int) FieldDef { return c.fields[i] }

// FieldIndex resolves a field name to its slot index.
func (c *Class) FieldIndex(name string) (int, bool) {
	for i := range c.fields {
		if c.fields[i].Name == name {
			return i, true
		}
	}
	return 0, false
}

// zeroFields sets an instance's field slots to their initial values.
func (c *Class) zeroFields(fields []Value) {
	for i := range fields {
		fields[i] = zeroValue(c.fields[i].Kind)
	}
}

// Fields returns a copy of the field definitions.
func (c *Class) Fields() []FieldDef {
	return append([]FieldDef(nil), c.fields...)
}
