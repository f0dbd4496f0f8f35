package heap

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"
)

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
	return slices.Sorted(maps.Keys(r.classes))
}
