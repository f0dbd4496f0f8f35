package store

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
)

// SelectStrategy survives for benchmark/'s NewRegistry(SelectMostFree) calls; placement ranks donors, the value is unused.
type SelectStrategy uint8

const SelectMostFree SelectStrategy = 1

// ErrNoDevice reports that no reachable device can hold a payload.
var ErrNoDevice = errors.New("store: no reachable device with capacity")

// Device is one named nearby device in the registry.
type Device struct {
	Name      string
	Store     Store
	Available bool
}

// Registry tracks the nearby devices currently visible to the constrained
// node: the swapping runtime resolves devices by name through it, and the
// placement planner enumerates donors from it.
type Registry struct {
	mu      sync.Mutex
	devices map[string]*Device
}

// NewRegistry returns an empty registry.
func NewRegistry(SelectStrategy) *Registry {
	return &Registry{devices: make(map[string]*Device)}
}

// Add registers a device as available. Adding a duplicate name is an error.
func (r *Registry) Add(name string, s Store) error {
	if name == "" || s == nil {
		return errors.New("store: Add: empty name or nil store")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.devices[name]; dup {
		return fmt.Errorf("store: device %q already registered", name)
	}
	r.devices[name] = &Device{Name: name, Store: s, Available: true}
	return nil
}

// Remove forgets a device entirely.
func (r *Registry) Remove(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.devices, name)
}

// SetAvailable flips a device's reachability (driven by the connectivity
// monitor). Unknown names are ignored.
func (r *Registry) SetAvailable(name string, available bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.devices[name]; ok {
		d.Available = available
	}
}

// Names returns the sorted names of all registered devices.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.devices))
	for n := range r.devices {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Available appends the reachable devices, in name order, to dst[:0] and
// returns the result. The placement planner enumerates donors through this:
// rendezvous hashing needs the whole candidate set, not a single winner. A
// caller that enumerates again and again passes the slice it got last time,
// and allocates nothing once that is long enough.
func (r *Registry) Available(dst []Device) []Device {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := slices.Grow(dst[:0], len(r.devices))
	for _, d := range r.devices {
		if d.Available {
			out = append(out, *d)
		}
	}
	slices.SortFunc(out, func(a, b Device) int { return strings.Compare(a.Name, b.Name) })
	return out
}

// Lookup returns the store of a named device, failing when the device is
// unknown or unreachable.
func (r *Registry) Lookup(name string) (Store, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.devices[name]
	if !ok {
		return nil, fmt.Errorf("%w: device %q unknown", ErrUnavailable, name)
	}
	if !d.Available {
		return nil, fmt.Errorf("%w: device %q unreachable", ErrUnavailable, name)
	}
	return d.Store, nil
}

// Peek returns a device's store regardless of availability. Health probes
// need a handle on exactly the devices the registry has stopped offering.
func (r *Registry) Peek(name string) (Store, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.devices[name]
	if !ok {
		return nil, false
	}
	return d.Store, true
}
