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
	// Ad is the device's last Stats advertisement, kept by the placement
	// planner's probe (Advertise), with Used raised by the bytes stored there
	// since (Stored). It is meaningful only when Advertised.
	Ad         Stats
	Advertised bool
	// Gen names the entry's state: Add and every drop of the advertisement
	// (Forget, an availability flip) give it a fresh one, so a probe that
	// raced an invalidation records nothing.
	Gen uint64
}

// Registry tracks the nearby devices currently visible to the constrained
// node: the swapping runtime resolves devices by name through it, and the
// placement planner enumerates donors from it, with each donor's last
// advertisement. An advertisement stays until the device's availability
// flips, the device is removed, or the planner forgets it (a refused or
// failed Put, or too little room left for a payload).
type Registry struct {
	mu      sync.Mutex
	devices map[string]*Device
	gen     uint64 // the last generation handed out
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
	r.gen++
	r.devices[name] = &Device{Name: name, Store: s, Available: true, Gen: r.gen}
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
	if d, ok := r.devices[name]; ok && d.Available != available {
		d.Available = available
		r.forget(d)
	}
}

// Advertise records st as the device's advertisement, if the entry is still
// in generation gen: the one the caller read before it probed.
func (r *Registry) Advertise(name string, gen uint64, st Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.devices[name]; ok && d.Gen == gen {
		d.Ad, d.Advertised = st, true
	}
}

// Forget drops the device's advertisement, so the next ranking probes it.
// Unknown names are ignored.
func (r *Registry) Forget(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.devices[name]; ok {
		r.forget(d)
	}
}

func (r *Registry) forget(d *Device) {
	r.gen++
	d.Ad, d.Advertised, d.Gen = Stats{}, false, r.gen
}

// Stored counts n bytes put on the device against its advertisement, so the
// free capacity the advertisement vouches for shrinks as the planner fills
// the device. Unknown names are ignored.
func (r *Registry) Stored(name string, n int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.devices[name]; ok && d.Advertised {
		d.Ad.Used += n
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
