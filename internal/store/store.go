// Package store implements the swapping-device substrate: the "nearby
// devices" of the paper that receive swapped-out object clusters.
//
// The paper's key portability requirement is that such devices need no
// virtual machine, no middleware and no application classes — they must only
// be able to store, return and drop keyed XML text. The Store interface is
// exactly that contract. Implementations cover the deployment spectrum the
// paper envisions: an in-memory store (another PDA's RAM), a disk store (a
// desktop PC holding files), and an HTTP store (the web-services
// communication bridge of the OBIWAN prototype).
//
// Every operation takes a context.Context: the links to these devices are
// flaky Bluetooth-class radios, so callers must be able to bound and cancel
// each transfer. Third-party stores written against the original context-free
// contract plug in through the Legacy adapter.
//
// A Registry aggregates several named devices and picks a destination for
// each swap-out, modelling the paper's scenario of "a myriad of small
// memory-enabled devices with wireless connectivity, scattered all-over".
package store

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// Errors reported by stores.
var (
	// ErrNotFound reports a key with no stored data.
	ErrNotFound = errors.New("store: key not found")
	// ErrCapacity reports that a device has no room for the payload.
	ErrCapacity = errors.New("store: capacity exceeded")
	// ErrUnavailable reports that the device is out of reach (link down).
	ErrUnavailable = errors.New("store: device unavailable")
)

// Stats describes a device's occupancy and capabilities.
type Stats struct {
	Capacity int64 `json:"capacity"` // bytes; 0 = unlimited
	Used     int64 `json:"used"`
	Items    int   `json:"items"`
	// Formats lists the wire formats this donor accepts (see internal/wire).
	// Empty or absent means the donor predates format negotiation and speaks
	// only the universal XML fallback — constrained devices treat a missing
	// advertisement as ["xml"]. It is the donor's read-only advertisement: a
	// store may hand out its own list, so no caller writes into it.
	Formats []string `json:"formats,omitempty"`
	// LeaseTTL is how long the donor keeps a stored key before its lease GC
	// expires it unless renewed (see Leaser); 0 or absent means it expires
	// nothing. An owner that keeps a copy on the donor past a reload counts on
	// it no longer than this without a renewal.
	LeaseTTL time.Duration `json:"lease_ttl,omitempty"`
}

// Free returns the remaining byte capacity, or a very large number when
// unlimited.
func (s Stats) Free() int64 {
	if s.Capacity <= 0 {
		return 1<<62 - 1
	}
	return s.Capacity - s.Used
}

// Store is the full contract a swapping device must honor: store, return,
// drop (and enumerate) keyed opaque text. Every operation observes the
// context's deadline and cancellation — a store must not outlive ctx on a
// slow or dead link.
//
// Who owns the bytes: data handed to Put (and Envelope.PutEnvelope) belongs
// to the caller again the moment the call returns — a store copies, writes
// out or transmits what it keeps before returning, and no goroutine of its
// own reads data afterwards. The swapping runtime relies on this to encode
// every shipment into one pooled buffer it reuses for the next. Conversely
// the slice Get (GetEnvelope, MultiGetter.GetMulti) returns belongs to the
// caller: a store never hands out its own copy, so the caller may change it
// without changing what is stored. Nor does a store write to it, or hand it
// to anything that does, once the call has returned: the owner may keep a Get
// result as string storage (a swap-in's installed strings point into the
// frame it fetched; see wire.Stage). Decorators inherit both halves by
// forwarding; TestOwnershipContract runs every in-tree store and decorator
// through them.
//
// Who owns the context: a store may use ctx after the call returns — hand it
// to a goroutine that outlives the call, keep it for a later check — only if
// it asked for ctx.Done() during the call. A store that only polls ctx.Err()
// is done with ctx when it returns. The resilience decorator relies on this
// to reuse one per-attempt deadline context from attempt to attempt; a
// context whose Done was asked for is cancelled when its attempt ends, as a
// context.WithTimeout one would be, and never reused.
type Store interface {
	// Put stores data under key, replacing any previous payload. It does not
	// retain data.
	Put(ctx context.Context, key string, data []byte) error
	// Get returns the payload stored under key, in a slice the caller owns.
	Get(ctx context.Context, key string) ([]byte, error)
	// Drop removes the payload stored under key. Dropping an absent key is
	// an error (ErrNotFound) so protocol bugs surface.
	Drop(ctx context.Context, key string) error
	// Keys enumerates stored keys in sorted order.
	Keys(ctx context.Context) ([]string, error)
	// Stats reports occupancy.
	Stats(ctx context.Context) (Stats, error)
}

// ContextFree is the original store contract, kept for third-party device
// implementations that predate the context-aware API. Wrap one in Legacy to
// use it as a Store.
type ContextFree interface {
	Put(key string, data []byte) error
	Get(key string) ([]byte, error)
	Drop(key string) error
	Keys() ([]string, error)
	Stats() (Stats, error)
}

// Legacy adapts a context-free store to the Store contract. The inner store
// cannot be interrupted mid-operation, so Legacy honors ctx at the only
// point it can: it refuses to start an operation on an already-done context.
type Legacy struct {
	Inner ContextFree
}

var _ Store = Legacy{}

// NewLegacy wraps a context-free store.
func NewLegacy(s ContextFree) Legacy { return Legacy{Inner: s} }

// Put forwards after a cancellation check.
func (l Legacy) Put(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.Inner.Put(key, data)
}

// Get forwards after a cancellation check.
func (l Legacy) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.Inner.Get(key)
}

// Drop forwards after a cancellation check.
func (l Legacy) Drop(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return l.Inner.Drop(key)
}

// Keys forwards after a cancellation check.
func (l Legacy) Keys(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return l.Inner.Keys()
}

// Stats forwards after a cancellation check.
func (l Legacy) Stats(ctx context.Context) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	return l.Inner.Stats()
}

// Mem is an in-memory Store with optional byte capacity. It implements the
// Envelope extension and by default accepts every built-in wire format;
// SetFormats narrows the advertisement (e.g. to model an XML-only donor).
type Mem struct {
	mu       sync.RWMutex
	capacity int64
	used     int64
	items    map[string][]byte
	kinds    map[string]string // stored envelope format per key ("" = unspecified)
	formats  []string
}

var (
	_ Store    = (*Mem)(nil)
	_ Envelope = (*Mem)(nil)
)

// NewMem returns an empty in-memory store. capacity <= 0 means unlimited.
func NewMem(capacity int64) *Mem {
	return &Mem{
		capacity: capacity,
		items:    make(map[string][]byte),
		kinds:    make(map[string]string),
		formats:  BuiltinFormats,
	}
}

// SetFormats replaces the store's wire-format advertisement with a fresh
// list, never writing the one Stats handed out. The XML fallback is always
// accepted regardless of the advertisement.
func (m *Mem) SetFormats(formats ...string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.formats = append([]string(nil), formats...)
}

// Put stores data under key with an unspecified (XML-fallback) envelope.
func (m *Mem) Put(ctx context.Context, key string, data []byte) error {
	return m.PutEnvelope(ctx, key, data, PutOpts{})
}

// PutEnvelope stores data under key with its envelope.
func (m *Mem) PutEnvelope(ctx context.Context, key string, data []byte, opts PutOpts) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if key == "" {
		return errors.New("store: empty key")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !formatAccepted(m.formats, opts.Format) {
		return fmt.Errorf("%w: %q (accepts %v)", ErrUnsupportedFormat, opts.Format, m.formats)
	}
	next := m.used - int64(len(m.items[key])) + int64(len(data))
	if m.capacity > 0 && next > m.capacity {
		return fmt.Errorf("%w: need %d bytes, %d of %d used",
			ErrCapacity, len(data), m.used, m.capacity)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	m.items[key] = cp
	if opts.Format == "" {
		delete(m.kinds, key)
	} else {
		m.kinds[key] = opts.Format
	}
	m.used = next
	return nil
}

// GetEnvelope returns the payload and the envelope it was stored with, read
// in one critical section so a concurrent PutEnvelope cannot pair one
// shipment's bytes with another's format; payloads stored without an envelope
// report the XML fallback.
func (m *Mem) GetEnvelope(ctx context.Context, key string) ([]byte, PutOpts, error) {
	if err := ctx.Err(); err != nil {
		return nil, PutOpts{}, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, err := m.copyOf(key)
	if err != nil {
		return nil, PutOpts{}, err
	}
	format := m.kinds[key]
	if format == "" {
		format = FormatXML
	}
	return data, PutOpts{Format: format}, nil
}

// Get returns the payload stored under key.
func (m *Mem) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.copyOf(key)
}

// copyOf returns a copy of key's payload; the caller holds m.mu.
func (m *Mem) copyOf(key string) ([]byte, error) {
	data, ok := m.items[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	return cp, nil
}

// Drop removes the payload stored under key.
func (m *Mem) Drop(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.items[key]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	delete(m.items, key)
	delete(m.kinds, key)
	m.used -= int64(len(data))
	return nil
}

// Keys enumerates stored keys in sorted order.
func (m *Mem) Keys(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	keys := make([]string, 0, len(m.items))
	for k := range m.items {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, nil
}

// Stats reports occupancy. Its Formats is the store's own advertisement,
// clipped to its length, so a probe copies nothing.
func (m *Mem) Stats(ctx context.Context) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	return Stats{
		Capacity: m.capacity,
		Used:     m.used,
		Items:    len(m.items),
		Formats:  slices.Clip(m.formats),
	}, nil
}
