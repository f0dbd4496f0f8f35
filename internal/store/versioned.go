package store

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Versioned wraps a Store with per-key version retention: Put archives the
// previous payload instead of discarding it, and Drop sets the current
// payload aside rather than destroying it. This implements the paper's
// aside in Section 3 — when a swap-cluster is ultimately dropped, its
// content may be "set-aside if ... still required for other purposes
// (consistency, reconciliation, versioning, etc.)".
//
// The live key space is untouched: Get/Keys/Drop behave exactly like the
// wrapped store for current payloads, so a Versioned store is a drop-in
// swapping device. Archived generations live under reserved keys
// ("<key>#v<N>") in the same underlying store; the retention bound prunes
// the oldest.
type Versioned struct {
	mu    sync.Mutex
	inner Store
	// keep bounds retained generations per key (0 = unlimited).
	keep int
	// gens tracks the next generation number per key.
	gens map[string]int
}

var (
	_ Store    = (*Versioned)(nil)
	_ Envelope = (*Versioned)(nil)
)

// versionSep separates the key from the generation suffix. Clients must not
// use it in their own keys; Put rejects offenders.
const versionSep = "#v"

// ErrVersionedKey reports a client key that collides with the version
// namespace.
var ErrVersionedKey = errors.New("store: key collides with version namespace")

// NewVersioned wraps inner, retaining up to keep archived generations per
// key (0 = unlimited).
func NewVersioned(inner Store, keep int) *Versioned {
	return &Versioned{inner: inner, keep: keep, gens: make(map[string]int)}
}

func versionKey(key string, gen int) string {
	return key + versionSep + strconv.Itoa(gen)
}

// isVersionKey splits an underlying key into (base, generation).
func isVersionKey(k string) (string, int, bool) {
	i := strings.LastIndex(k, versionSep)
	if i < 0 {
		return "", 0, false
	}
	gen, err := strconv.Atoi(k[i+len(versionSep):])
	if err != nil {
		return "", 0, false
	}
	return k[:i], gen, true
}

// Put stores data under key, archiving any previous payload as a new
// generation.
func (v *Versioned) Put(ctx context.Context, key string, data []byte) error {
	return v.PutEnvelope(ctx, key, data, PutOpts{})
}

// PutEnvelope stores data under key with its envelope, archiving any
// previous payload (envelope included) as a new generation.
func (v *Versioned) PutEnvelope(ctx context.Context, key string, data []byte, opts PutOpts) error {
	if strings.Contains(key, versionSep) {
		return fmt.Errorf("%w: %q", ErrVersionedKey, key)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.archiveLocked(ctx, key); err != nil {
		return err
	}
	return PutWith(ctx, v.inner, key, data, opts)
}

// GetEnvelope returns the current payload of key with its envelope.
func (v *Versioned) GetEnvelope(ctx context.Context, key string) ([]byte, PutOpts, error) {
	return GetWith(ctx, v.inner, key)
}

// archiveLocked moves the current payload of key (if any) into the next
// generation slot — envelope preserved — and prunes beyond the retention
// bound.
func (v *Versioned) archiveLocked(ctx context.Context, key string) error {
	cur, opts, err := GetWith(ctx, v.inner, key)
	if errors.Is(err, ErrNotFound) {
		return nil
	}
	if err != nil {
		return err
	}
	gen := v.gens[key]
	v.gens[key] = gen + 1
	if err := PutWith(ctx, v.inner, versionKey(key, gen), cur, opts); err != nil {
		return err
	}
	return v.pruneLocked(ctx, key)
}

// pruneLocked enforces the retention bound for key.
func (v *Versioned) pruneLocked(ctx context.Context, key string) error {
	if v.keep <= 0 {
		return nil
	}
	gens, err := v.versionsLocked(ctx, key)
	if err != nil {
		return err
	}
	for len(gens) > v.keep {
		if err := v.inner.Drop(ctx, versionKey(key, gens[0])); err != nil {
			return err
		}
		gens = gens[1:]
	}
	return nil
}

// Get returns the current payload of key.
func (v *Versioned) Get(ctx context.Context, key string) ([]byte, error) {
	return v.inner.Get(ctx, key)
}

// GetMulti serves a batch through the wrapped store (batched when the inner
// store supports it). Reads never touch the archive, so no lock is needed.
func (v *Versioned) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	return GetMulti(ctx, v.inner, keys)
}

// Drop sets the current payload aside as a generation instead of destroying
// it, then removes the live key.
func (v *Versioned) Drop(ctx context.Context, key string) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if err := v.archiveLocked(ctx, key); err != nil {
		return err
	}
	return v.inner.Drop(ctx, key)
}

// Keys enumerates live keys only (archived generations are hidden).
func (v *Versioned) Keys(ctx context.Context) ([]string, error) {
	all, err := v.inner.Keys(ctx)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, k := range all {
		if _, _, isVer := isVersionKey(k); !isVer {
			out = append(out, k)
		}
	}
	return out, nil
}

// Stats reports the underlying occupancy (archives included: they do occupy
// the device).
func (v *Versioned) Stats(ctx context.Context) (Stats, error) {
	return v.inner.Stats(ctx)
}

func (v *Versioned) versionsLocked(ctx context.Context, key string) ([]int, error) {
	all, err := v.inner.Keys(ctx)
	if err != nil {
		return nil, err
	}
	var gens []int
	for _, k := range all {
		if base, gen, isVer := isVersionKey(k); isVer && base == key {
			gens = append(gens, gen)
		}
	}
	sort.Ints(gens)
	return gens, nil
}
