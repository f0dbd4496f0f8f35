package store

import (
	"context"
	"errors"
)

// MultiGetter is an optional Store extension: donors that can serve several
// keys in one round trip implement it (the HTTP client speaks POST /batch).
// The owner's fault path reads one key per request and does not use it.
// Missing keys are simply omitted from the result map — a batch is not
// all-or-nothing — and a non-nil error means the round trip itself failed.
type MultiGetter interface {
	GetMulti(ctx context.Context, keys []string) (map[string][]byte, error)
}

// GetMulti fetches keys from s in one round trip when s implements
// MultiGetter, and otherwise falls back to sequential per-key Gets so legacy
// donors keep working. In the fallback, a key that is not found is omitted
// (matching the batched contract); any other per-key failure aborts the
// batch.
func GetMulti(ctx context.Context, s Store, keys []string) (map[string][]byte, error) {
	if mg, ok := s.(MultiGetter); ok {
		return mg.GetMulti(ctx, keys)
	}
	out := make(map[string][]byte, len(keys))
	for _, key := range keys {
		data, err := s.Get(ctx, key)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				continue
			}
			return nil, err
		}
		out[key] = data
	}
	return out, nil
}

// GetMulti serves a whole batch under one read lock.
func (m *Mem) GetMulti(ctx context.Context, keys []string) (map[string][]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := make(map[string][]byte, len(keys))
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, key := range keys {
		data, ok := m.items[key]
		if !ok {
			continue
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		out[key] = cp
	}
	return out, nil
}

var _ MultiGetter = (*Mem)(nil)
