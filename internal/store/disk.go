package store

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Disk is a Store backed by a directory of files — the paper's desktop or
// laptop PC holding swapped XML as plain files. Keys are hex-encoded into
// file names so arbitrary key strings are safe. Disk implements the Envelope
// extension: a payload's wire format persists in a tiny sidecar file
// (<hexkey>.swapfmt) next to the payload, so a restarted donor still answers
// GETs with the right format. Payloads without a sidecar are the XML
// fallback, which keeps directories written before negotiation readable.
type Disk struct {
	mu       sync.Mutex
	dir      string
	capacity int64
	formats  []string
}

var (
	_ Store    = (*Disk)(nil)
	_ Envelope = (*Disk)(nil)
)

const (
	diskExt = ".swapxml"
	// fmtExt marks format sidecars; they are metadata, not shipments, so
	// Keys and Stats skip them.
	fmtExt = ".swapfmt"
)

// NewDisk returns a disk store rooted at dir, creating it if needed.
// capacity <= 0 means unlimited.
func NewDisk(dir string, capacity int64) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create dir: %w", err)
	}
	return &Disk{dir: dir, capacity: capacity, formats: BuiltinFormats}, nil
}

// SetFormats replaces the store's wire-format advertisement. The XML
// fallback is always accepted regardless of the advertisement.
func (d *Disk) SetFormats(formats ...string) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.formats = append([]string(nil), formats...)
}

// Dir returns the backing directory.
func (d *Disk) Dir() string { return d.dir }

func (d *Disk) path(key string) string {
	return filepath.Join(d.dir, hex.EncodeToString([]byte(key))+diskExt)
}

func (d *Disk) fmtPath(key string) string {
	return filepath.Join(d.dir, hex.EncodeToString([]byte(key))+fmtExt)
}

// Put stores data under key with an unspecified (XML-fallback) envelope.
func (d *Disk) Put(ctx context.Context, key string, data []byte) error {
	return d.PutEnvelope(ctx, key, data, PutOpts{})
}

// PutEnvelope stores data under key with its envelope.
func (d *Disk) PutEnvelope(ctx context.Context, key string, data []byte, opts PutOpts) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if key == "" {
		return errors.New("store: empty key")
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if !formatAccepted(d.formats, opts.Format) {
		return fmt.Errorf("%w: %q (accepts %v)", ErrUnsupportedFormat, opts.Format, d.formats)
	}
	if d.capacity > 0 {
		st, err := d.statsLocked()
		if err != nil {
			return err
		}
		var existing int64
		if fi, err := os.Stat(d.path(key)); err == nil {
			existing = fi.Size()
		}
		if st.Used-existing+int64(len(data)) > d.capacity {
			return fmt.Errorf("%w: need %d bytes, %d of %d used",
				ErrCapacity, len(data), st.Used, d.capacity)
		}
	}
	tmp := d.path(key) + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("store: write: %w", err)
	}
	if err := os.Rename(tmp, d.path(key)); err != nil {
		return fmt.Errorf("store: rename: %w", err)
	}
	// Sidecar second: a crash between the two leaves a payload with no
	// sidecar, which reads back as the XML fallback — the safe default.
	if opts.Format == "" || opts.Format == FormatXML {
		_ = os.Remove(d.fmtPath(key))
		return nil
	}
	if err := os.WriteFile(d.fmtPath(key), []byte(opts.Format), 0o644); err != nil {
		return fmt.Errorf("store: write format sidecar: %w", err)
	}
	return nil
}

// GetEnvelope returns the payload and the envelope it was stored with, read
// in one critical section so a concurrent PutEnvelope cannot pair one
// shipment's bytes with another's format; payloads without a format sidecar
// report the XML fallback.
func (d *Disk) GetEnvelope(ctx context.Context, key string) ([]byte, PutOpts, error) {
	if err := ctx.Err(); err != nil {
		return nil, PutOpts{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	data, err := d.read(key)
	if err != nil {
		return nil, PutOpts{}, err
	}
	format := FormatXML
	if raw, err := os.ReadFile(d.fmtPath(key)); err == nil && len(raw) > 0 {
		format = string(raw)
	}
	return data, PutOpts{Format: format}, nil
}

// Get returns the payload stored under key.
func (d *Disk) Get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.read(key)
}

// read returns key's payload file; the caller holds d.mu.
func (d *Disk) read(key string) ([]byte, error) {
	data, err := os.ReadFile(d.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if err != nil {
		return nil, fmt.Errorf("store: read: %w", err)
	}
	return data, nil
}

// Drop removes the payload stored under key.
func (d *Disk) Drop(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	err := os.Remove(d.path(key))
	if errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	if err != nil {
		return fmt.Errorf("store: remove: %w", err)
	}
	_ = os.Remove(d.fmtPath(key))
	return nil
}

// Keys enumerates stored keys in sorted order.
func (d *Disk) Keys(ctx context.Context) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.keysLocked()
}

func (d *Disk) keysLocked() ([]string, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, fmt.Errorf("store: list: %w", err)
	}
	var keys []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, diskExt) {
			continue
		}
		raw, err := hex.DecodeString(strings.TrimSuffix(name, diskExt))
		if err != nil {
			continue // foreign file; ignore
		}
		keys = append(keys, string(raw))
	}
	sort.Strings(keys)
	return keys, nil
}

// Stats reports occupancy.
func (d *Disk) Stats(ctx context.Context) (Stats, error) {
	if err := ctx.Err(); err != nil {
		return Stats{}, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.statsLocked()
}

func (d *Disk) statsLocked() (Stats, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return Stats{}, fmt.Errorf("store: list: %w", err)
	}
	st := Stats{Capacity: d.capacity, Formats: append([]string(nil), d.formats...)}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), diskExt) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		st.Used += fi.Size()
		st.Items++
	}
	return st, nil
}
