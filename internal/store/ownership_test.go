package store_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"objectswap/internal/link"
	"objectswap/internal/store"
	"objectswap/internal/transport"
)

// TestOwnershipContract runs every in-tree store and decorator through the
// two halves of the Store ownership rule: a Put does not retain the caller's
// buffer (scribbling over it afterwards changes nothing stored), and a Get
// returns a slice of the caller's own (changing it changes nothing stored,
// and neither a later Put to the key nor a later read, scribbled over,
// changes it: the caller may keep it as string storage).
// The swapping runtime ships every cluster out of one pooled buffer, so a
// store that kept the slice would serve the next cluster's bytes under this
// cluster's key. Last, an envelope belongs to its payload: a GetWith racing
// a writer that alternates two shipments under one key returns one
// shipment's bytes with that shipment's format, never a mix.
func TestOwnershipContract(t *testing.T) {
	ctx := context.Background()
	newDisk := func(t *testing.T) store.Store {
		d, err := store.NewDisk(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	stores := []struct {
		name string
		make func(t *testing.T) store.Store
	}{
		{"Mem", func(*testing.T) store.Store { return store.NewMem(0) }},
		{"Disk", newDisk},
		{"Versioned", func(*testing.T) store.Store { return store.NewVersioned(store.NewMem(0), 2) }},
		{"LeaseGC", func(*testing.T) store.Store { return store.NewLeaseGC(store.NewMem(0), time.Hour, nil) }},
		{"Flaky", func(*testing.T) store.Store { return store.NewFlaky(store.NewMem(0), 1) }},
		{"link.Wrap", func(*testing.T) store.Store { return link.Wrap(store.NewMem(0), link.Profile{}, nil) }},
		{"transport.Resilient", func(*testing.T) store.Store {
			return transport.NewResilient("d", store.NewMem(0), transport.Policy{})
		}},
		{"Client-Handler", func(t *testing.T) store.Store {
			srv := httptest.NewServer(store.NewHandler(store.NewMem(0)))
			t.Cleanup(srv.Close)
			return store.NewClient(srv.URL)
		}},
		{"Client-Handler-Disk", func(t *testing.T) store.Store {
			srv := httptest.NewServer(store.NewHandler(newDisk(t)))
			t.Cleanup(srv.Close)
			return store.NewClient(srv.URL)
		}},
	}
	payload := func(fill byte) []byte { return bytes.Repeat([]byte{'<', fill, '>'}, 700) }
	scribble := func(b []byte) {
		for i := range b {
			b[i] = '!'
		}
	}

	for _, tc := range stores {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.make(t)
			reads := map[string]func(key string) ([]byte, error){
				"Get": func(key string) ([]byte, error) { return s.Get(ctx, key) },
				"GetWith": func(key string) ([]byte, error) {
					data, _, err := store.GetWith(ctx, s, key)
					return data, err
				},
				"GetMulti": func(key string) ([]byte, error) {
					got, err := store.GetMulti(ctx, s, []string{key})
					return got[key], err
				},
			}
			puts := map[string]func(key string, data []byte) error{
				"Put": func(key string, data []byte) error { return s.Put(ctx, key, data) },
				"PutWith": func(key string, data []byte) error {
					return store.PutWith(ctx, s, key, data, store.PutOpts{Format: store.FormatXML})
				},
			}
			for putName, put := range puts {
				want := payload('a')
				buf := bytes.Clone(want)
				if err := put(putName, buf); err != nil {
					t.Fatalf("%s: %v", putName, err)
				}
				scribble(buf)
				for readName, read := range reads {
					got, err := read(putName)
					if err != nil {
						t.Fatalf("%s after %s: %v", readName, putName, err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s after %s: the store kept the caller's buffer: read %.12q..., want %.12q...",
							readName, putName, got, want)
					}
					// The caller may keep got: neither a later write to the
					// key nor a later read, scribbled over, may change it.
					if err := s.Put(ctx, putName, payload('z')); err != nil {
						t.Fatalf("overwriting %s: %v", putName, err)
					}
					later, err := read(putName)
					if err != nil {
						t.Fatalf("%s after the overwrite of %s: %v", readName, putName, err)
					}
					if !bytes.Equal(later, payload('z')) {
						t.Fatalf("%s after the overwrite of %s: read %.12q..., want the new payload", readName, putName, later)
					}
					scribble(later)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s after %s: a later Put and %s wrote to the slice it returned: now %.12q..., want %.12q...",
							readName, putName, readName, got, want)
					}
					if err := put(putName, bytes.Clone(want)); err != nil {
						t.Fatalf("%s again: %v", putName, err)
					}
					scribble(got)
					again, err := read(putName)
					if err != nil {
						t.Fatalf("second %s after %s: %v", readName, putName, err)
					}
					if !bytes.Equal(again, want) {
						t.Fatalf("%s after %s: changing the returned slice changed what is stored: read %.12q..., want %.12q...",
							readName, putName, again, want)
					}
				}
			}

			shipments := []struct {
				format string
				data   []byte
			}{{"binary", payload('b')}, {store.FormatXML, payload('x')}}
			ship := func(i int) bool {
				sh := shipments[i%2]
				if err := store.PutWith(ctx, s, "torn", sh.data, store.PutOpts{Format: sh.format}); err != nil {
					t.Errorf("PutWith %s: %v", sh.format, err)
					return false
				}
				return true
			}
			if !ship(0) {
				return
			}
			stop, done := make(chan struct{}), make(chan struct{})
			go func() {
				defer close(done)
				for i := 1; ship(i); i++ {
					select {
					case <-stop:
						return
					default:
					}
				}
			}()
			for i := 0; i < 300 && !t.Failed(); i++ {
				data, opts, err := store.GetWith(ctx, s, "torn")
				if err != nil {
					t.Errorf("read %d: %v", i, err)
					break
				}
				for _, sh := range shipments {
					if opts.Format == sh.format && !bytes.Equal(data, sh.data) {
						t.Errorf("read %d: torn envelope: format %q with payload %.6q...", i, opts.Format, data)
					}
				}
			}
			close(stop)
			<-done
		})
	}
}
