package store

import (
	"context"
	"errors"
	"testing"
)

// Versions lists the archived generation numbers of key, oldest first.
func (v *Versioned) Versions(ctx context.Context, key string) ([]int, error) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.versionsLocked(ctx, key)
}

// GetVersion returns one archived generation of key.
func (v *Versioned) GetVersion(ctx context.Context, key string, gen int) ([]byte, error) {
	return v.inner.Get(ctx, versionKey(key, gen))
}

func TestVersionedBehavesAsPlainStoreForLiveKeys(t *testing.T) {
	// The full storeContract does not apply: archived generations occupy the
	// device, so Stats legitimately reports more than the live payloads.
	// The live-key surface must still match a plain store.
	v := NewVersioned(NewMem(0), 0)
	if _, err := v.Get(ctx, "missing"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: %v", err)
	}
	if err := v.Put(ctx, "a", []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := v.Put(ctx, "b", []byte("2")); err != nil {
		t.Fatal(err)
	}
	got, err := v.Get(ctx, "a")
	if err != nil || string(got) != "1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	keys, err := v.Keys(ctx)
	if err != nil || len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("Keys = %v, %v", keys, err)
	}
	if err := v.Drop(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Get(ctx, "a"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after drop: %v", err)
	}
	if err := v.Put(ctx, "", []byte("x")); err == nil {
		t.Fatal("empty key accepted")
	}
}

func TestVersionedArchivesOnPut(t *testing.T) {
	v := NewVersioned(NewMem(0), 0)
	_ = v.Put(ctx, "k", []byte("v1"))
	_ = v.Put(ctx, "k", []byte("v2"))
	_ = v.Put(ctx, "k", []byte("v3"))

	cur, err := v.Get(ctx, "k")
	if err != nil || string(cur) != "v3" {
		t.Fatalf("current = %q, %v", cur, err)
	}
	gens, err := v.Versions(ctx, "k")
	if err != nil || len(gens) != 2 {
		t.Fatalf("generations = %v, %v", gens, err)
	}
	g0, _ := v.GetVersion(ctx, "k", gens[0])
	g1, _ := v.GetVersion(ctx, "k", gens[1])
	if string(g0) != "v1" || string(g1) != "v2" {
		t.Fatalf("archived = %q, %q", g0, g1)
	}
	// Live key listing hides archives.
	keys, _ := v.Keys(ctx)
	if len(keys) != 1 || keys[0] != "k" {
		t.Fatalf("keys = %v", keys)
	}
}

func TestVersionedDropSetsAside(t *testing.T) {
	// The paper: dropped swap-clusters may be set aside rather than
	// destroyed, for reconciliation/versioning.
	v := NewVersioned(NewMem(0), 0)
	_ = v.Put(ctx, "cluster-7", []byte("<swapcluster/>"))
	if err := v.Drop(ctx, "cluster-7"); err != nil {
		t.Fatal(err)
	}
	if _, err := v.Get(ctx, "cluster-7"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("live payload survived drop: %v", err)
	}
	gens, _ := v.Versions(ctx, "cluster-7")
	if len(gens) != 1 {
		t.Fatalf("generations after drop = %v", gens)
	}
	data, err := v.GetVersion(ctx, "cluster-7", gens[0])
	if err != nil || string(data) != "<swapcluster/>" {
		t.Fatalf("set-aside payload = %q, %v", data, err)
	}
	// Dropping a missing key still errors.
	if err := v.Drop(ctx, "ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("drop ghost: %v", err)
	}
}

func TestVersionedRetentionBound(t *testing.T) {
	v := NewVersioned(NewMem(0), 2)
	for i := 0; i < 6; i++ {
		_ = v.Put(ctx, "k", []byte{byte('a' + i)})
	}
	gens, _ := v.Versions(ctx, "k")
	if len(gens) != 2 {
		t.Fatalf("retained %d generations, want 2", len(gens))
	}
	// The newest two archives survive: "d" and "e" (current is "f").
	g0, _ := v.GetVersion(ctx, "k", gens[0])
	g1, _ := v.GetVersion(ctx, "k", gens[1])
	if string(g0) != "d" || string(g1) != "e" {
		t.Fatalf("retained = %q, %q", g0, g1)
	}
}

func TestVersionedRejectsNamespaceCollisions(t *testing.T) {
	v := NewVersioned(NewMem(0), 0)
	if err := v.Put(ctx, "bad#v1", []byte("x")); !errors.Is(err, ErrVersionedKey) {
		t.Fatalf("collision accepted: %v", err)
	}
}

func TestVersionedStatsIncludeArchives(t *testing.T) {
	v := NewVersioned(NewMem(0), 0)
	_ = v.Put(ctx, "k", make([]byte, 10))
	_ = v.Put(ctx, "k", make([]byte, 10))
	st, err := v.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Used != 20 || st.Items != 2 {
		t.Fatalf("stats = %+v (archives must be accounted)", st)
	}
}
