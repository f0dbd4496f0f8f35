package replication

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"

	"objectswap/internal/core"
	"objectswap/internal/heap"
	"objectswap/internal/xmlcodec"
)

// Write-back: the "update of object replicas" half of OBIWAN's replication
// core interfaces (Section 2 of the paper). The replicator tracks dirty
// replicas through the heap's write observer and pushes their current state
// back to the master in master-identity XML wrappers. Reconciliation policy
// is last-writer-wins, as in OBIWAN's loosely-coupled replication: the
// master applies whatever arrives.

// ErrUpdatesUnsupported reports a transport without a write-back channel.
var ErrUpdatesUnsupported = errors.New("replication: transport does not support updates")

// ErrUnsyncedReference reports a dirty replica referencing a device-local
// object the master has no identity for.
var ErrUnsyncedReference = errors.New("replication: reference to unreplicated local object")

// UpdateTransport is the optional write-back channel of a Transport.
type UpdateTransport interface {
	// PushCluster applies an update document (objects named by master
	// identities) on the master. ctx bounds the round trip.
	PushCluster(ctx context.Context, doc *xmlcodec.Doc) error
}

// enableWriteback installs the dirty-tracking observer. Called by Attach.
func (r *Replicator) enableWriteback() {
	r.rt.Locked(func(x *core.Held) {
		x.Heap().AddWriteObserver(func(o *heap.Object) {
			r.mu.Lock()
			if _, isReplica := r.localToRemote[o.ID()]; isReplica {
				r.dirty[o.ID()] = true
			}
			r.mu.Unlock()
		})
	})
}

// DirtyCount reports how many replicas have unpushed writes.
func (r *Replicator) DirtyCount() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.dirty)
}

// PushUpdates ships the current state of every dirty replica back to the
// master and clears the dirty set. It returns the number of objects pushed.
// Replicas that are currently swapped out are faulted back in first (their
// state on the swapping device is the state to push). ctx bounds the push.
func (r *Replicator) PushUpdates(ctx context.Context) (int, error) {
	ut, ok := r.transport.(UpdateTransport)
	if !ok {
		return 0, ErrUpdatesUnsupported
	}

	// The dirty set is read under the runtime lock, which a replication
	// fault's install holds from its first replica to its last: a push never
	// takes the replicas an install is filling for user writes.
	var ids []heap.ObjID
	r.rt.Locked(func(*core.Held) {
		r.mu.Lock()
		ids = slices.Sorted(maps.Keys(r.dirty))
		r.mu.Unlock()
	})
	if len(ids) == 0 {
		return 0, nil
	}

	// Encode each dirty replica under its MASTER identity (masterRef).
	doc := &xmlcodec.Doc{ClusterID: "update-" + r.rt.Name(), Version: xmlcodec.Version}
	pushed := make([]heap.ObjID, 0, len(ids))
	for _, id := range ids {
		// A swapped-out replica faults in first: its state on the swapping
		// device is the state to push. It is wrapped in the same hold, before
		// the next replica faults in, which may evict this one.
		var one *xmlcodec.Doc
		var err error
		r.rt.Locked(func(x *core.Held) {
			var o *heap.Object
			if o, err = x.Deref(heap.Ref(id)); err != nil {
				err = fmt.Errorf("replication: dirty replica @%d unavailable: %w", id, err)
				return
			}
			one, err = xmlcodec.EncodeObjects(doc.ClusterID, []*heap.Object{o}, func(rid heap.ObjID) (xmlcodec.Value, error) {
				return r.masterRef(x.Heap(), rid)
			})
		})
		if err != nil {
			return 0, err
		}
		r.mu.Lock()
		one.Objects[0].ID = r.localToRemote[id]
		r.mu.Unlock()
		doc.Objects = append(doc.Objects, one.Objects...)
		pushed = append(pushed, id)
	}

	if err := ut.PushCluster(ctx, doc); err != nil {
		return 0, fmt.Errorf("replication: push updates: %w", err)
	}
	r.mu.Lock()
	for _, id := range pushed {
		delete(r.dirty, id)
	}
	r.stats.UpdatesPushed += len(pushed)
	r.mu.Unlock()
	return len(pushed), nil
}

// masterRef rewrites a replica's reference into the master namespace through
// the replica map as it is at the encode, which runs under the runtime lock,
// reading h.
func (r *Replicator) masterRef(h *heap.Heap, rid heap.ObjID) (xmlcodec.Value, error) {
	ultimate := rid
	if o, err := h.Get(rid); err == nil {
		if target, isProxy := core.ProxyTarget(o); isProxy {
			// Resolve through the proxy to the replica it mediates.
			ultimate = target
		} else if o.Class().Special == heap.SpecialObjProxy {
			// Un-replicated edge: the placeholder IS a master identity.
			return xmlcodec.RemoteRef(core.ObjProxyRemote(o)), nil
		}
	}
	r.mu.Lock()
	master, known := r.localToRemote[ultimate]
	r.mu.Unlock()
	if !known {
		return xmlcodec.Value{}, fmt.Errorf("%w: @%d", ErrUnsyncedReference, ultimate)
	}
	return xmlcodec.RemoteRef(master), nil
}

// apply applies an update document on the master: every contained object
// names a master identity; its fields replace the master's
// (last-writer-wins).
func (m *Master) apply(doc *xmlcodec.Doc) error {
	if doc == nil || doc.Version != xmlcodec.Version {
		return errors.New("replication: bad update document")
	}
	var err error
	m.rt.WithHeap(func(h *heap.Heap) { err = applyUpdate(h, doc) })
	return err
}

// applyUpdate applies an update document under the heap's lock.
func applyUpdate(h *heap.Heap, doc *xmlcodec.Doc) error {
	decodeRef := func(v xmlcodec.Value) (heap.Value, error) {
		if v.RefClass != xmlcodec.RefRemote {
			return heap.Nil(), errors.New("replication: update refs must be master identities")
		}
		if !h.Contains(v.Target) {
			return heap.Nil(), fmt.Errorf("%w: @%d", ErrUnknownObject, v.Target)
		}
		return heap.Ref(v.Target), nil
	}
	for _, eo := range doc.Objects {
		o, err := h.Get(eo.ID)
		if err != nil {
			return fmt.Errorf("replication: update for unknown master object @%d", eo.ID)
		}
		if o.Class().Name != eo.Class {
			return fmt.Errorf("replication: update class mismatch for @%d: %s vs %s",
				eo.ID, eo.Class, o.Class().Name)
		}
		for _, f := range eo.Fields {
			hv, err := f.Value.ToHeapValue(decodeRef)
			if err != nil {
				return err
			}
			if err := o.SetFieldByName(f.Name, hv); err != nil {
				return err
			}
		}
	}
	return nil
}

// PushCluster implements UpdateTransport for the in-process master.
func (m *Master) PushCluster(ctx context.Context, doc *xmlcodec.Doc) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return m.apply(doc)
}

var _ UpdateTransport = (*Master)(nil)
