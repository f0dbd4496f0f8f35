package core

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sort"
	"strings"
	"sync"

	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/obs"
	"objectswap/internal/placement"
	"objectswap/internal/store"
	"objectswap/internal/wire"
	"objectswap/internal/xmlcodec"
)

// SwapOut detaches the given swap-cluster from the application graph and
// ships its objects, as XML, to a nearby device chosen by the store provider.
//
// The procedure follows Section 3 exactly:
//
//  1. a replacement-object is created and filled with references to every
//     outbound swap-cluster-proxy referenced by the cluster's objects;
//  2. the XML wrapping of the cluster's objects is stored on the device
//     under a fresh key (outbound references encode as replacement slots);
//  3. every inbound swap-cluster-proxy is patched to target the
//     replacement-object;
//  4. the cluster's shipped objects, now unreachable from the application,
//     are reclaimed on the spot: their bytes are back when SwapOut returns.
//
// The shipment is placed by the rendezvous planner: the payload goes to the
// top K donors ranked by weighted HRW over the swap key (K = WithReplicas or
// the runtime default, 1) and the swap commits once a majority write quorum
// accepted it. A rejecting donor is replaced by the next-ranked candidate —
// the old single-device failover is the K=1 case of this walk. The failed
// destinations are recorded in SwapEvent.Attempted and each re-route is
// published as a swap.failover event; the accepting replica set lands in
// SwapEvent.Replicas and the cluster state. Options bound the whole
// operation (WithDeadline), pin the destination (WithDevice) or restore the
// fail-fast behavior (WithNoFailover).
//
// SwapOut is safe to call concurrently for distinct clusters: the snapshot
// and commit phases are serialized under the runtime's swap lock, while
// encoding and shipment — the expensive parts — run outside it, overlapping
// across clusters. A cluster whose swap is already in flight elsewhere
// reports ErrClusterBusy.
//
// It returns the SwapEvent describing the shipment.
func (rt *Runtime) SwapOut(id ClusterID, opts ...SwapOption) (ev SwapEvent, retErr error) {
	o, ctx, cancel := resolveSwapOpts(opts)
	defer cancel()
	if id == RootCluster {
		return SwapEvent{}, ErrRootCluster
	}
	if rt.stores == nil {
		return SwapEvent{}, ErrNoStores
	}
	trace := rt.newTrace()
	ctx = obs.ContextWithTrace(ctx, trace)
	span := rt.tracer.Start("swap_out")
	span.SetTrace(trace)
	span.SetCluster(uint32(id))
	defer func() {
		if retErr != nil {
			rt.swapErrors.With("swap_out").Inc()
			span.Fail(retErr)
			rt.logger.Warn("swap-out failed",
				"trace", trace, "cluster", uint32(id), "err", retErr)
		}
	}()

	// Phase 1 — exclusive on this cluster's shard: validate the cluster and
	// reserve it (busy) so no concurrent swap, victim selection or sweep
	// touches it mid-flight.
	span.Phase("reserve")
	sh := rt.shardOf(id)
	rt.lockShard(sh)
	memberIDs, members, base, dirty, err := rt.beginSwapOut(id)
	sh.mu.Unlock()
	if err != nil {
		return SwapEvent{}, err
	}
	committed := false
	defer func() {
		if !committed {
			rt.setBusy(id, false)
		}
	}()

	// Phase 2 — concurrent: snapshot, classify and encode. Member fields are
	// stable here: the application thread is the caller (or blocked behind the
	// eviction that called us), concurrent swap commits only touch proxy
	// $target fields and other clusters' objects, and the reserved busy state
	// keeps this cluster out of every other transition.
	span.Phase("snapshot")
	objs := make([]*heap.Object, 0, len(memberIDs))
	var residentBytes int64
	for _, oid := range memberIDs {
		o, err := rt.h.Get(oid)
		if err != nil {
			return SwapEvent{}, fmt.Errorf("core: swap-out cluster %d: member @%d: %w", id, oid, err)
		}
		objs = append(objs, o)
		residentBytes += o.Size()
	}

	// Build the outbound slot table (the distinct swap-cluster-proxies
	// referenced from the cluster, in deterministic traversal order) and note
	// un-replicated edges (object-fault proxies), which ship as remote
	// references rather than replacement slots.
	slotOf := make(map[heap.ObjID]int)
	remoteOf := make(map[heap.ObjID]heap.Value) // objproxy id -> rref descriptor placeholder
	var (
		outbound    []heap.Value
		slotProxies []heap.ObjID // proxy id per slot, aligned with outbound
		slotTargets []heap.ObjID // proxy's ultimate target per slot
	)
	for _, o := range objs {
		var werr error
		for i := 0; i < o.NumFields() && werr == nil; i++ {
			o.Field(i).MapRefs(func(rid heap.ObjID) heap.ObjID {
				if werr != nil || rid == heap.NilID || members[rid] {
					return rid
				}
				if _, seen := slotOf[rid]; seen {
					return rid
				}
				if _, seen := remoteOf[rid]; seen {
					return rid
				}
				ro, err := rt.h.Get(rid)
				if err != nil {
					werr = fmt.Errorf("core: cluster %d: dangling outbound @%d: %w", id, rid, err)
					return rid
				}
				switch {
				case isProxy(ro):
					if proxySrc(ro) != id {
						werr = fmt.Errorf("core: cluster %d: object @%d holds proxy @%d sourced at cluster %d",
							id, o.ID(), rid, proxySrc(ro))
						return rid
					}
					slotOf[rid] = len(outbound)
					outbound = append(outbound, heap.Ref(rid))
					slotProxies = append(slotProxies, rid)
					slotTargets = append(slotTargets, proxyUltimate(ro))
				case isObjProxy(ro):
					remoteOf[rid] = heap.Nil() // marker; encoded below
				default:
					werr = fmt.Errorf("core: cluster %d: object @%d holds un-proxied foreign reference @%d",
						id, o.ID(), rid)
				}
				return rid
			})
		}
		if werr != nil {
			return SwapEvent{}, werr
		}
	}

	// Negotiate the wire format with the donor neighborhood before encoding:
	// rank the donors once (format advertisements ride the same Stats probe
	// that weighs free capacity), match them against the runtime's preference
	// order, and prefer a dirty-only delta against the retained base when one
	// is anchored and cheap enough.
	span.Phase("negotiate")
	key := rt.nextKey(id)
	span.SetKey(key)
	k := o.replicas
	if k < 1 {
		k = rt.Replicas()
	}
	plan, err := rt.negotiate(ctx, o, key, k, base, dirty, memberIDs)
	if err != nil {
		return SwapEvent{}, fmt.Errorf("core: swap-out cluster %d: %w", id, err)
	}
	if plan.delta {
		// A delta's slot table must keep the base table as a prefix: slot
		// references encoded inside unchanged base objects resolve against
		// THIS swap-out's replacement, so index i must still reach the same
		// ultimate target the base's slot i did. Base slots whose target is no
		// longer referenced get a nil placeholder (nothing unchanged can
		// reference them — the referencing object would be dirty); proxies new
		// since the base are appended after the prefix.
		targetProxy := make(map[heap.ObjID]heap.ObjID, len(slotTargets))
		for i, t := range slotTargets {
			targetProxy[t] = slotProxies[i]
		}
		remapped := make([]heap.Value, 0, len(plan.baseSlots)+len(outbound))
		newSlotOf := make(map[heap.ObjID]int, len(slotOf))
		newTargets := make([]heap.ObjID, 0, cap(remapped))
		used := make(map[heap.ObjID]bool, len(slotProxies))
		for _, t := range plan.baseSlots {
			if pid, ok := targetProxy[t]; ok && t != heap.NilID {
				newSlotOf[pid] = len(remapped)
				remapped = append(remapped, heap.Ref(pid))
				newTargets = append(newTargets, t)
				used[pid] = true
				continue
			}
			remapped = append(remapped, heap.Nil())
			newTargets = append(newTargets, heap.NilID)
		}
		for i, pid := range slotProxies {
			if used[pid] {
				continue
			}
			newSlotOf[pid] = len(remapped)
			remapped = append(remapped, heap.Ref(pid))
			newTargets = append(newTargets, slotTargets[i])
		}
		outbound, slotOf, slotTargets = remapped, newSlotOf, newTargets
	}

	// Encode the members (the dirty subset for a delta) straight from the
	// heap in the negotiated wire format, with internal/slot/remote reference
	// classification. The frame lives in the pooled encoder until this
	// swap-out is over: stores copy what they keep (store.Store), and nothing
	// below holds on to it past the shipment and the checksum.
	span.Phase("encode")
	encodeRef := func(rid heap.ObjID) (xmlcodec.Value, error) {
		if members[rid] {
			return xmlcodec.InternalRef(rid), nil
		}
		if slot, ok := slotOf[rid]; ok {
			return xmlcodec.SlotRef(slot), nil
		}
		if _, ok := remoteOf[rid]; ok {
			ro, err := rt.h.Get(rid)
			if err != nil {
				return xmlcodec.Value{}, err
			}
			return xmlcodec.RemoteRefOf(ObjProxyRemote(ro), ObjProxyClass(ro)), nil
		}
		return xmlcodec.Value{}, fmt.Errorf("core: unclassified reference @%d", rid)
	}
	enc := wire.NewEncoder()
	defer enc.Release()
	encode := func(p shipPlan) ([]byte, error) {
		encObjs := objs
		if p.delta {
			encObjs = make([]*heap.Object, 0, len(p.changed))
			for _, obj := range objs {
				if p.changed[obj.ID()] {
					encObjs = append(encObjs, obj)
				}
			}
		}
		start := rt.obsReg.Clock().Now()
		payload, err := enc.EncodeObjects(p.format, key, encObjs, encodeRef, &wire.EncodeOpts{
			BaseKey: p.baseKey,
			Removed: p.removed,
			Codecs:  rt.classCodecs,
		})
		if err != nil {
			return nil, fmt.Errorf("core: encode cluster %d as %s: %w", id, p.format, err)
		}
		rt.recordWire(p.format, "encode", len(payload), rt.obsReg.Clock().Now().Sub(start))
		return payload, nil
	}
	payload, err := encode(plan)
	if err != nil {
		return SwapEvent{}, err
	}
	payloadBytes := len(payload)
	span.SetFormat(string(plan.format))
	span.AddBytes(int64(payloadBytes))

	// Phase 3 — shipment, with a brief exclusive window to build the
	// replacement-object. The replacement is pinned the moment it exists
	// (collection would otherwise reclaim it before the inbound proxies
	// reference it), and a pinned object is a GC root: its field writes must
	// not interleave with a concurrent Collect's mark on another shard's
	// behalf, so allocation and initialization happen under this cluster's
	// shard lock (beginMutate keeps the evictor out, as in every section
	// that allocates while holding swap state). The shipment itself is IO
	// and runs unlocked; the destination device is recorded after it lands
	// (failover may move it).
	span.Phase("ship")
	rt.lockShard(sh)
	endMutate := rt.beginMutate(sh)
	repl, err := rt.allocMiddleware(rt.replacementClass)
	if err == nil {
		rt.h.Pin(repl.ID())
		defer rt.h.Unpin(repl.ID())
		if err = repl.SetFieldByName(fldClust, heap.Int(int64(id))); err == nil {
			if err = repl.SetFieldByName(fldOut, heap.List(outbound...)); err == nil {
				err = repl.SetFieldByName(fldKey, heap.Str(key))
			}
		}
	}
	endMutate()
	sh.mu.Unlock()
	if err != nil {
		return SwapEvent{}, fmt.Errorf("core: replacement for cluster %d: %w", id, err)
	}

	// Ship first: a failed transfer must leave the graph untouched. The key
	// is device-independent, so the payload lands unchanged (byte-identical
	// replicas) on whichever donors accept it. A failed delta shipment falls
	// back to a freshly negotiated full shipment — the base donors may have
	// vanished between the negotiation probe and the transfer.
	devices, attempted, rep, err := rt.shipPlanned(ctx, o, id, key, payload, plan)
	if err != nil && plan.delta {
		rt.logger.Warn("delta shipment failed; renegotiating full",
			"trace", trace, "cluster", uint32(id), "err", err)
		plan, err = rt.negotiateFull(ctx, o, key, k)
		if err == nil {
			payload, err = encode(plan)
		}
		if err == nil {
			payloadBytes = len(payload)
			span.SetFormat(string(plan.format))
			span.AddBytes(int64(len(payload)))
			devices, attempted, rep, err = rt.shipPlanned(ctx, o, id, key, payload, plan)
		}
	}
	if err != nil {
		_ = rt.h.Remove(repl.ID())
		return SwapEvent{}, err
	}
	span.SetDevice(devices[0])
	span.SetReplicas(devices)
	span.AddBytes(int64(payloadBytes))

	// Phase 4 — exclusive on this cluster's shard: detach the cluster from
	// the application graph. Commits on sibling shards proceed concurrently.
	span.Phase("commit")
	rt.lockShard(sh)
	oldBase, err := rt.commitSwapOut(id, repl, devices, key, payloadBytes,
		crc32.ChecksumIEEE(payload), residentBytes, plan, memberIDs, slotTargets)
	sh.mu.Unlock()
	if err != nil {
		return SwapEvent{}, err
	}
	committed = true

	// A full shipment that just became the new delta base obsoletes the old
	// base: reclaim its donor space now that nothing references it.
	if oldBase.key != "" && oldBase.key != key {
		for _, d := range oldBase.devices {
			s, err := rt.stores.Lookup(d)
			if err != nil || s.Drop(ctx, oldBase.key) != nil {
				rt.mgr.deferDrop(d, oldBase.key, id)
			}
		}
	}

	shortfall := rep.Requested - len(devices)
	if shortfall < 0 {
		shortfall = 0
	}
	ev = SwapEvent{Cluster: id, Device: devices[0], Key: key, Objects: len(objs),
		Bytes: payloadBytes, Attempted: attempted, Replicas: devices, Trace: trace,
		Format: string(plan.format), Requested: rep.Requested, Quorum: rep.Quorum,
		Shortfall: shortfall, Cause: rt.resolveCause(o.cause)}
	ev.Phases, ev.Duration = span.End()
	rt.recordFault("swap_out", id, ev.Cause, ev.Duration, payloadBytes)
	// A prefetched cluster evicted before any touch was a wasted round trip;
	// let the fault engine settle its inventory accounting.
	rt.faults.NoteEvicted(uint32(id))
	rt.logger.Info("swap-out", "trace", trace, "cluster", uint32(id),
		"device", devices[0], "replicas", len(devices), "key", key,
		"format", string(plan.format), "objects", len(objs),
		"bytes", payloadBytes, "dur", ev.Duration)
	rt.emit(event.TopicSwapOut, ev)
	return ev, nil
}

// beginSwapOut validates and reserves a cluster for swap-out, additionally
// snapshotting the delta-anchor state (retained base + dirty set) the
// negotiate phase works from. Caller holds the cluster's shard lock.
func (rt *Runtime) beginSwapOut(id ClusterID) ([]heap.ObjID, map[heap.ObjID]bool, shipmentBase, map[heap.ObjID]bool, error) {
	var noBase shipmentBase
	ts := rt.mgr.tab(id)
	ts.mu.Lock()
	cs, err := ts.state(id)
	if err != nil {
		ts.mu.Unlock()
		return nil, nil, noBase, nil, err
	}
	if cs.busy {
		ts.mu.Unlock()
		return nil, nil, noBase, nil, fmt.Errorf("%w: cluster %d", ErrClusterBusy, id)
	}
	if cs.swapped {
		ts.mu.Unlock()
		return nil, nil, noBase, nil, fmt.Errorf("%w: cluster %d", ErrClusterSwapped, id)
	}
	if len(cs.objects) == 0 {
		ts.mu.Unlock()
		return nil, nil, noBase, nil, fmt.Errorf("%w: %d", ErrClusterEmpty, id)
	}
	members := make(map[heap.ObjID]bool, len(cs.objects))
	memberIDs := make([]heap.ObjID, 0, len(cs.objects))
	for oid := range cs.objects {
		members[oid] = true
		memberIDs = append(memberIDs, oid)
	}
	base := shipmentBase{
		key:     cs.base.key,
		format:  cs.base.format,
		devices: append([]string(nil), cs.base.devices...),
		members: append([]heap.ObjID(nil), cs.base.members...),
		slots:   append([]heap.ObjID(nil), cs.base.slots...),
	}
	var dirty map[heap.ObjID]bool
	if len(cs.dirty) > 0 {
		dirty = make(map[heap.ObjID]bool, len(cs.dirty))
		for oid := range cs.dirty {
			dirty[oid] = true
		}
	}
	cs.busy = true
	ts.mu.Unlock()
	sort.Slice(memberIDs, func(i, j int) bool { return memberIDs[i] < memberIDs[j] })

	// Refuse to detach a cluster with in-flight invocations: its objects are
	// live on the stack and would collide with a later reload.
	if err := rt.checkInactive(id, members); err != nil {
		rt.setBusy(id, false)
		return nil, nil, noBase, nil, err
	}
	return memberIDs, members, base, dirty, nil
}

// commitSwapOut publishes a shipped cluster's swapped state: the replica set
// is recorded on the replacement (comma-joined, primary first), every
// inbound proxy is re-targeted at it, and the manager record flips to
// swapped. When delta shipment is enabled, a full shipment additionally
// rotates the delta anchor — it becomes the new base, the dirty set resets,
// and the previous base (returned to the caller) is due for donor cleanup; a
// delta shipment leaves base and dirty untouched, since dirty is tracked
// relative to the base, not to the last delta.
//
// Once the record reads swapped, the shipped members (memberIDs — exactly the
// objects that were encoded; nothing that joined later) are freed in one heap
// critical section: every inbound proxy now targets the replacement-object
// and no member is on the invocation stack, so they are garbage by
// construction and a cluster is never in two places. Caller holds the
// cluster's shard lock; the free takes the heap lock last (DESIGN §6) and
// runs member finalizers after releasing it.
func (rt *Runtime) commitSwapOut(id ClusterID, repl *heap.Object, devices []string, key string,
	payloadBytes int, payloadCRC uint32, residentBytes int64, plan shipPlan,
	memberIDs []heap.ObjID, slotTargets []heap.ObjID) (shipmentBase, error) {
	if err := repl.SetFieldByName(fldStore, heap.Str(strings.Join(devices, ","))); err != nil {
		return shipmentBase{}, err
	}
	for _, pid := range rt.mgr.inboundProxies(id) {
		p, err := rt.h.Get(pid)
		if err != nil {
			continue // collected since snapshot; finalizer will purge
		}
		if err := p.SetFieldByName(fldTarget, repl.RefTo()); err != nil {
			return shipmentBase{}, fmt.Errorf("core: patch inbound proxy @%d: %w", pid, err)
		}
	}

	ts := rt.mgr.tab(id)
	ts.mu.Lock()
	cs, err := ts.state(id)
	if err != nil {
		ts.mu.Unlock()
		return shipmentBase{}, err
	}
	cs.swapped = true
	cs.busy = false
	cs.replacement = repl.ID()
	cs.devices = append([]string(nil), devices...)
	cs.key = key
	cs.payloadBytes = payloadBytes
	cs.crc = payloadCRC
	cs.bytesAtSwap = residentBytes
	cs.format = string(plan.format)
	cs.swapOuts++
	var oldBase shipmentBase
	if rt.deltaEnabled() && !plan.delta {
		oldBase = cs.base
		cs.base = shipmentBase{
			key:     key,
			devices: append([]string(nil), devices...),
			format:  string(plan.format),
			crc:     payloadCRC,
			members: append([]heap.ObjID(nil), memberIDs...),
			slots:   append([]heap.ObjID(nil), slotTargets...),
		}
		cs.dirty = nil
	}
	ts.mu.Unlock()
	rt.h.Free(memberIDs)
	return oldBase, nil
}

// setBusy clears (or sets) a cluster's in-flight reservation.
func (rt *Runtime) setBusy(id ClusterID, busy bool) {
	ts := rt.mgr.tab(id)
	ts.mu.Lock()
	if cs, ok := ts.clusters[id]; ok {
		cs.busy = busy
	}
	ts.mu.Unlock()
}

// shipPlanned places an encoded cluster on the donors the negotiate phase
// selected: pinned (WithDevice) shipments write exactly one copy in the
// negotiated format, everything else ships over the plan's ranked candidate
// list — the planner re-checks capacity against the encoded size and skips
// donors that do not accept the plan's format, writing K format-uniform
// replicas under a majority quorum. It returns the accepting replica set
// (rank order, primary first), the donors that rejected the payload, and the
// planner's shipment report.
func (rt *Runtime) shipPlanned(ctx context.Context, o swapOpts, id ClusterID, key string, data []byte, plan shipPlan) ([]string, []string, placement.ShipReport, error) {
	if o.device != "" {
		s, err := rt.stores.Lookup(o.device)
		if err != nil {
			return nil, nil, placement.ShipReport{}, fmt.Errorf("core: swap-out cluster %d: %w", id, err)
		}
		if err := store.PutWith(ctx, s, key, data, store.PutOpts{Format: string(plan.format)}); err != nil {
			return nil, nil, placement.ShipReport{}, fmt.Errorf("core: ship cluster %d to %s: %w", id, o.device, err)
		}
		return []string{o.device}, nil,
			placement.ShipReport{Replicas: []string{o.device}, Requested: 1, Quorum: 1}, nil
	}
	if rt.placer == nil {
		return nil, nil, placement.ShipReport{}, fmt.Errorf("core: swap-out cluster %d: %w", id, ErrNoPlacement)
	}
	rep, err := rt.placer.ShipRanked(ctx, placement.ShipRequest{
		Key:      key,
		Data:     data,
		Replicas: plan.replicas,
		Format:   string(plan.format),
		NoExtend: o.noFailover,
		OnFailure: func(device string, perr error) {
			rt.logger.Warn("swap-out failover", "trace", obs.TraceFrom(ctx),
				"cluster", uint32(id), "device", device, "err", perr)
			rt.emit(event.TopicSwapFailover, SwapEvent{
				Cluster: id, Device: device, Key: key, Bytes: len(data),
				Trace: obs.TraceFrom(ctx),
			})
		},
	}, plan.ranked)
	if err != nil {
		return nil, rep.Attempted, rep, fmt.Errorf("core: ship cluster %d: %w", id, err)
	}
	return rep.Replicas, rep.Attempted, rep, nil
}

// checkInactive fails when any member of the cluster is on the invocation
// stack.
func (rt *Runtime) checkInactive(id ClusterID, members map[heap.ObjID]bool) error {
	for _, sid := range rt.stack {
		if members[sid] {
			return fmt.Errorf("%w: cluster %d (object @%d on stack)", ErrClusterActive, id, sid)
		}
	}
	return nil
}

// SwapIn fetches a swapped-out cluster back from its device, reinstalls its
// objects under their original identities, re-patches every inbound proxy,
// and retires the replacement-object. Invoking any inbound proxy of a swapped
// cluster does this implicitly; SwapIn is the explicit form (prefetch).
//
// The fetch reads the cluster's replicas in preference (rank) order and
// falls through on error: a dead primary costs one failed request, not the
// reload — the payload is byte-identical on every replica, so whichever
// donor answers first serves the swap-in. Replicas that failed are listed
// in SwapEvent.Attempted, and their loss is announced as a swap.readrepair
// event so the background repair loop can re-replicate everything else
// those donors held.
//
// WithDeadline / WithContext bound the fetch: a timed-out swap-in reports
// the error and leaves the cluster consistently swapped, so a later retry
// (or a reconnecting device) can still reload it. Destination options
// (WithDevice, WithNoFailover) do not apply — a swapped cluster lives where
// it was shipped.
// Like SwapOut, SwapIn may run concurrently for distinct clusters: the fetch
// and decode overlap freely, and only the install/re-patch phase is
// serialized under the swap lock. A cluster mid-transition elsewhere reports
// ErrClusterBusy.
// swapInDirect is the uncoalesced swap-in path. The public SwapIn (fault.go
// glue) wraps it in the fault engine's single-flight table so concurrent
// faults on the same cluster park on one fetch; everything below runs once
// per flight, on the leader's goroutine.
func (rt *Runtime) swapInDirect(id ClusterID, opts ...SwapOption) (ev SwapEvent, retErr error) {
	o, ctx, cancel := resolveSwapOpts(opts)
	defer cancel()
	if rt.stores == nil {
		return SwapEvent{}, ErrNoStores
	}
	trace := rt.newTrace()
	ctx = obs.ContextWithTrace(ctx, trace)
	span := rt.tracer.Start("swap_in")
	span.SetTrace(trace)
	span.SetCluster(uint32(id))
	defer func() {
		if retErr != nil {
			rt.swapErrors.With("swap_in").Inc()
			span.Fail(retErr)
			rt.logger.Warn("swap-in failed",
				"trace", trace, "cluster", uint32(id), "err", retErr)
		}
	}()

	// Phase 1 — exclusive on this cluster's shard: validate and reserve.
	span.Phase("reserve")
	sh := rt.shardOf(id)
	rt.lockShard(sh)
	ts := rt.mgr.tab(id)
	ts.mu.Lock()
	cs, err := ts.state(id)
	if err != nil {
		ts.mu.Unlock()
		sh.mu.Unlock()
		return SwapEvent{}, err
	}
	if cs.busy {
		ts.mu.Unlock()
		sh.mu.Unlock()
		return SwapEvent{}, fmt.Errorf("%w: cluster %d", ErrClusterBusy, id)
	}
	if !cs.swapped {
		ts.mu.Unlock()
		sh.mu.Unlock()
		return SwapEvent{}, fmt.Errorf("%w: cluster %d", ErrClusterLoaded, id)
	}
	cs.busy = true
	devices := append([]string(nil), cs.devices...)
	key := cs.key
	replID := cs.replacement
	needBytes := cs.bytesAtSwap
	wantCRC := cs.crc
	baseKey, baseCRC := cs.base.key, cs.base.crc
	ts.mu.Unlock()
	sh.mu.Unlock()
	committed := false
	defer func() {
		if !committed {
			rt.setBusy(id, false)
		}
	}()

	repl, err := rt.h.Get(replID)
	if err != nil {
		return SwapEvent{}, fmt.Errorf("core: cluster %d replacement gone (cluster is garbage): %w", id, err)
	}
	// Keep the replacement alive across any eviction below.
	rt.h.Pin(replID)
	defer rt.h.Unpin(replID)

	// Phase 2 — concurrent: fetch and decode the shipment. Replicas are
	// byte-identical, so read them in preference order and fall through on
	// error — a dead primary costs one failed request, not the reload.
	span.Phase("fetch")
	span.SetKey(key)
	span.SetReplicas(devices)
	var (
		data    []byte
		dataCRC uint32 // of the copy being served, taken once
		device  string
		serving store.Store
		failed  []string
		lastErr error
	)
	for _, d := range devices {
		s, err := rt.stores.Lookup(d)
		if err == nil {
			// Route through the fault engine's donor batcher: misses that
			// land on a donor already serving a fetch ride one multi-key
			// round trip instead of issuing their own.
			data, err = rt.faults.Fetch(ctx, d, s, key)
			// Replicas are byte-identical, so the checksum recorded at
			// swap-out convicts a copy that rotted at rest; with K>=2 the
			// reload falls through to an intact replica.
			if err == nil {
				dataCRC = crc32.ChecksumIEEE(data)
				if wantCRC != 0 && dataCRC != wantCRC {
					err = fmt.Errorf("%w: device %s key %s", ErrCorruptReplica, d, key)
				}
			}
			if err == nil {
				device = d
				serving = s
				break
			}
		}
		failed = append(failed, d)
		lastErr = err
		rt.logger.Warn("swap-in replica failed", "trace", trace,
			"cluster", uint32(id), "device", d, "err", err)
		if ctx.Err() != nil {
			break
		}
	}
	if device == "" {
		if lastErr == nil {
			lastErr = ErrNoLiveReplica
		}
		return SwapEvent{}, fmt.Errorf("core: fetch cluster %d (replicas %s): %w",
			id, strings.Join(devices, ","), lastErr)
	}
	span.SetDevice(device)
	span.AddBytes(int64(len(data)))

	// Validate and stage whatever format the shipment self-describes as:
	// every structural check runs here, unlocked, and the objects come out as
	// field vectors ready to install — a frame that fails leaves the heap and
	// the cluster table untouched, and evicts nothing. A delta fetches its
	// base from the SAME donor that served it — deltas only ever ship to
	// donors holding the base, so a donor that answered with the delta is the
	// one place the base is known to live.
	span.Phase("decode")
	fid, _ := wire.Detect(data)
	decodeStart := rt.obsReg.Clock().Now()
	staged, err := wire.Stage(data, rt.reg, &wire.DecodeOpts{
		FetchBase: func(k string) ([]byte, error) {
			b, err := rt.faults.Fetch(ctx, device, serving, k)
			if err == nil && k == baseKey && baseCRC != 0 && crc32.ChecksumIEEE(b) != baseCRC {
				return nil, fmt.Errorf("%w: device %s base %s", ErrCorruptReplica, device, k)
			}
			return b, err
		},
		Codecs: rt.classCodecs,
	})
	if err != nil {
		return SwapEvent{}, fmt.Errorf("core: unwrap cluster %d: %w", id, err)
	}
	rt.recordWire(fid, "decode", len(data), rt.obsReg.Clock().Now().Sub(decodeStart))
	span.SetFormat(string(fid))
	if staged.ClusterID != key {
		return SwapEvent{}, fmt.Errorf("core: cluster %d: device returned wrong shipment %q", id, staged.ClusterID)
	}

	// Make room before installing, if we can tell it is needed. Demand a
	// little headroom beyond the payload: the reload path itself allocates
	// middleware objects (proxies for un-replicated edges, patched state).
	// This runs outside the swap lock — the evictor's own swap-outs take it.
	span.Phase("evict")
	if cap := rt.h.Capacity(); cap > 0 && rt.evictor != nil && !rt.evicting.Load() {
		const reloadSlack = 512
		appLimit := cap - rt.h.Reserve()
		if free := appLimit - rt.h.Used(); free < needBytes+reloadSlack {
			if err := rt.runEvictor(needBytes + reloadSlack - free); err != nil {
				return SwapEvent{}, fmt.Errorf("core: make room for cluster %d: %w", id, err)
			}
		}
	}

	// Phase 3 — exclusive on this cluster's shard: install, re-patch and
	// publish, all in one critical section so no collection can run between
	// installation (nursery-fresh objects) and the proxy patches that make
	// them reachable — Collect's stop-the-world acquisition cannot slip in
	// while this shard lock is held.
	span.Phase("install")
	rt.lockShard(sh)
	endMutate := rt.beginMutate(sh)
	installed, payload, err := rt.commitSwapIn(id, cs, repl, staged, fid, devices, dataCRC)
	endMutate()
	sh.mu.Unlock()
	if err != nil {
		return SwapEvent{}, err
	}
	committed = true

	// Every replica's copy is stale once the cluster is live again. Drops
	// that fail (a replica on an unreachable donor) are deferred so the
	// payload is reclaimed when the donor returns. Delta-enabled runtimes
	// deviate: a reloaded FULL shipment stays on its donors as the anchor a
	// future delta re-ships against, while a reloaded delta drops only its
	// own key — the base underneath it stays anchored either way.
	if !rt.keepOnReload {
		switch {
		case fid == wire.FormatDelta:
			for _, d := range devices {
				s, err := rt.stores.Lookup(d)
				if err != nil || s.Drop(ctx, key) != nil {
					rt.mgr.deferDrop(d, key, id)
				}
			}
		case rt.deltaEnabled():
			// Keep the payload: it is (or just became) the delta base.
		default:
			for _, d := range devices {
				s, err := rt.stores.Lookup(d)
				if err != nil || s.Drop(ctx, key) != nil {
					rt.mgr.deferDrop(d, key, id)
				}
			}
		}
	}

	ev = SwapEvent{Cluster: id, Device: device, Key: key, Objects: installed,
		Bytes: payload, Attempted: failed, Trace: trace, Format: string(fid),
		Cause: rt.resolveCause(o.cause)}
	ev.Phases, ev.Duration = span.End()
	rt.recordFault("swap_in", id, ev.Cause, ev.Duration, payload)
	rt.logger.Info("swap-in", "trace", trace, "cluster", uint32(id),
		"device", device, "key", key, "objects", installed,
		"bytes", payload, "dur", ev.Duration)
	rt.emit(event.TopicSwapIn, ev)
	// A dead replica here means the donor likely lost everything it held:
	// announce it so the repair loop re-replicates the rest.
	if len(failed) > 0 {
		rt.emit(event.TopicReadRepair, SwapEvent{
			Cluster: id, Device: failed[0], Key: key,
			Attempted: failed, Trace: trace,
		})
	}
	return ev, nil
}

// commitSwapIn reinstalls a fetched cluster and flips its record to loaded.
// On a delta-enabled runtime a reloaded full shipment re-anchors the delta
// base (resident state now provably equals the retained payload, so the dirty
// set resets and the base membership/slot table are refreshed — this is also
// what re-arms delta encoding after a checkpoint restore dropped the
// membership snapshot); a reloaded delta leaves base and dirty untouched.
// Caller holds the cluster's shard lock inside a beginMutate section
// (installation allocates; an allocation failure here must not re-enter the
// evictor).
func (rt *Runtime) commitSwapIn(id ClusterID, cs *clusterState, repl *heap.Object, staged *xmlcodec.Installer, fid wire.FormatID, devices []string, dataCRC uint32) (int, int, error) {
	// Resolve replacement slots back to the retained outbound proxies.
	outboundVal, err := repl.FieldByName(fldOut)
	if err != nil {
		return 0, 0, err
	}
	outbound, err := outboundVal.List()
	if err != nil {
		return 0, 0, err
	}
	decodeRef := func(v xmlcodec.Value) (heap.Value, error) {
		switch v.RefClass {
		case xmlcodec.RefSlot:
			if v.Slot < 0 || v.Slot >= len(outbound) {
				return heap.Nil(), fmt.Errorf("core: replacement slot %d out of range (%d slots)", v.Slot, len(outbound))
			}
			return outbound[v.Slot], nil
		case xmlcodec.RefRemote:
			// An un-replicated edge: re-synthesize its object-fault proxy.
			pid, err := rt.ObjProxyFor(v.Target, v.Class)
			if err != nil {
				return heap.Nil(), err
			}
			return heap.Ref(pid), nil
		default:
			return heap.Nil(), fmt.Errorf("core: unexpected reference class %v in swapped cluster", v.RefClass)
		}
	}

	// The whole cluster becomes resident in one heap critical section, or none
	// of it does. A cluster is in exactly one place — swap-out freed every
	// shipped member at commit — so a member that is already resident means
	// the bookkeeping was bypassed, and the batch refuses it instead of
	// discarding whatever it holds. Reinstallation restores state, it is not a
	// mutation: the batch fires no write or access observers.
	installed, err := staged.Install(rt.h, decodeRef)
	if err != nil {
		return 0, 0, fmt.Errorf("core: install cluster %d: %w", id, err)
	}

	// Re-patch inbound proxies onto the restored objects.
	for _, pid := range rt.mgr.inboundProxies(id) {
		p, err := rt.h.Get(pid)
		if err != nil {
			continue
		}
		if err := p.SetFieldByName(fldTarget, heap.Ref(proxyUltimate(p))); err != nil {
			return 0, 0, fmt.Errorf("core: re-patch inbound proxy @%d: %w", pid, err)
		}
	}

	ts := rt.mgr.tab(id)
	ts.mu.Lock()
	key := cs.key
	cs.swapped = false
	cs.busy = false
	cs.replacement = heap.NilID
	cs.devices = nil
	cs.key = ""
	cs.format = ""
	payload := cs.payloadBytes
	cs.payloadBytes = 0
	cs.crc = 0
	cs.bytesAtSwap = 0
	cs.swapIns++
	if rt.deltaEnabled() && fid != wire.FormatDelta {
		memberIDs := make([]heap.ObjID, 0, len(installed))
		for _, o := range installed {
			memberIDs = append(memberIDs, o.ID())
		}
		sort.Slice(memberIDs, func(i, j int) bool { return memberIDs[i] < memberIDs[j] })
		slots := make([]heap.ObjID, len(outbound))
		for i, v := range outbound {
			if rid, err := v.Ref(); err == nil && rid != heap.NilID {
				if p, perr := rt.h.Get(rid); perr == nil {
					slots[i] = proxyUltimate(p)
				}
			}
		}
		cs.base = shipmentBase{
			key:     key,
			devices: append([]string(nil), devices...),
			format:  string(fid),
			crc:     dataCRC,
			members: memberIDs,
			slots:   slots,
		}
		cs.dirty = nil
	}
	ts.mu.Unlock()
	return len(installed), payload, nil
}

// EvictColdest is a ready-made evictor: it first runs one collection (garbage
// alone may satisfy the request — the cheap path a real VM tries first), then
// swaps out eligible clusters in ascending recency order until need bytes
// have been freed. Install it with SetEvictor, or let the policy engine drive
// finer-grained decisions.
func (rt *Runtime) EvictColdest(need int64) error {
	return rt.EvictBy(VictimColdest, need)
}

// Evictor returns an evictor hook bound to the given victim strategy,
// suitable for SetEvictor.
func (rt *Runtime) Evictor(strategy VictimStrategy) func(need int64) error {
	return func(need int64) error { return rt.EvictBy(strategy, need) }
}

// EvictorWith returns an evictor hook bound to the given options (strategy
// and parallelism), suitable for SetEvictor.
func (rt *Runtime) EvictorWith(o EvictOptions) func(need int64) error {
	return func(need int64) error { return rt.EvictWith(o, need) }
}

// EvictBy frees at least need bytes: collect once, then swap out victims in
// strategy order. Progress is measured against actual heap occupancy, so
// middleware allocations made by the eviction itself (replacement-objects,
// proxies) are accounted honestly.
func (rt *Runtime) EvictBy(strategy VictimStrategy, need int64) error {
	return rt.EvictWith(EvictOptions{Strategy: strategy}, need)
}

// EvictOptions tunes an eviction pass.
type EvictOptions struct {
	// Strategy orders the victim candidates (default VictimColdest).
	Strategy VictimStrategy
	// Parallelism > 1 swaps out up to that many victims concurrently per
	// batch, overlapping cluster encoding with device shipment. 0 or 1 keeps
	// the sequential one-victim-at-a-time behavior.
	Parallelism int
}

// EvictWith frees at least need bytes under the given options. A pass costs
// one collection plus O(victim) per swap-out: garbage is tried first, in a
// single pressure collection that also burns the nursery grace of
// pressureCycles ordinary cycles, and each victim's bytes are back the moment
// its swap-out commits, so occupancy is re-read after every swap without
// collecting again. Victims are ranked once and walked in order (see
// SwapOutVictims); a fresh ranking happens only when the list is exhausted
// and the target is still unmet.
func (rt *Runtime) EvictWith(o EvictOptions, need int64) error {
	if o.Strategy == 0 {
		o.Strategy = VictimColdest
	}
	target := rt.h.Used() - need
	if rt.h.Used() > target {
		rt.collect(pressureCycles)
	}
	unmet := func(int) int {
		if rt.h.Used() <= target {
			return 0
		}
		return math.MaxInt
	}
	for rt.h.Used() > target {
		swapped, err := rt.SwapOutVictims(o.Strategy, o.Parallelism, unmet)
		if err != nil {
			return err
		}
		if swapped == 0 {
			return errors.New("core: no cluster left to evict (none loaded, or all active)")
		}
	}
	return nil
}

// SwapOutVictims ranks the eligible clusters once under strategy and swaps
// them out in that order — skipping clusters that turn out to be active,
// busy, emptied or already swapped — for as long as more, called with the
// number swapped so far, reports that further victims are wanted. It is the
// one victim walk behind the evictor and the policy engine's swap-out
// action. With parallelism > 1 the victims ship in batches of at most that
// width (and never more than more asks for) through SwapOutMany. It returns
// how many clusters were swapped out.
func (rt *Runtime) SwapOutVictims(strategy VictimStrategy, parallelism int, more func(swapped int) int, opts ...SwapOption) (int, error) {
	if parallelism < 1 {
		parallelism = 1
	}
	victims := rt.mgr.SelectVictims(strategy)
	swapped := 0
	for start := 0; start < len(victims); {
		width := more(swapped)
		if width <= 0 {
			break
		}
		if width > parallelism {
			width = parallelism
		}
		if width > len(victims)-start {
			width = len(victims) - start
		}
		batch := victims[start : start+width]
		start += width
		releases := make([]func(), len(batch))
		for i, v := range batch {
			releases[i] = rt.beginShardEvict(v)
		}
		n, err := rt.swapOutBatch(batch, opts)
		for _, release := range releases {
			release()
		}
		swapped += n
		if err != nil {
			return swapped, err
		}
	}
	return swapped, nil
}

// swapOutBatch swaps out one batch of ranked victims and reports how many
// were shipped; a victim that turns out ineligible is skipped, not an error.
// A single victim runs on the caller's goroutine, several share a worker
// pool as wide as the batch.
func (rt *Runtime) swapOutBatch(batch []ClusterID, opts []SwapOption) (int, error) {
	if len(batch) > 1 {
		evs, err := rt.SwapOutMany(batch, len(batch), opts...)
		return len(evs), err
	}
	if _, err := rt.SwapOut(batch[0], opts...); err != nil {
		if skippableVictimErr(err) {
			return 0, nil
		}
		return 0, err
	}
	return 1, nil
}

// skippableVictimErr reports errors that disqualify one victim without
// failing the whole eviction: the cluster is in use, mid-transition on
// another goroutine, or no longer holds anything to swap.
func skippableVictimErr(err error) bool {
	return errors.Is(err, ErrClusterActive) || errors.Is(err, ErrClusterBusy) ||
		errors.Is(err, ErrClusterSwapped) || errors.Is(err, ErrClusterEmpty)
}

// SwapOutMany swaps out the given clusters through a bounded worker pool of
// the given width. Each worker snapshots and encodes its victim, then ships
// it; because only the snapshot and commit phases serialize, the encode of
// one cluster overlaps the device transfer of another — the paper's 700 Kbps
// link stays busy while the CPU renders the next shipment.
//
// Clusters that are active, busy, already swapped or empty are skipped. The
// returned events cover the clusters actually shipped, in input order; the
// first hard failure is returned after all workers finish.
//
// Dispatch is scheduled per shard: the victims are interleaved round-robin
// across their swap shards, so when one shard's commit holds up a worker the
// next dispatched victim lands on a different shard instead of queueing
// behind its sibling.
func (rt *Runtime) SwapOutMany(ids []ClusterID, parallelism int, opts ...SwapOption) ([]SwapEvent, error) {
	if parallelism < 1 {
		parallelism = 1
	}
	if parallelism > len(ids) {
		parallelism = len(ids)
	}
	sem := make(chan struct{}, parallelism)
	events := make([]*SwapEvent, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for _, i := range rt.interleaveByShard(ids) {
		id := ids[i]
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, id ClusterID) {
			defer wg.Done()
			defer func() { <-sem }()
			ev, err := rt.SwapOut(id, opts...)
			if err != nil {
				if !skippableVictimErr(err) {
					errs[i] = err
				}
				return
			}
			events[i] = &ev
		}(i, id)
	}
	wg.Wait()
	out := make([]SwapEvent, 0, len(ids))
	for _, ev := range events {
		if ev != nil {
			out = append(out, *ev)
		}
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
