package core

import (
	"fmt"
	"hash/crc32"
	"maps"
	"slices"
	"strings"

	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/obs"
	"objectswap/internal/placement"
	"objectswap/internal/store"
	"objectswap/internal/wire"
	"objectswap/internal/xmlcodec"
)

// SwapOut detaches the given swap-cluster from the application graph and
// ships its objects to nearby devices. The procedure follows Section 3:
//
//  1. a replacement-object is created and filled with references to every
//     outbound swap-cluster-proxy referenced by the cluster's objects;
//  2. the wrapping of the cluster's objects is stored under a fresh key
//     (outbound references encode as replacement slots);
//  3. every inbound swap-cluster-proxy is patched to target the
//     replacement-object;
//  4. the cluster's shipped objects, now unreachable from the application,
//     are reclaimed on the spot: their bytes are back when SwapOut returns.
//
// The rendezvous planner places the payload on the top K donors for the swap
// key (K = WithReplicas or the runtime default, 1) under a majority write
// quorum, replacing a rejecting donor by the next-ranked one (listed in
// SwapEvent.Attempted, announced as swap.failover). Options bound the whole
// operation (WithDeadline), pin the destination (WithDevice) or fail fast
// (WithNoFailover).
//
// SwapOut is safe to call concurrently for distinct clusters: reserve, the
// replacement build and commit each hold only the cluster's shard lock, and
// everything between runs unlocked. While the cluster is reserved-out a
// second caller gets ErrClusterBusy; a failure in any phase leaves it
// resident and the graph untouched (op.end).
func (rt *Runtime) SwapOut(id ClusterID, opts ...SwapOption) (SwapEvent, error) {
	o, ctx, cancel := resolveSwapOpts(opts)
	defer cancel()
	if id == RootCluster {
		return SwapEvent{}, ErrRootCluster
	}
	if rt.stores == nil {
		return SwapEvent{}, ErrNoStores
	}
	s := swapOut{op: rt.begin(&opSwapOut, id, ctx), o: o, enc: wire.NewEncoder()}
	defer s.enc.Release() // and with it the frame: stores copied what they keep
	defer s.end()
	s.do("reserve", s.reserve)
	s.do("snapshot", s.snapshot)
	s.do("negotiate", s.negotiate)
	s.do("encode", s.encode)
	s.do("ship", s.ship)
	s.do("commit", s.commit)
	if s.err != nil {
		return SwapEvent{}, s.err
	}
	return s.finish(), nil
}

// swapOut is one swap-out in flight: the op plus what each phase leaves for
// the next.
type swapOut struct {
	op
	o   swapOpts
	enc *wire.Encoder

	// reserve: membership and delta anchor, copied out under the table lock.
	members   map[heap.ObjID]bool
	memberIDs []heap.ObjID // ascending
	base      shipmentBase
	dirty     map[heap.ObjID]bool

	// snapshot: the resident members and the outbound slot table — the
	// distinct swap-cluster-proxies they reference, in traversal order, with
	// each proxy's ultimate target. remote holds the object-fault proxies,
	// which ship as remote references rather than slots.
	objs          []*heap.Object
	residentBytes int64
	slotOf        map[heap.ObjID]int
	remote        map[heap.ObjID]bool
	outbound      []heap.Value
	slotProxies   []heap.ObjID
	slotTargets   []heap.ObjID

	key     string
	k       int
	plan    shipPlan
	payload []byte // the encoder's buffer
	repl    *heap.Object
	rep     placement.ShipReport
	oldBase shipmentBase // the delta base this shipment obsoleted, if any
}

func (s *swapOut) reserve() error {
	return s.op.reserve(resident, reservedOut, func(cs *clusterState) {
		s.members = make(map[heap.ObjID]bool, len(cs.objects))
		s.memberIDs = make([]heap.ObjID, 0, len(cs.objects))
		for oid := range cs.objects {
			s.members[oid] = true
			s.memberIDs = append(s.memberIDs, oid)
		}
		s.base, s.dirty = cs.base, maps.Clone(cs.dirty)
	})
}

// snapshot collects the members and classifies their outbound references.
// Member fields are stable here: the application thread is the caller (or
// blocked behind the eviction that called us), and concurrent swap commits
// only touch proxy $target fields and other clusters' objects.
func (s *swapOut) snapshot() error {
	slices.Sort(s.memberIDs)
	// Refuse to detach a cluster with in-flight invocations: its objects are
	// live on the stack and would collide with a later reload.
	if err := s.rt.checkInactive(s.id, s.members); err != nil {
		return err
	}
	s.objs = make([]*heap.Object, 0, len(s.memberIDs))
	for _, oid := range s.memberIDs {
		o, err := s.rt.h.Get(oid)
		if err != nil {
			return fmt.Errorf("core: swap-out cluster %d: member @%d: %w", s.id, oid, err)
		}
		s.objs = append(s.objs, o)
		s.residentBytes += o.Size()
	}
	s.slotOf = make(map[heap.ObjID]int)
	s.remote = make(map[heap.ObjID]bool)
	for _, o := range s.objs {
		var werr error
		for i := 0; i < o.NumFields() && werr == nil; i++ {
			o.Field(i).MapRefs(func(rid heap.ObjID) heap.ObjID {
				if werr == nil {
					werr = s.classify(o, rid)
				}
				return rid
			})
		}
		if werr != nil {
			return werr
		}
	}
	return nil
}

// classify files one reference held by member o: internal, an outbound slot
// (first sight appends it), or a remote reference.
func (s *swapOut) classify(o *heap.Object, rid heap.ObjID) error {
	if rid == heap.NilID || s.members[rid] || s.remote[rid] {
		return nil
	}
	if _, seen := s.slotOf[rid]; seen {
		return nil
	}
	ro, err := s.rt.h.Get(rid)
	switch {
	case err != nil:
		return fmt.Errorf("core: cluster %d: dangling outbound @%d: %w", s.id, rid, err)
	case isProxy(ro):
		if proxySrc(ro) != s.id {
			return fmt.Errorf("core: cluster %d: object @%d holds proxy @%d sourced at cluster %d",
				s.id, o.ID(), rid, proxySrc(ro))
		}
		s.slotOf[rid] = len(s.outbound)
		s.outbound = append(s.outbound, heap.Ref(rid))
		s.slotProxies = append(s.slotProxies, rid)
		s.slotTargets = append(s.slotTargets, proxyUltimate(ro))
	case isObjProxy(ro):
		s.remote[rid] = true
	default:
		return fmt.Errorf("core: cluster %d: object @%d holds un-proxied foreign reference @%d",
			s.id, o.ID(), rid)
	}
	return nil
}

// negotiate picks the wire format and the donors before encoding: the donors
// are ranked once (format advertisements ride the same Stats probe that weighs
// free capacity) and matched against the runtime's preference order, and a
// dirty-only delta against the retained base wins when one is anchored and
// cheap enough.
func (s *swapOut) negotiate() (err error) {
	s.key = s.rt.nextKey(s.id)
	s.span.SetKey(s.key)
	if s.k = s.o.replicas; s.k < 1 {
		s.k = s.rt.Replicas()
	}
	var delta bool
	if s.plan, delta = s.rt.negotiateDelta(s.ctx, s.o, s.base, s.dirty, s.memberIDs); delta {
		s.keepBaseSlots()
	} else if s.plan, err = s.rt.negotiateFull(s.ctx, s.o, s.key, s.k); err != nil {
		return fmt.Errorf("core: swap-out cluster %d: %w", s.id, err)
	}
	return nil
}

// keepBaseSlots rebuilds the slot table of a delta so the base's table is its
// prefix: slot references encoded inside unchanged base objects resolve
// against THIS swap-out's replacement, so index i must still reach the
// ultimate target the base's slot i did. Base slots whose target is no longer
// referenced get a nil placeholder (nothing unchanged can reference them — the
// referencing object would be dirty); proxies new since the base follow.
func (s *swapOut) keepBaseSlots() {
	proxyOf := make(map[heap.ObjID]heap.ObjID, len(s.slotTargets))
	for i, t := range s.slotTargets {
		proxyOf[t] = s.slotProxies[i]
	}
	n := len(s.plan.baseSlots) + len(s.outbound)
	outbound := make([]heap.Value, 0, n)
	targets := make([]heap.ObjID, 0, n)
	slotOf := make(map[heap.ObjID]int, len(s.slotOf))
	add := func(pid, target heap.ObjID) {
		slotOf[pid] = len(outbound)
		outbound = append(outbound, heap.Ref(pid))
		targets = append(targets, target)
	}
	for _, t := range s.plan.baseSlots {
		if pid, ok := proxyOf[t]; ok && t != heap.NilID {
			add(pid, t)
			continue
		}
		outbound = append(outbound, heap.Nil())
		targets = append(targets, heap.NilID)
	}
	for i, pid := range s.slotProxies {
		if _, kept := slotOf[pid]; !kept {
			add(pid, s.slotTargets[i])
		}
	}
	s.outbound, s.slotOf, s.slotTargets = outbound, slotOf, targets
}

func (s *swapOut) encode() error {
	if err := s.encodeFrame(); err != nil {
		return err
	}
	s.span.AddBytes(int64(len(s.payload)))
	return nil
}

// encodeFrame renders s.plan's frame into s.payload: the members (the dirty
// subset for a delta) straight from the heap in the negotiated format, each
// reference classified internal / slot / remote.
func (s *swapOut) encodeFrame() error {
	rt, members, slotOf, remote := s.rt, s.members, s.slotOf, s.remote
	encodeRef := func(rid heap.ObjID) (xmlcodec.Value, error) {
		if members[rid] {
			return xmlcodec.InternalRef(rid), nil
		}
		if slot, ok := slotOf[rid]; ok {
			return xmlcodec.SlotRef(slot), nil
		}
		if remote[rid] {
			ro, err := rt.h.Get(rid)
			if err != nil {
				return xmlcodec.Value{}, err
			}
			return xmlcodec.RemoteRefOf(ObjProxyRemote(ro), ObjProxyClass(ro)), nil
		}
		return xmlcodec.Value{}, fmt.Errorf("core: unclassified reference @%d", rid)
	}
	p := &s.plan
	objs := s.objs
	if p.delta {
		objs = make([]*heap.Object, 0, len(p.changed))
		for _, obj := range s.objs {
			if p.changed[obj.ID()] {
				objs = append(objs, obj)
			}
		}
	}
	start := rt.obsReg.Clock().Now()
	payload, err := s.enc.EncodeObjects(p.format, s.key, objs, encodeRef, &wire.EncodeOpts{
		BaseKey: p.baseKey,
		Removed: p.removed,
		Codecs:  rt.classCodecs,
	})
	if err != nil {
		return fmt.Errorf("core: encode cluster %d as %s: %w", s.id, p.format, err)
	}
	rt.recordWire(p.format, "encode", len(payload), rt.obsReg.Clock().Now().Sub(start))
	s.payload = payload
	s.span.SetFormat(string(p.format))
	return nil
}

// ship builds the replacement-object and lands the payload on the donors.
// The replacement is pinned the moment it exists (nothing references it
// yet), and a pinned object is a GC root whose field writes must not
// interleave with a concurrent Collect's mark, so it is allocated and filled
// under the shard lock (beginMutate keeps the evictor out). The shipment is
// IO and runs unlocked. A failed delta shipment falls back to a freshly
// negotiated full one — the base donors may have vanished since the probe.
func (s *swapOut) ship() error {
	rt := s.rt
	rt.lockShard(s.sh)
	endMutate := rt.beginMutate(s.sh)
	repl, err := rt.allocMiddleware(rt.replacementClass)
	if err == nil {
		s.pin(repl.ID())
		s.built = true
		if err = repl.SetFieldByName(fldClust, heap.Int(int64(s.id))); err == nil {
			if err = repl.SetFieldByName(fldOut, heap.List(s.outbound...)); err == nil {
				err = repl.SetFieldByName(fldKey, heap.Str(s.key))
			}
		}
	}
	endMutate()
	s.sh.mu.Unlock()
	if err != nil {
		return fmt.Errorf("core: replacement for cluster %d: %w", s.id, err)
	}
	s.repl = repl

	err = s.shipPlanned()
	if err != nil && s.plan.delta {
		rt.logger.Warn("delta shipment failed; renegotiating full",
			"trace", s.trace, "cluster", uint32(s.id), "err", err)
		if s.plan, err = rt.negotiateFull(s.ctx, s.o, s.key, s.k); err == nil {
			if err = s.encodeFrame(); err == nil {
				err = s.shipPlanned()
			}
		}
	}
	if err != nil {
		return err
	}
	s.span.SetDevice(s.rep.Replicas[0])
	s.span.SetReplicas(s.rep.Replicas)
	s.span.AddBytes(int64(len(s.payload))) // the frame that landed, once
	return nil
}

// shipPlanned places s.payload on the donors the negotiate phase selected and
// leaves the planner's report in s.rep: a pinned (WithDevice) shipment writes
// exactly one copy, everything else ships over the plan's ranked candidates —
// the planner re-checks capacity against the encoded size and skips donors
// that do not accept the plan's format.
func (s *swapOut) shipPlanned() error {
	rt, id, ctx, key := s.rt, s.id, s.ctx, s.key
	if d := s.o.device; d != "" {
		st, err := rt.stores.Lookup(d)
		if err != nil {
			return fmt.Errorf("core: swap-out cluster %d: %w", id, err)
		}
		if err := store.PutWith(ctx, st, key, s.payload, store.PutOpts{Format: string(s.plan.format)}); err != nil {
			return fmt.Errorf("core: ship cluster %d to %s: %w", id, d, err)
		}
		s.rep = placement.ShipReport{Replicas: []string{d}, Requested: 1, Quorum: 1}
		return nil
	}
	if rt.placer == nil {
		return fmt.Errorf("core: swap-out cluster %d: %w", id, ErrNoPlacement)
	}
	bytes := len(s.payload)
	var err error
	s.rep, err = rt.placer.ShipRanked(ctx, placement.ShipRequest{
		Key:      key,
		Data:     s.payload,
		Replicas: s.plan.replicas,
		Format:   string(s.plan.format),
		NoExtend: s.o.noFailover,
		OnFailure: func(device string, perr error) {
			rt.logger.Warn("swap-out failover", "trace", obs.TraceFrom(ctx),
				"cluster", uint32(id), "device", device, "err", perr)
			rt.emit(event.TopicSwapFailover, SwapEvent{
				Cluster: id, Device: device, Key: key, Bytes: bytes,
				Trace: obs.TraceFrom(ctx),
			})
		},
	}, s.plan.ranked)
	if err != nil {
		return fmt.Errorf("core: ship cluster %d: %w", id, err)
	}
	return nil
}

// commit detaches the cluster from the application graph under its shard
// lock: the replica set goes on the replacement (comma-joined, primary
// first), every inbound proxy is re-targeted at it, and the record moves to
// swappedOut. On a delta-enabled runtime a full shipment also becomes the new
// delta base (dirty resets; the previous base is due for donor cleanup); a
// delta leaves base and dirty alone, dirty being relative to the base.
//
// Then exactly the shipped members are freed in one heap critical section,
// taken last (DESIGN §6): every inbound proxy targets the replacement and no
// member is on the invocation stack, so they are garbage by construction and
// the cluster is never in two places.
func (s *swapOut) commit() error {
	rt, devices := s.rt, append([]string(nil), s.rep.Replicas...) // the record's own copy
	rt.lockShard(s.sh)
	defer s.sh.mu.Unlock()
	if err := s.repl.SetFieldByName(fldStore, heap.Str(strings.Join(devices, ","))); err != nil {
		return err
	}
	rt.patchInbound(s.id, s.repl.ID())
	sum := crc32.ChecksumIEEE(s.payload)
	s.op.commit(swappedOut, func(cs *clusterState) {
		cs.shipment = shipment{
			replacement:  s.repl.ID(),
			devices:      devices,
			key:          s.key,
			payloadBytes: len(s.payload),
			crc:          sum,
			bytesAtSwap:  s.residentBytes,
			format:       string(s.plan.format),
		}
		rt.mgr.feed(cs, shipped, 0, rt.telem.Now())
		if rt.deltaEnabled() && !s.plan.delta {
			s.oldBase = cs.base
			cs.base = shipmentBase{key: s.key, devices: devices, format: string(s.plan.format),
				crc: sum, members: s.memberIDs, slots: s.slotTargets}
			cs.dirty = nil
		}
	})
	rt.h.Free(s.memberIDs)
	return nil
}

// finish runs after the locks are gone: reclaim the donor space of a base this
// full shipment obsoleted, then report.
func (s *swapOut) finish() SwapEvent {
	rt, devices, bytes := s.rt, s.rep.Replicas, len(s.payload)
	if s.oldBase.key != "" && s.oldBase.key != s.key {
		rt.dropAll(s.ctx, s.oldBase.devices, s.oldBase.key, s.id)
	}
	ev := SwapEvent{Cluster: s.id, Device: devices[0], Key: s.key, Objects: len(s.objs),
		Bytes: bytes, Attempted: s.rep.Attempted, Replicas: devices, Trace: s.trace,
		Format: string(s.plan.format), Requested: s.rep.Requested, Quorum: s.rep.Quorum,
		Shortfall: max(s.rep.Requested-len(devices), 0), Cause: rt.resolveCause(s.o.cause)}
	ev.Phases, ev.Duration = s.span.End()
	rt.telem.RecordFault("swap_out", ev.Cause, ev.Duration.Seconds())
	// A prefetched cluster evicted before any touch was a wasted round trip;
	// let the fault engine settle its inventory accounting.
	rt.faults.NoteEvicted(uint32(s.id))
	rt.logger.Info("swap-out", "trace", s.trace, "cluster", uint32(s.id),
		"device", devices[0], "replicas", len(devices), "key", s.key,
		"format", string(s.plan.format), "objects", len(s.objs),
		"bytes", bytes, "dur", ev.Duration)
	rt.emit(event.TopicSwapOut, ev)
	return ev
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
