package core

import (
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"slices"
	"sync"

	"objectswap/internal/event"
	"objectswap/internal/heap"
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
// operation (WithContext), pin the destination (WithDevice) or fail fast
// (WithNoFailover).
//
// A cluster that is clean — nothing written since it was last reloaded or
// shipped in full, same members, same outbound edges, its retained copy's
// donors all reachable and its lease running (DESIGN §6d) — is not shipped at
// all: reserve → snapshot → commit re-attach it to the copy the donors already
// hold, with no store call. SwapEvent.Clean says which kind a swap-out was.
//
// SwapOut is safe to call concurrently for distinct clusters: it holds the
// runtime lock except while it negotiates and ships, so the shipment of one
// cluster overlaps the work of another. While the cluster is reserved-out a
// second caller gets ErrClusterBusy, and a member written meanwhile (the
// members stay usable) makes the commit refuse with ErrClusterBusy rather
// than free the write; a failure in any phase leaves the cluster resident and
// the graph untouched (op.end).
func (rt *Runtime) SwapOut(id ClusterID, opts ...SwapOption) (SwapEvent, error) {
	rt.lock()
	defer rt.unlock()
	return rt.swapOut(id, resolveSwapOpts(opts))
}

// swapOut is SwapOut with its options resolved and the runtime lock held.
func (rt *Runtime) swapOut(id ClusterID, o swapOpts) (SwapEvent, error) {
	if id == RootCluster {
		return SwapEvent{}, ErrRootCluster
	}
	if rt.stores == nil {
		return SwapEvent{}, ErrNoStores
	}
	s := swapOut{o: o, sc: outScratches.Get().(*outScratch)}
	defer s.sc.release()
	s.begin(rt, &opSwapOut, id, o.ctx)
	defer s.end()
	s.do("reserve", s.reserve)
	s.do("snapshot", s.snapshot)
	if s.err == nil && !s.clean() {
		s.shipOut()
	}
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
	sc  *outScratch // the reference classification, this operation's until it returns

	// reserve: the retained copy the cluster can leave on (zero when it has
	// to be shipped); the membership is in sc.
	kept retainedCopy

	// snapshot: the resident size; the outbound slot table is in sc.
	residentBytes int64
	// seen is the reservation's change count (clusterState.changes) when the
	// copy commit anchors was taken: at reserve for a retained copy, at the
	// encode for a shipment.
	seen uint32

	key     string
	k       int
	plan    shipPlan
	payload []byte // the encoder's buffer
	repl    *heap.Object
	rep     placement.ShipReport
	orphans []string  // donors a failed attempt could not take its copy back from
	copy    donorCopy // what the donors hold when commit runs: shipped, or kept
	oldCopy donorCopy // the retained copy this shipment obsoleted, if any
}

// clean reports that the cluster leaves on its retained copy.
func (s *swapOut) clean() bool { return s.kept.key != "" }

// outScratch is what a swap-out classifies the members' references into and
// encodes from: the membership, the record's own runs (members, which no
// writer edits in place while the cluster is reserved: Manager.reclaimed), the
// outbound slot table — the distinct swap-cluster-proxies the members
// reference, in traversal order (outbound, indexed by slotOf), with each
// proxy's ultimate target (slotTargets) — the object-fault proxies, which ship
// as remote references rather than slots (remote), and the member objects the
// encoder walks (objs) and their ids (ids, which commit frees), resolved by
// the snapshot so the encode, which runs with the runtime lock released, reads
// no heap table. A shipment also ranks its donors in it (rank) and reports a
// rejecting donor through it (failover). None of it outlives the swap-out: the
// replacement-object copies outbound, and commit copies the slot table a
// shipment anchors. So it is reused, one operation at a time; swap-outs of
// distinct clusters run concurrently, so each takes its own from a pool.
type outScratch struct {
	members     runs
	slotOf      map[heap.ObjID]int
	remote      map[heap.ObjID]*heap.Object
	outbound    []heap.Value
	slotTargets []heap.ObjID
	objs        []*heap.Object
	ids         []heap.ObjID
	encodeRef   xmlcodec.RefEncoder // ref, bound once per scratch
	rank        placement.Scratch   // the donor ranking of negotiate
	failover    failover
	onFailure   func(string, error) // failover.report, bound once per scratch
}

var outScratches = sync.Pool{New: func() any {
	sc := &outScratch{slotOf: make(map[heap.ObjID]int), remote: make(map[heap.ObjID]*heap.Object)}
	sc.encodeRef = sc.ref
	sc.onFailure = sc.failover.report
	return sc
}}

// failover is the shipment a rejecting donor is reported for.
type failover struct {
	rt         *Runtime
	id         ClusterID
	key, trace string
	bytes      int
}

// report logs a donor that rejected the shipment and announces it as a
// swap.failover event (the planner's ShipRequest.OnFailure). It runs in the
// ship phase, with the runtime lock released.
func (f *failover) report(device string, err error) {
	f.rt.logger.Warn("swap-out failover", "trace", f.trace,
		"cluster", uint32(f.id), "device", device, "err", err)
	f.rt.lock()
	defer f.rt.unlock()
	f.rt.emit(event.TopicSwapFailover, SwapEvent{
		Cluster: f.id, Device: device, Key: f.key, Bytes: f.bytes, Trace: f.trace,
	})
}

// release empties the scratch, keeping its storage, and returns it to the
// pool.
func (sc *outScratch) release() {
	clear(sc.slotOf)
	clear(sc.remote)
	clear(sc.objs)
	sc.outbound, sc.slotTargets, sc.objs, sc.ids = sc.outbound[:0], sc.slotTargets[:0], sc.objs[:0], sc.ids[:0]
	sc.members = nil
	sc.rank.Reset()
	sc.failover = failover{}
	outScratches.Put(sc)
}

// ref is the encoder's reference classifier: internal, a slot of the
// replacement-object, or the remote object an object-fault proxy stands for.
func (sc *outScratch) ref(rid heap.ObjID) (xmlcodec.Value, error) {
	if sc.members.has(rid) {
		return xmlcodec.InternalRef(rid), nil
	}
	if slot, ok := sc.slotOf[rid]; ok {
		return xmlcodec.SlotRef(slot), nil
	}
	if ro, ok := sc.remote[rid]; ok {
		return xmlcodec.RemoteRefOf(ObjProxyRemote(ro), objProxyClassOf(ro)), nil
	}
	return xmlcodec.Value{}, fmt.Errorf("core: unclassified reference @%d", rid)
}

func (s *swapOut) reserve() error {
	err := s.op.reserve(resident, reservedOut, func(cs *clusterState) {
		s.sc.members = cs.members
		// A pinned destination is honoured: only a copy already there counts.
		if kept, ok := cs.cleanCopy(); ok && (s.o.device == "" || (len(kept.devices) == 1 && kept.devices[0] == s.o.device)) {
			s.kept = kept
		}
		s.seen = cs.changes
	})
	if err == nil && s.clean() && !s.rt.holds(s.kept.donorCopy) {
		s.kept = retainedCopy{} // a donor of the copy is gone or its lease ran out: ship
	}
	return err
}

// snapshot sizes the members, resolves them for the encoder and classifies
// their outbound references, under the runtime lock. A member on the
// invocation stack or pinned (a replica an install has not linked yet) is in
// use, and the cluster stays. A clean cluster passes its last check here: an
// outbound proxy re-aimed under a member (an assign-mode cursor) changes no
// field, only the slot table.
func (s *swapOut) snapshot() error {
	// Refuse to detach a cluster with in-flight invocations: its objects are
	// live on the stack and would collide with a later reload.
	if err := s.rt.checkInactive(s.id, s.sc.members.has); err != nil {
		return err
	}
	n := s.sc.members.count() // a scratch fresh from the pool grows once
	s.sc.objs, s.sc.ids = slices.Grow(s.sc.objs, n), slices.Grow(s.sc.ids, n)
	for oid := range s.sc.members.ids {
		o, err := s.rt.h.Get(oid)
		if err != nil {
			return fmt.Errorf("core: swap-out cluster %d: member @%d: %w", s.id, oid, err)
		}
		if s.rt.h.Pinned(oid) {
			return fmt.Errorf("%w: cluster %d (object @%d pinned)", ErrClusterActive, s.id, oid)
		}
		s.sc.objs, s.sc.ids = append(s.sc.objs, o), append(s.sc.ids, oid)
		s.residentBytes += o.Size()
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
	if s.clean() && !slices.Equal(s.sc.slotTargets, s.kept.slots) {
		s.kept = retainedCopy{}
	}
	return nil
}

// classify files one reference held by member o: internal, an outbound slot
// (first sight appends it), or a remote reference.
func (s *swapOut) classify(o *heap.Object, rid heap.ObjID) error {
	sc := s.sc
	if rid == heap.NilID || sc.members.has(rid) || sc.remote[rid] != nil {
		return nil
	}
	if _, seen := sc.slotOf[rid]; seen {
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
		sc.slotOf[rid] = len(sc.outbound)
		sc.outbound = append(sc.outbound, heap.Ref(rid))
		sc.slotTargets = append(sc.slotTargets, proxyUltimate(ro))
	case isObjProxy(ro):
		sc.remote[rid] = ro
	default:
		return fmt.Errorf("core: cluster %d: object @%d holds un-proxied foreign reference @%d",
			s.id, o.ID(), rid)
	}
	return nil
}

// shipOut runs the phases that move the cluster's bytes, for one that cannot
// leave on its retained copy. From here on the trace goes to the stores.
// Negotiation is I/O, so it runs with the runtime lock released, as the
// shipment does. The encode reads the members, which stay writable while the
// cluster is reserved, so it holds the lock.
func (s *swapOut) shipOut() {
	s.handOut(6)
	s.enc = wire.NewEncoder()
	defer s.enc.Release() // and with it the frame: stores copied what they keep
	s.io("negotiate", s.negotiate)
	s.do("encode", s.encode)
	s.do("ship", s.ship)
}

// negotiate picks the wire format and the donors before encoding: the donors
// are ranked once (format advertisements ride the same Stats probe that weighs
// free capacity) and matched against the runtime's preference order.
func (s *swapOut) negotiate() (err error) {
	s.key = s.rt.nextKey(s.id)
	s.span.SetKey(s.key)
	if s.k = s.o.replicas; s.k < 1 {
		s.k = s.rt.Replicas()
	}
	if s.plan, err = s.rt.negotiate(s.ctx, &s.sc.rank, s.o, s.key, s.k); err != nil {
		return fmt.Errorf("core: swap-out cluster %d: %w", s.id, err)
	}
	return nil
}

func (s *swapOut) encode() error {
	if err := s.encodeFrame(); err != nil {
		return err
	}
	s.span.AddBytes(int64(len(s.payload)))
	return nil
}

// encodeFrame renders s.plan's frame into s.payload, under the runtime lock:
// the members snapshot resolved, as they are now (seen), in the negotiated
// format, each reference classified internal / slot / remote
// (outScratch.ref).
func (s *swapOut) encodeFrame() error {
	sc, format := s.sc, s.plan.format
	payload, err := s.enc.EncodeObjects(format, s.key, sc.objs, sc.encodeRef)
	if err != nil {
		return fmt.Errorf("core: encode cluster %d as %s: %w", s.id, format, err)
	}
	s.payload, s.seen = payload, s.cs.changes
	s.span.SetFormat(string(format))
	return nil
}

// replace builds the replacement-object. It is pinned the moment it exists
// (nothing references it yet), and beginMutate keeps the evictor, which
// would let go of the runtime lock, out of the build.
func (s *swapOut) replace() error {
	rt := s.rt
	defer rt.beginMutate()()
	repl, err := rt.allocMiddleware(rt.replacementClass, heap.Int(int64(s.id)), heap.List(s.sc.outbound...))
	if err != nil {
		return fmt.Errorf("core: replacement for cluster %d: %w", s.id, err)
	}
	s.pin(repl.ID())
	s.built, s.repl = true, repl
	return nil
}

// ship builds the replacement-object and lands the payload on the donors; the
// shipment is IO and runs with the runtime lock released. Donors with no room
// are asked to give back the copies they retain for clusters that are
// resident anyway, and the shipment is tried once more.
func (s *swapOut) ship() error {
	rt := s.rt
	err := s.replace()
	if err != nil {
		return err
	}
	rt.unlocked(func() { err = s.shipPlanned() })
	if err != nil && (errors.Is(err, store.ErrCapacity) || errors.Is(err, store.ErrNoDevice)) &&
		rt.shedRetained(s.ctx, s.plan.ranked) > 0 {
		err = s.reship()
	}
	// A copy a failed attempt left behind is dropped at the next collection —
	// unless the attempt that succeeded put the key's live copy on that donor.
	for _, d := range s.orphans {
		if err != nil || !slices.Contains(s.rep.Replicas, d) {
			rt.mgr.deferDrop(d, s.key, s.id)
		}
	}
	if err != nil {
		return err
	}
	s.copy = donorCopy{
		key:          s.key,
		devices:      s.rep.Replicas, // the planner's own, handed over
		payloadBytes: len(s.payload),
		crc:          crc32.ChecksumIEEE(s.payload),
		format:       string(s.plan.format),
		leaseTTL:     s.plan.leaseTTL(s.rep.Replicas),
	}
	if s.copy.leaseTTL > 0 {
		s.copy.leaseUntil = rt.obsReg.Clock().Now().Add(s.copy.leaseTTL)
	}
	s.span.SetDevice(s.rep.Replicas[0])
	s.span.SetReplicas(s.rep.Replicas)
	s.span.AddBytes(int64(len(s.payload))) // the frame that landed, once
	return nil
}

// reship negotiates, encodes and ships the shipment afresh; only the encode
// holds the runtime lock, which the caller holds.
func (s *swapOut) reship() (err error) {
	s.rt.unlocked(func() { s.plan, err = s.rt.negotiate(s.ctx, &s.sc.rank, s.o, s.key, s.k) })
	if err == nil {
		err = s.encodeFrame()
	}
	if err == nil {
		s.rt.unlocked(func() { err = s.shipPlanned() })
	}
	return err
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
	s.sc.failover = failover{rt: rt, id: id, key: key, trace: s.trace, bytes: len(s.payload)}
	var err error
	s.rep, err = rt.placer.ShipRanked(ctx, placement.ShipRequest{
		Key:       key,
		Data:      s.payload,
		Replicas:  s.plan.replicas,
		Format:    string(s.plan.format),
		NoExtend:  s.o.noFailover,
		OnFailure: s.sc.onFailure,
	}, s.plan.ranked)
	if err != nil {
		s.orphans = append(s.orphans, s.rep.Orphans...)
		return fmt.Errorf("core: ship cluster %d: %w", id, err)
	}
	return nil
}

// commit detaches the cluster from the application graph: the record moves
// to swappedOut on the copy the donors hold and every inbound proxy is
// re-pointed at its replacement (settle).
// A change to the cluster since the copy was taken (seen) — a member written
// while the swap-out let go of the lock, say — rolls the operation back: the
// cluster stays resident, and ships next time, rather than the write being
// lost with the freed members; a shipped copy is owed its donors a Drop.
// A shipment becomes the new retained copy (dirty resets; the previous one is
// due for donor cleanup); a clean cluster builds its replacement-object only
// now.
//
// Then exactly the members are freed (DESIGN §6): every inbound proxy
// targets the replacement and no member is on the invocation stack, so they
// are garbage by construction and the cluster is never in two places.
func (s *swapOut) commit() error {
	rt := s.rt
	if s.cs.changes != s.seen {
		if !s.clean() {
			rt.mgr.table.queueDrops(forgotCopy{s.id, s.copy})
		}
		return fmt.Errorf("%w: cluster %d was written during its swap-out", ErrClusterBusy, s.id)
	}
	if s.clean() {
		if err := s.replace(); err != nil {
			return err
		}
		s.copy = s.kept.donorCopy
		s.span.SetKey(s.copy.key)
		s.span.SetFormat(s.copy.format)
		s.span.SetDevice(s.copy.primary())
		s.span.SetReplicas(s.copy.devices)
	}
	s.op.commit(swappedOut, func(cs *clusterState) {
		cs.shipment = shipment{replacement: s.repl.ID(), bytesAtSwap: s.residentBytes}
		rt.mgr.feed(cs, shipped)
		if !s.clean() {
			s.oldCopy = cs.retained.donorCopy
			// The record's own slot table: the scratch goes back to the pool.
			// Empty, not nil: a known table (retainedCopy.usable).
			slots := append(make([]heap.ObjID, 0, len(s.sc.slotTargets)), s.sc.slotTargets...)
			cs.anchor(s.copy, slots)
		}
	})
	rt.h.Free(s.sc.ids)
	return nil
}

// finish reports, then — the fault is over, so outside its span — reclaims the
// donor space of the copy a shipment obsoleted. This rotation is the only
// place a stale retained copy is dropped while its cluster lives.
func (s *swapOut) finish() SwapEvent {
	s.handOut(3) // a clean swap-out hands its trace out only now
	rt, c := s.rt, s.copy
	ev := SwapEvent{Cluster: s.id, Device: c.primary(), Key: c.key, Objects: len(s.sc.ids),
		Clean: s.clean(), Attempted: s.rep.Attempted, Replicas: c.devices, Trace: s.trace,
		Format: c.format, Requested: s.rep.Requested, Quorum: s.rep.Quorum,
		Shortfall: max(s.rep.Requested-len(c.devices), 0), Cause: rt.resolveCause(s.o.cause)}
	if !ev.Clean {
		ev.Bytes = c.payloadBytes
	}
	ev.Phases, ev.Duration = s.span.End(s.phases)
	if s.oldCopy.key != "" && s.oldCopy.key != c.key {
		rt.dropAll(s.ctx, s.oldCopy.devices, s.oldCopy.key, s.id)
	}
	rt.telem.RecordFault("swap_out", ev.Cause, ev.Duration.Seconds())
	// A prefetched cluster evicted before any touch was a wasted round trip;
	// let the fault engine settle its inventory accounting.
	rt.faults.NoteEvicted(uint32(s.id))
	rt.logger.LogAttrs(s.ctx, slog.LevelInfo, "swap-out", slog.String("trace", s.trace),
		slog.Uint64("cluster", uint64(s.id)), slog.String("device", ev.Device),
		slog.Int("replicas", len(c.devices)), slog.String("key", c.key),
		slog.String("format", c.format), slog.Int("objects", ev.Objects),
		slog.Bool("clean", ev.Clean), slog.Int("bytes", ev.Bytes), slog.Duration("dur", ev.Duration))
	rt.emit(event.TopicSwapOut, ev)
	return ev
}

// checkInactive fails when any member of the cluster is on the invocation
// stack.
func (rt *Runtime) checkInactive(id ClusterID, member func(heap.ObjID) bool) error {
	for _, sid := range rt.stack {
		if member(sid) {
			return fmt.Errorf("%w: cluster %d (object @%d on stack)", ErrClusterActive, id, sid)
		}
	}
	return nil
}
