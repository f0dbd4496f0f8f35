package core

import (
	"fmt"
	"hash/crc32"
	"log/slog"
	"strings"

	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/wire"
	"objectswap/internal/xmlcodec"
)

// swapInDirect fetches a swapped-out cluster back from its donors, reinstalls
// its objects under their original identities, re-patches every inbound
// proxy, and retires the replacement-object. It is the uncoalesced path: the
// public SwapIn (fault_glue.go) wraps it in the fault engine's single-flight
// table so concurrent faults on one cluster park on one fetch, and everything
// below runs once per flight, on the leader's goroutine.
//
// The fetch reads the replicas in preference (rank) order and falls through
// on error: the payload is byte-identical on every replica, so a dead primary
// costs one failed request, not the reload. Replicas that failed are listed in
// SwapEvent.Attempted and announced as a swap.readrepair event so the repair
// loop can re-replicate everything else those donors held.
//
// The copy that served the reload stays where it is: the cluster is resident
// AND its donors keep the payload, as the retained copy a clean swap-out
// leaves on again (DESIGN §6d). Nothing on this path tells a donor to drop.
//
// WithContext bounds the fetch: a failed swap-in — timeout, damaged frame,
// no room — leaves the cluster swapped exactly as it was, so a later retry
// (or a reconnecting device) can still reload it. Destination
// options do not apply: a swapped cluster lives where it was shipped.
// Swap-ins of distinct clusters overlap freely: the fetch and the decode run
// with the runtime lock released, which the caller holds for the rest.
//
// The result is the SwapEvent boxed once: the box the bus delivers is the one
// the fault engine hands every waiter of the flight.
func (rt *Runtime) swapInDirect(id ClusterID, o swapOpts) (any, error) {
	if rt.stores == nil {
		return nil, ErrNoStores
	}
	s := swapIn{o: o}
	s.begin(rt, &opSwapIn, id, o.ctx)
	defer s.end()
	defer s.release()
	s.do("reserve", s.reserve)
	s.io("fetch", s.fetch)
	s.io("decode", s.decode)
	s.do("evict", s.evict)
	s.do("install", s.install)
	if s.err != nil {
		return nil, s.err
	}
	return s.finish(), nil
}

// swapIn is one swap-in in flight.
type swapIn struct {
	op
	o swapOpts

	// reserve: the replacement-object and where the text is, copied out
	// of the record.
	was              shipment
	copy             donorCopy
	repl             *heap.Object
	data             []byte
	dataCRC          uint32 // of the copy being served, taken once
	device           string
	failed           []string
	fid              wire.FormatID
	staged           *xmlcodec.Installer
	installedObjects int
}

// reserve pins the replacement-object in the hold that reserves the cluster,
// so no collection sweeps it while the swap-in owns the cluster (across any
// eviction below, too).
func (s *swapIn) reserve() (err error) {
	err = s.op.reserve(swappedOut, reservedIn, func(cs *clusterState) {
		s.was, s.copy = cs.shipment, cs.retained.donorCopy
		s.pin(s.was.replacement)
	})
	if err != nil {
		return err
	}
	if s.repl, err = s.rt.h.Get(s.was.replacement); err != nil {
		return fmt.Errorf("core: cluster %d replacement gone (cluster is garbage): %w", s.id, err)
	}
	return nil
}

func (s *swapIn) fetch() error {
	s.handOut(5)
	rt, key, devices := s.rt, s.copy.key, s.copy.devices
	s.span.SetKey(key)
	s.span.SetReplicas(devices)
	var lastErr error
	for _, d := range devices {
		st, err := rt.stores.Lookup(d)
		if err == nil {
			// A direct read: the prefetch window's fetches overlap with it.
			s.data, err = rt.faults.Fetch(s.ctx, d, st, key)
			// The checksum recorded at swap-out convicts a copy that rotted
			// at rest; with K>=2 the reload falls through to an intact one.
			if err == nil {
				s.dataCRC = crc32.ChecksumIEEE(s.data)
				if s.copy.crc != 0 && s.dataCRC != s.copy.crc {
					err = fmt.Errorf("%w: device %s key %s", ErrCorruptReplica, d, key)
				}
			}
			if err == nil {
				s.device = d
				break
			}
		}
		s.failed = append(s.failed, d)
		lastErr = err
		rt.logger.Warn("swap-in replica failed", "trace", s.trace,
			"cluster", uint32(s.id), "device", d, "err", err)
		if s.ctx.Err() != nil {
			break
		}
	}
	if s.device == "" {
		if lastErr == nil {
			lastErr = ErrNoLiveReplica
		}
		return fmt.Errorf("core: fetch cluster %d (replicas %s): %w",
			s.id, strings.Join(devices, ","), lastErr)
	}
	s.span.SetDevice(s.device)
	s.span.AddBytes(int64(len(s.data)))
	return nil
}

// decode validates and stages whatever format the shipment self-describes as:
// every structural check runs here, with the runtime lock released (the class
// registry has its own), and the objects come out staged
// in a heap.Batch, ready to install — a frame that fails leaves the heap and the
// cluster table untouched, and evicts nothing. Every payload decodes on its
// own: nothing but the fetched bytes is read.
//
// The fetched copy is handed over to wire.Stage here: the donor's Get made it
// the swap-in's own (store.Store), and from here on nothing writes to it — a
// binary frame of strings may become the storage of the strings the cluster
// installs (see wire.Stage for when).
func (s *swapIn) decode() (err error) {
	rt := s.rt
	s.fid, _ = wire.Detect(s.data)
	if s.staged, err = wire.Stage(s.data, rt.reg); err != nil {
		return fmt.Errorf("core: unwrap cluster %d: %w", s.id, err)
	}
	s.span.SetFormat(string(s.fid))
	if s.staged.ClusterID != s.copy.key {
		return fmt.Errorf("core: cluster %d: device returned wrong shipment %q", s.id, s.staged.ClusterID)
	}
	return nil
}

// evict makes room before installing, if we can tell it is needed, with a
// little headroom beyond the payload: the reload itself allocates middleware
// objects (proxies for un-replicated edges). The evictor runs with the
// runtime lock released (runEvictor), so another install (a prefetch
// worker's) may take the room before the lock is back: the room is measured
// and made again, up to evictTries times.
func (s *swapIn) evict() error {
	rt := s.rt
	if cap := rt.h.Capacity(); cap > 0 && rt.evictor != nil && !rt.evicting {
		const reloadSlack, evictTries = 512, 3
		need := s.was.bytesAtSwap + reloadSlack
		for try := 0; try < evictTries; try++ {
			free := cap - rt.h.Reserve() - rt.h.Used()
			if free >= need {
				break
			}
			if err := rt.runEvictor(need - free); err != nil {
				return fmt.Errorf("core: make room for cluster %d: %w", s.id, err)
			}
		}
	}
	return nil
}

// install makes the whole cluster resident, re-points its inbound proxies
// and moves the record to resident in one hold of the runtime lock, so no
// collection can run between installation (objects nothing references yet)
// and the patches that make them reachable. beginMutate: installation allocates, and
// an allocation failure here must not run the evictor, which would let go
// of the lock. A prefetch enters the fault engine's inventory in the same
// hold, so whoever next finds the cluster resident finds the entry too.
//
// The reloaded shipment is the retained copy — resident state now provably
// equals the payload still on its donors. The commit that shipped it anchored
// it already; only a record restored from a checkpoint, which carries no
// slot table, reads it back from the replacement-object.
//
// Once the commit has re-pointed every inbound proxy at the members, the
// replacement-object is garbage by construction, and it is freed on the spot
// as a swap-out frees its members: a collection would find it only by a full
// pass, since a pass has marked it by now.
func (s *swapIn) install() error {
	rt := s.rt
	defer rt.beginMutate()()

	// Resolve replacement slots back to the retained outbound proxies.
	outboundVal, err := s.repl.FieldByName(fldOut)
	if err != nil {
		return err
	}
	outbound, err := outboundVal.List()
	if err != nil {
		return err
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
			pid, err := (*Held)(rt).ObjProxyFor(v.Target, v.Class)
			if err != nil {
				return heap.Nil(), err
			}
			return heap.Ref(pid), nil
		default:
			return heap.Nil(), fmt.Errorf("core: unexpected reference class %v in swapped cluster", v.RefClass)
		}
	}

	// All of it, or none; the batch refuses a
	// member that is already resident (swap-out freed them all at commit)
	// instead of discarding whatever it holds. Reinstallation restores state,
	// it is not a mutation: no write observer fires.
	if s.installedObjects, err = s.staged.Install(rt.h, decodeRef); err != nil {
		return fmt.Errorf("core: install cluster %d: %w", s.id, err)
	}
	s.op.commit(resident, func(cs *clusterState) {
		rt.mgr.own(cs, cs.members)
		cs.shipment = shipment{}
		rt.mgr.feed(cs, reloaded)
		if !cs.retained.usable() {
			c := s.copy
			c.crc, c.format = s.dataCRC, string(s.fid)
			cs.anchor(c, s.slotTable(outbound))
		}
		if s.o.cause == CausePrefetch {
			rt.faults.Installed(uint32(s.id), int64(s.copy.payloadBytes))
		}
	})
	rt.h.Free([]heap.ObjID{s.was.replacement})
	return nil
}

// release gives the staged Installer back to its pool once the swap-in is
// over, outside its span.
func (s *swapIn) release() {
	if s.staged != nil {
		s.staged.Release()
	}
}

// slotTable reads the outbound slot table of a just-reloaded shipment back
// from its replacement-object's slots: the ultimate target of each, in slot
// order.
func (s *swapIn) slotTable(outbound []heap.Value) []heap.ObjID {
	slots := make([]heap.ObjID, len(outbound))
	for i, v := range outbound {
		if rid, err := v.Ref(); err == nil && rid != heap.NilID {
			if p, perr := s.rt.h.Get(rid); perr == nil {
				slots[i] = proxyUltimate(p)
			}
		}
	}
	return slots
}

// finish reports the swap-in. The fault ends with its span; what follows is
// not part of it. The shipment stays on its donors as the retained
// copy. It returns the SwapEvent in the box the bus delivered.
func (s *swapIn) finish() any {
	rt, key, bytes := s.rt, s.copy.key, s.copy.payloadBytes
	ev := SwapEvent{Cluster: s.id, Device: s.device, Key: key, Objects: s.installedObjects,
		Bytes: bytes, Attempted: s.failed, Replicas: s.copy.devices, Trace: s.trace,
		Format: string(s.fid), Cause: rt.resolveCause(s.o.cause)}
	ev.Phases, ev.Duration = s.span.End(s.phases)
	rt.telem.RecordFault("swap_in", ev.Cause, ev.Duration.Seconds())
	rt.logger.LogAttrs(s.ctx, slog.LevelInfo, "swap-in", slog.String("trace", s.trace),
		slog.Uint64("cluster", uint64(s.id)), slog.String("device", s.device),
		slog.String("key", key), slog.String("format", ev.Format),
		slog.Int("objects", s.installedObjects), slog.Int("bytes", bytes),
		slog.Duration("dur", ev.Duration))
	boxed := any(ev)
	rt.emit(event.TopicSwapIn, boxed)
	// A dead replica here means the donor likely lost everything it held:
	// announce it so the repair loop re-replicates the rest.
	if len(s.failed) > 0 {
		rt.emit(event.TopicReadRepair, SwapEvent{
			Cluster: s.id, Device: s.failed[0], Key: key,
			Attempted: s.failed, Trace: s.trace,
		})
	}
	return boxed
}
