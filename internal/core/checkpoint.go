package core

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"objectswap/internal/heap"
	"objectswap/internal/xmlcodec"
)

// Device persistence — the Persistence module of OBIWAN's architecture
// (Figure 1 of the paper): a device can checkpoint its entire middleware
// state to a stream and restore it later (reboot, battery swap, process
// restart), including clusters that are swapped out on nearby devices at
// checkpoint time. The checkpoint stores:
//
//   - every resident cluster's objects (XML-wrapped, like any shipment);
//   - for each swapped-out cluster: the device name and storage key where
//     its XML lives, its member identities and classes, and the outbound
//     slot table needed to rebuild its replacement-object;
//   - the global roots and live object-fault placeholders;
//   - the key-generation state, so post-restore shipments stay unique.
//
// Restore rebuilds the graph under the original object identities, then
// re-mediates every boundary — swapped clusters come back as swapped, and
// the first touch faults them in from wherever they were left.

// ErrNotFresh reports a restore into a runtime that already holds state.
var ErrNotFresh = errors.New("core: checkpoint restore requires a fresh runtime")

// ErrBadCheckpoint reports a malformed checkpoint stream.
var ErrBadCheckpoint = errors.New("core: malformed checkpoint")

// checkpointVersion stamps the stream format.
const checkpointVersion = 1

// objProxyClassMarker prefixes object-fault placeholder references inside
// checkpoint documents (distinguishing them from cross-cluster references).
const objProxyClassMarker = "$objproxy:"

type ckptDoc struct {
	XMLName xml.Name      `xml:"checkpoint"`
	Version int           `xml:"version,attr"`
	Device  string        `xml:"device,attr"`
	KeySeq  uint64        `xml:"keyseq,attr"`
	MaxID   uint64        `xml:"maxid,attr"`
	Plain   []ckptCluster `xml:"cluster"`
	Roots   []ckptRoot    `xml:"root"`
}

type ckptCluster struct {
	ID      uint32 `xml:"id,attr"`
	Swapped bool   `xml:"swapped,attr"`
	// Device is the primary replica; Replicas holds the full replica set
	// (primary first). Streams written before replication carry only the
	// device attribute, which restores as a single-replica set — the format
	// version is unchanged.
	Device  string `xml:"device,attr,omitempty"`
	Key     string `xml:"key,attr,omitempty"`
	Payload int    `xml:"payload,attr,omitempty"`
	Bytes   int64  `xml:"bytes,attr,omitempty"`
	// CRC is the IEEE CRC32 of the shipped payload, restored so swap-in and
	// repair keep verifying replicas across a restart (0 = written by a
	// stream that predates checksumming — verification is skipped).
	CRC uint32 `xml:"crc,attr,omitempty"`
	// Format is the negotiated wire format of the swapped shipment ("" = XML,
	// as written by streams that predate negotiation).
	Format   string         `xml:"format,attr,omitempty"`
	Replicas []ckptReplica  `xml:"replica"`
	Members  []ckptMember   `xml:"member"`
	Out      []ckptOutbound `xml:"outbound"`
	// Base records the retained copy: the last full shipment donors still
	// hold. Only the key, format and donor set survive the checkpoint — the
	// membership/slot tables do not, so a restored copy supports donor-side
	// cleanup and delta *decoding*, while the first post-restore swap-out
	// ships full (and anchors a complete one).
	Base *ckptBase `xml:"base,omitempty"`
	// Doc holds the XML wrapping of a resident cluster's objects.
	Doc string `xml:"doc,omitempty"`
}

type ckptBase struct {
	Key      string        `xml:"key,attr"`
	Format   string        `xml:"format,attr,omitempty"`
	CRC      uint32        `xml:"crc,attr,omitempty"`
	Replicas []ckptReplica `xml:"replica"`
}

type ckptReplica struct {
	Device string `xml:"device,attr"`
}

// replicaSet resolves a checkpointed cluster's replica devices: the replica
// elements when present, else the legacy single device attribute.
func (ck *ckptCluster) replicaSet() []string {
	if len(ck.Replicas) == 0 {
		if ck.Device == "" {
			return nil
		}
		return []string{ck.Device}
	}
	out := make([]string, 0, len(ck.Replicas))
	for _, r := range ck.Replicas {
		out = append(out, r.Device)
	}
	return out
}

type ckptMember struct {
	ID    uint64 `xml:"id,attr"`
	Class string `xml:"class,attr"`
}

type ckptOutbound struct {
	Slot   int    `xml:"slot,attr"`
	Target uint64 `xml:"target,attr"`
}

type ckptRoot struct {
	Name string `xml:"name,attr"`
	// Target is the ultimate object identity (0 = nil root).
	Target uint64 `xml:"target,attr"`
	// Remote marks an object-fault placeholder root.
	Remote uint64 `xml:"remote,attr,omitempty"`
	Class  string `xml:"class,attr,omitempty"`
}

// SaveCheckpoint writes the device's full middleware state. It must not run
// with in-flight invocations. The save stops the world (every swap shard
// lock, in order) so the stream is a consistent cut: no swap commits or
// installs mid-checkpoint.
func (rt *Runtime) SaveCheckpoint(w io.Writer) error {
	if rt.depth != 0 {
		return errors.New("core: checkpoint with in-flight invocations")
	}
	rt.lockAll()
	defer rt.unlockAll()
	doc := ckptDoc{Version: checkpointVersion, Device: rt.name, KeySeq: rt.keyseq.Load()}

	clusterIDs := rt.mgr.Clusters()

	var maxID heap.ObjID
	note := func(id heap.ObjID) {
		if id > maxID {
			maxID = id
		}
	}

	for _, cid := range clusterIDs {
		if cid == RootCluster {
			continue
		}
		ts := rt.mgr.tab(cid)
		ts.mu.Lock()
		cs := ts.clusters[cid]
		members := make([]heap.ObjID, 0, len(cs.objects))
		for oid := range cs.objects {
			members = append(members, oid)
			note(oid)
		}
		// Replica sets are replaced, never edited, so the copies may share them.
		swapped, was, base := cs.where.out(), cs.shipment, cs.base
		ts.mu.Unlock()
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })

		ck := ckptCluster{ID: uint32(cid), Swapped: swapped}
		for _, oid := range members {
			info, _ := rt.mgr.member(oid)
			ck.Members = append(ck.Members, ckptMember{ID: uint64(oid), Class: info.class})
		}
		if swapped {
			ck.Key, ck.Payload, ck.Bytes = was.key, was.payloadBytes, was.bytesAtSwap
			ck.CRC, ck.Format, ck.Device = was.crc, was.format, was.primary()
			for _, d := range was.devices {
				ck.Replicas = append(ck.Replicas, ckptReplica{Device: d})
			}
			// The outbound slot table, by ultimate target identity. Nil slots
			// (delta-remapped placeholders for targets no longer referenced)
			// are simply omitted; the sparse slot list restores them as nil.
			repl, err := rt.h.Get(was.replacement)
			if err != nil {
				return fmt.Errorf("core: checkpoint: cluster %d replacement: %w", cid, err)
			}
			outV, _ := repl.FieldByName(fldOut)
			slots, _ := outV.List()
			for slot, ref := range slots {
				if ref.IsNil() {
					continue
				}
				pid, _ := ref.Ref()
				p, err := rt.h.Get(pid)
				if err != nil {
					return fmt.Errorf("core: checkpoint: cluster %d outbound slot %d: %w", cid, slot, err)
				}
				target := proxyUltimate(p)
				note(target)
				ck.Out = append(ck.Out, ckptOutbound{Slot: slot, Target: uint64(target)})
			}
		} else {
			data, err := rt.encodeResidentCluster(cid, members)
			if err != nil {
				return err
			}
			ck.Doc = string(data)
		}
		if base.key != "" {
			ck.Base = &ckptBase{Key: base.key, Format: base.format, CRC: base.crc}
			for _, d := range base.devices {
				ck.Base.Replicas = append(ck.Base.Replicas, ckptReplica{Device: d})
			}
		}
		doc.Plain = append(doc.Plain, ck)
	}

	// Roots.
	for _, name := range rt.h.RootNames() {
		v, _ := rt.h.Root(name)
		id, err := v.Ref()
		if err != nil {
			return fmt.Errorf("core: checkpoint: root %s is not a reference", name)
		}
		cr := ckptRoot{Name: name, Target: uint64(id)}
		if id != heap.NilID {
			if o, err := rt.h.Get(id); err == nil {
				switch o.Class().Special {
				case heap.SpecialSCProxy:
					cr.Target = uint64(proxyUltimate(o))
				case heap.SpecialObjProxy:
					cr.Target = 0
					cr.Remote = uint64(ObjProxyRemote(o))
					cr.Class = ObjProxyClass(o)
				}
			}
			note(heap.ObjID(cr.Target))
		}
		doc.Roots = append(doc.Roots, cr)
	}
	doc.MaxID = uint64(maxID)

	out, err := xml.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return fmt.Errorf("core: checkpoint: %w", err)
	}
	if _, err := w.Write([]byte(xml.Header)); err != nil {
		return err
	}
	_, err = w.Write(out)
	return err
}

// encodeResidentCluster wraps a resident cluster for the checkpoint:
// intra-cluster references are internal; everything else is encoded by
// ultimate identity (or as an object-fault placeholder).
func (rt *Runtime) encodeResidentCluster(cid ClusterID, members []heap.ObjID) ([]byte, error) {
	memberSet := make(map[heap.ObjID]bool, len(members))
	objs := make([]*heap.Object, 0, len(members))
	for _, oid := range members {
		memberSet[oid] = true
		o, err := rt.h.Get(oid)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint: member @%d of cluster %d: %w", oid, cid, err)
		}
		objs = append(objs, o)
	}
	encodeRef := func(rid heap.ObjID) (xmlcodec.Value, error) {
		if memberSet[rid] {
			return xmlcodec.InternalRef(rid), nil
		}
		ro, err := rt.h.Get(rid)
		if err != nil {
			// Non-resident member of a swapped cluster: record its identity.
			if _, known := rt.mgr.member(rid); known {
				return xmlcodec.RemoteRef(rid), nil
			}
			return xmlcodec.Value{}, fmt.Errorf("core: checkpoint: dangling @%d", rid)
		}
		switch ro.Class().Special {
		case heap.SpecialSCProxy:
			return xmlcodec.RemoteRef(proxyUltimate(ro)), nil
		case heap.SpecialObjProxy:
			return xmlcodec.RemoteRefOf(ObjProxyRemote(ro), objProxyClassMarker+ObjProxyClass(ro)), nil
		case heap.SpecialNone:
			return xmlcodec.RemoteRef(rid), nil
		default:
			return xmlcodec.Value{}, fmt.Errorf("core: checkpoint: %s reference @%d", ro.Class().Special, rid)
		}
	}
	doc, err := xmlcodec.EncodeObjects(fmt.Sprintf("ckpt-cluster-%d", cid), objs, encodeRef)
	if err != nil {
		return nil, err
	}
	return doc.Encode()
}

// LoadCheckpoint restores a previously saved state into this runtime. The
// runtime must be fresh — classes registered, but no clusters, objects or
// roots — and attached to the same store provider namespace, so swapped
// clusters can be faulted back from their devices.
func (rt *Runtime) LoadCheckpoint(r io.Reader) error {
	if len(rt.mgr.Clusters()) != 1 || rt.h.Len() != 0 || len(rt.h.RootNames()) != 0 {
		return ErrNotFresh
	}
	data, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	var doc ckptDoc
	if err := xml.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("%w: %v", ErrBadCheckpoint, err)
	}
	if doc.Version != checkpointVersion {
		return fmt.Errorf("%w: version %d", ErrBadCheckpoint, doc.Version)
	}
	rt.name = doc.Device
	rt.keyseq.Store(doc.KeySeq)
	// Restoration stops the world (it rebuilds the whole table) and runs as a
	// mutate section: middleware allocations below must not re-enter the
	// evictor, whose Collect would deadlock on the held shard locks.
	rt.lockAll()
	defer rt.unlockAll()
	endMutate := rt.beginMutate(nil)
	defer endMutate()
	// Restoration is not user mutation.
	defer rt.h.SuspendWriteObserver()()
	rt.h.EnsureIDAbove(heap.ObjID(doc.MaxID))

	// Pass 1: recreate cluster records with their original ids.
	m := rt.mgr
	m.mu.Lock()
	for _, ck := range doc.Plain {
		cid := ClusterID(ck.ID)
		ts := m.tab(cid)
		ts.mu.Lock()
		_, dup := ts.clusters[cid]
		ts.mu.Unlock()
		if dup {
			m.mu.Unlock()
			return fmt.Errorf("%w: duplicate cluster %d", ErrBadCheckpoint, cid)
		}
		at := resident
		if ck.Swapped {
			at = swappedOut
		}
		cs := newClusterState(cid, len(ck.Members), at)
		for _, mem := range ck.Members {
			oid := heap.ObjID(mem.ID)
			cs.objects[oid] = true
			m.objects[oid] = objInfo{cluster: cid, class: mem.Class}
		}
		if ck.Swapped {
			devices := ck.replicaSet()
			for _, d := range devices {
				if d == "" {
					m.mu.Unlock()
					return fmt.Errorf("%w: cluster %d has an empty replica device", ErrBadCheckpoint, cid)
				}
			}
			if len(devices) == 0 {
				m.mu.Unlock()
				return fmt.Errorf("%w: swapped cluster %d has no replica devices", ErrBadCheckpoint, cid)
			}
			cs.shipment = shipment{bytesAtSwap: ck.Bytes, donorCopy: donorCopy{devices: devices,
				key: ck.Key, payloadBytes: ck.Payload, crc: ck.CRC, format: ck.Format}}
		}
		if ck.Base != nil {
			// Without the member and slot tables the copy anchors nothing: a
			// restored resident cluster ships in full (and the rotation drops
			// this key), a restored swapped one re-anchors when it reloads.
			base := donorCopy{key: ck.Base.Key, format: ck.Base.Format, crc: ck.Base.CRC}
			for _, r := range ck.Base.Replicas {
				base.devices = append(base.devices, r.Device)
			}
			m.anchor(cs, base, nil, nil)
		}
		ts.mu.Lock()
		ts.put(cs)
		ts.mu.Unlock()
		if cid > m.nextCluster {
			m.nextCluster = cid
		}
	}
	m.mu.Unlock()

	// Pass 2: install resident clusters under original identities.
	decodeRef := func(v xmlcodec.Value) (heap.Value, error) {
		if v.RefClass != xmlcodec.RefRemote {
			return heap.Nil(), fmt.Errorf("%w: unexpected reference class", ErrBadCheckpoint)
		}
		if strings.HasPrefix(v.Class, objProxyClassMarker) {
			pid, err := rt.ObjProxyFor(v.Target, strings.TrimPrefix(v.Class, objProxyClassMarker))
			if err != nil {
				return heap.Nil(), err
			}
			return heap.Ref(pid), nil
		}
		// Cross-cluster identity: temporarily direct; re-mediated below.
		return heap.Ref(v.Target), nil
	}
	for _, ck := range doc.Plain {
		if ck.Swapped {
			continue
		}
		inner, err := xmlcodec.Decode([]byte(ck.Doc))
		if err != nil {
			return fmt.Errorf("%w: cluster %d: %v", ErrBadCheckpoint, ck.ID, err)
		}
		if _, err := inner.Install(rt.h, rt.reg, decodeRef); err != nil {
			return fmt.Errorf("core: restore cluster %d: %w", ck.ID, err)
		}
	}

	// Pass 3: rebuild replacement-objects and outbound proxies for swapped
	// clusters (every cluster record exists by now, so proxies to other
	// swapped clusters correctly target their replacements once created —
	// order outbound creation after all replacements exist).
	for _, ck := range doc.Plain {
		if !ck.Swapped {
			continue
		}
		repl, err := rt.allocMiddleware(rt.replacementClass)
		if err != nil {
			return fmt.Errorf("core: restore replacement for cluster %d: %w", ck.ID, err)
		}
		if err := repl.SetFieldByName(fldClust, heap.Int(int64(ck.ID))); err != nil {
			return err
		}
		if err := repl.SetFieldByName(fldKey, heap.Str(ck.Key)); err != nil {
			return err
		}
		if err := repl.SetFieldByName(fldStore, heap.Str(strings.Join(ck.replicaSet(), ","))); err != nil {
			return err
		}
		ts := rt.mgr.tab(ClusterID(ck.ID))
		ts.mu.Lock()
		ts.clusters[ClusterID(ck.ID)].replacement = repl.ID()
		ts.mu.Unlock()
	}
	for _, ck := range doc.Plain {
		if !ck.Swapped {
			continue
		}
		// Size the table by the highest slot index: the list may be sparse
		// (nil placeholder slots in delta-remapped tables are not saved).
		maxSlot := -1
		for _, ob := range ck.Out {
			if ob.Slot > maxSlot {
				maxSlot = ob.Slot
			}
		}
		slots := make([]heap.Value, maxSlot+1)
		for _, ob := range ck.Out {
			if ob.Slot < 0 {
				return fmt.Errorf("%w: cluster %d outbound slot %d", ErrBadCheckpoint, ck.ID, ob.Slot)
			}
			target := heap.ObjID(ob.Target)
			if _, known := rt.mgr.member(target); !known {
				return fmt.Errorf("%w: cluster %d outbound target @%d unknown", ErrBadCheckpoint, ck.ID, target)
			}
			pid, err := rt.newProxy(ClusterID(ck.ID), target, false)
			if err != nil {
				return fmt.Errorf("core: restore outbound proxy: %w", err)
			}
			slots[ob.Slot] = heap.Ref(pid)
		}
		ts := rt.mgr.tab(ClusterID(ck.ID))
		ts.mu.Lock()
		replID := ts.clusters[ClusterID(ck.ID)].replacement
		ts.mu.Unlock()
		repl, err := rt.h.Get(replID)
		if err != nil {
			return err
		}
		if err := repl.SetFieldByName(fldOut, heap.List(slots...)); err != nil {
			return err
		}
	}

	// Pass 4: re-mediate resident clusters (cross-cluster refs installed
	// directly in pass 2 gain their proxies; proxies to swapped clusters
	// target the fresh replacements).
	for _, ck := range doc.Plain {
		if ck.Swapped {
			continue
		}
		if err := rt.remediateCluster(ClusterID(ck.ID)); err != nil {
			return err
		}
	}

	// Pass 5: roots (mediated by SetRoot).
	for _, cr := range doc.Roots {
		switch {
		case cr.Remote != 0:
			pid, err := rt.ObjProxyFor(heap.ObjID(cr.Remote), cr.Class)
			if err != nil {
				return err
			}
			if err := rt.SetRoot(cr.Name, heap.Ref(pid)); err != nil {
				return err
			}
		case cr.Target == 0:
			rt.h.SetRoot(cr.Name, heap.Nil())
		default:
			if err := rt.SetRoot(cr.Name, heap.Ref(heap.ObjID(cr.Target))); err != nil {
				return err
			}
		}
	}
	return nil
}
