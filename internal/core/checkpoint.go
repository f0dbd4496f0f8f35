package core

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"

	"objectswap/internal/heap"
	"objectswap/internal/wire"
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
	// Base records the retained copy: the last shipment donors still hold
	// (for a swapped cluster, the one its own attributes name). Only the key,
	// format and donor set survive the checkpoint — the membership/slot
	// tables do not, so a restored copy supports donor-side cleanup, while
	// the first post-restore swap-out of a resident cluster ships (and anchors
	// a complete one).
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
// with in-flight invocations. The save stops the world (the swap lock) so the
// stream is a consistent cut: no swap commits or installs mid-checkpoint.
func (rt *Runtime) SaveCheckpoint(w io.Writer) error {
	if rt.depth != 0 {
		return errors.New("core: checkpoint with in-flight invocations")
	}
	rt.swapMu.Lock()
	defer rt.swapMu.Unlock()
	doc := ckptDoc{Version: checkpointVersion, Device: rt.name, KeySeq: rt.keyseq.Load()}
	enc := wire.NewEncoder()
	defer enc.Release()

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
		tab := &rt.mgr.table
		tab.mu.Lock()
		cs := tab.clusters[cid]
		members := slices.Clone(cs.members)
		ck := ckptCluster{ID: uint32(cid), Swapped: cs.where.out()}
		for _, oid := range members {
			note(oid)
			ck.Members = append(ck.Members, ckptMember{ID: uint64(oid), Class: rt.classes[tab.members[oid].class].app.Name})
		}
		// Replica sets are replaced, never edited, so the copies may share them.
		swapped, was, c := ck.Swapped, cs.shipment, cs.retained.donorCopy
		tab.mu.Unlock()
		if swapped {
			ck.Key, ck.Payload, ck.Bytes = c.key, c.payloadBytes, was.bytesAtSwap
			ck.CRC, ck.Format, ck.Device = c.crc, c.format, c.primary()
			for _, d := range c.devices {
				ck.Replicas = append(ck.Replicas, ckptReplica{Device: d})
			}
			// The outbound slot table, by ultimate target identity. Nil slots
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
			data, err := rt.encodeResidentCluster(enc, cid, members)
			if err != nil {
				return err
			}
			ck.Doc = string(data)
		}
		if c.key != "" {
			ck.Base = &ckptBase{Key: c.key, Format: c.format, CRC: c.crc}
			for _, d := range c.devices {
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
		cr := ckptRoot{Name: name}
		if id != heap.NilID {
			d, err := rt.designate(id)
			switch {
			case err != nil:
				return fmt.Errorf("core: checkpoint: root %s: %w", name, err)
			case d.kind == refObjFault:
				cr.Remote, cr.Class = uint64(ObjProxyRemote(d.obj)), ObjProxyClass(d.obj)
			default:
				cr.Target = uint64(d.ultimate)
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

// encodeResidentCluster wraps a resident cluster for the checkpoint as the
// swap path's XML: intra-cluster references are internal; everything else is
// encoded by ultimate identity (or as an object-fault placeholder). The
// document is enc's buffer, valid until its next use.
func (rt *Runtime) encodeResidentCluster(enc *wire.Encoder, cid ClusterID, members []heap.ObjID) ([]byte, error) {
	objs := make([]*heap.Object, 0, len(members))
	for _, oid := range members {
		o, err := rt.h.Get(oid)
		if err != nil {
			return nil, fmt.Errorf("core: checkpoint: member @%d of cluster %d: %w", oid, cid, err)
		}
		objs = append(objs, o)
	}
	encodeRef := func(rid heap.ObjID) (xmlcodec.Value, error) {
		if _, in := slices.BinarySearch(members, rid); in {
			return xmlcodec.InternalRef(rid), nil
		}
		d, err := rt.designate(rid)
		switch {
		case err != nil:
			return xmlcodec.Value{}, fmt.Errorf("core: checkpoint: reference @%d: %w", rid, err)
		case d.kind == refObjFault:
			return xmlcodec.RemoteRefOf(ObjProxyRemote(d.obj), objProxyClassMarker+ObjProxyClass(d.obj)), nil
		}
		return xmlcodec.RemoteRef(d.ultimate), nil
	}
	return enc.EncodeObjects(wire.FormatXML, fmt.Sprintf("ckpt-cluster-%d", cid), objs, encodeRef)
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
	// evictor, whose Collect would deadlock on the held swap lock.
	rt.swapMu.Lock()
	defer rt.swapMu.Unlock()
	endMutate := rt.beginMutate()
	defer endMutate()
	rt.h.EnsureIDAbove(heap.ObjID(doc.MaxID))

	// Pass 1: recreate cluster records with their original ids.
	if err := rt.mgr.restoreRecords(doc.Plain); err != nil {
		return err
	}

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
		// A cluster document is XML: the stage end also takes binary frames,
		// which a checkpoint never holds.
		data := []byte(ck.Doc)
		if format, _ := wire.Detect(data); format != wire.FormatXML {
			return fmt.Errorf("%w: cluster %d: document is not XML", ErrBadCheckpoint, ck.ID)
		}
		staged, err := wire.Stage(data, rt.reg)
		if err != nil {
			return fmt.Errorf("%w: cluster %d: %w", ErrBadCheckpoint, ck.ID, err)
		}
		_, err = staged.Install(rt.h, decodeRef)
		staged.Release()
		if err != nil {
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
		tab := &rt.mgr.table
		tab.mu.Lock()
		tab.clusters[ClusterID(ck.ID)].replacement = repl.ID()
		tab.mu.Unlock()
	}
	for _, ck := range doc.Plain {
		if !ck.Swapped {
			continue
		}
		// Size the table by the highest slot index: the list may be sparse
		// (nil slots are not saved).
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
		tab := &rt.mgr.table
		tab.mu.Lock()
		replID := tab.clusters[ClusterID(ck.ID)].replacement
		tab.mu.Unlock()
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

// restoreRecords is LoadCheckpoint's pass 1: it recreates every cluster
// record, members included, under its original id, in one hold of the table
// lock.
func (m *Manager) restoreRecords(plain []ckptCluster) error {
	tab := &m.table
	tab.mu.Lock()
	defer tab.mu.Unlock()
	for _, ck := range plain {
		cid := ClusterID(ck.ID)
		if _, dup := tab.clusters[cid]; dup {
			return fmt.Errorf("%w: duplicate cluster %d", ErrBadCheckpoint, cid)
		}
		at := resident
		if ck.Swapped {
			at = swappedOut
		}
		cs := newClusterState(cid, at)
		for _, mem := range ck.Members {
			oid := heap.ObjID(mem.ID)
			class, ok := m.rt.classIndex[mem.Class]
			switch _, dup := tab.members[oid]; {
			case !ok:
				return fmt.Errorf("%w: cluster %d member @%d: %w: %q", ErrBadCheckpoint, cid, oid, heap.ErrUnknownClass, mem.Class)
			case dup || len(cs.members) > 0 && cs.members[len(cs.members)-1] >= oid:
				return fmt.Errorf("%w: cluster %d member @%d repeated or out of order", ErrBadCheckpoint, cid, oid)
			}
			cs.members = append(cs.members, oid)
			tab.members[oid] = objInfo{cluster: cid, class: class}
		}
		if ck.Swapped {
			devices := ck.replicaSet()
			if len(devices) == 0 {
				return fmt.Errorf("%w: swapped cluster %d has no replica devices", ErrBadCheckpoint, cid)
			}
			if slices.Contains(devices, "") {
				return fmt.Errorf("%w: cluster %d has an empty replica device", ErrBadCheckpoint, cid)
			}
			// The copy a reload fetches is the one the cluster's own key and
			// replica list name (its <base> repeats them). Without a slot
			// table it anchors nothing until the reload reads it back.
			cs.shipment = shipment{bytesAtSwap: ck.Bytes}
			m.anchor(cs, donorCopy{devices: devices, key: ck.Key, payloadBytes: ck.Payload,
				crc: ck.CRC, format: ck.Format}, nil)
		} else if ck.Base != nil {
			// Without a slot table the copy anchors nothing: a restored
			// resident cluster ships in full, and the rotation drops this
			// key.
			c := donorCopy{key: ck.Base.Key, format: ck.Base.Format, crc: ck.Base.CRC}
			for _, r := range ck.Base.Replicas {
				c.devices = append(c.devices, r.Device)
			}
			m.anchor(cs, c, nil)
		}
		tab.put(cs)
		tab.lastID = max(tab.lastID, cid)
	}
	return nil
}
