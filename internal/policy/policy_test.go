package policy

import (
	"errors"
	"testing"

	"objectswap/internal/core"
	"objectswap/internal/devctx"
	"objectswap/internal/event"
	"objectswap/internal/heap"
	"objectswap/internal/replication"
	"objectswap/internal/store"
)

// staticProvider returns a fixed snapshot.
type staticProvider devctx.Snapshot

func (p staticProvider) Snapshot() devctx.Snapshot { return devctx.Snapshot(p) }

func TestLoadAndFire(t *testing.T) {
	bus := event.NewBus()
	provider := staticProvider{"heap.used.pct": 85}
	e := NewEngine(bus, provider)

	var fired []string
	e.RegisterAction("note", func(spec ActionSpec, ev event.Event) error {
		fired = append(fired, spec.Param("tag", "?"))
		return nil
	})

	doc := `<policies>
  <policy name="p1" category="machine">
    <on event="memory.threshold"/>
    <when><gt left="heap.used.pct" right="80"/></when>
    <action do="note" tag="pressure"/>
  </policy>
  <policy name="p2" category="machine">
    <on event="memory.threshold"/>
    <when><gt left="heap.used.pct" right="95"/></when>
    <action do="note" tag="critical"/>
  </policy>
</policies>`
	if err := e.Load([]byte(doc)); err != nil {
		t.Fatal(err)
	}
	bus.Emit(event.TopicMemoryThreshold, nil)
	if len(fired) != 1 || fired[0] != "pressure" {
		t.Fatalf("fired = %v", fired)
	}
	if e.Fired("p1") != 1 || e.Fired("p2") != 0 {
		t.Fatalf("counters: p1=%d p2=%d", e.Fired("p1"), e.Fired("p2"))
	}
	if e.Fired("ghost") != 0 {
		t.Fatal("unknown policy counter")
	}
	// Unrelated topics do nothing.
	bus.Emit(event.TopicMemoryRelief, nil)
	if len(fired) != 1 {
		t.Fatalf("fired on unrelated topic: %v", fired)
	}
	e.Close()
	bus.Emit(event.TopicMemoryThreshold, nil)
	if len(fired) != 1 {
		t.Fatal("fired after Close")
	}
}

// countingProvider counts how often the engine asks for a snapshot.
type countingProvider struct{ calls int }

func (p *countingProvider) Snapshot() devctx.Snapshot {
	p.calls++
	return devctx.Snapshot{"x": 1}
}

// A snapshot evaluates every registered metric, so the engine takes one only
// when a matching policy has a condition to read it, and then once per event
// however many conditions read it.
func TestSnapshotOnlyWhenAConditionReadsIt(t *testing.T) {
	for _, c := range []struct {
		name, when string
		want       int
	}{
		{"unconditioned", "", 0},
		{"conditioned", `<when><gt left="x" right="0"/></when>`, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			bus := event.NewBus()
			provider := &countingProvider{}
			e := NewEngine(bus, provider)
			fired := 0
			e.RegisterAction("note", func(ActionSpec, event.Event) error { fired++; return nil })
			doc := `<policies>`
			for _, name := range []string{"p1", "p2"} {
				doc += `<policy name="` + name + `" category="machine"><on event="memory.threshold"/>` +
					c.when + `<action do="note"/></policy>`
			}
			if err := e.Load([]byte(doc + `</policies>`)); err != nil {
				t.Fatal(err)
			}
			for ev := 1; ev <= 3; ev++ {
				bus.Emit(event.TopicMemoryThreshold, nil)
				if provider.calls != c.want*ev || fired != 2*ev {
					t.Fatalf("after %d events: %d snapshots, %d actions, want %d and %d",
						ev, provider.calls, fired, c.want*ev, 2*ev)
				}
			}
		})
	}
}

func TestPriorityOrderAcrossCategories(t *testing.T) {
	bus := event.NewBus()
	e := NewEngine(bus, staticProvider{})
	var order []string
	e.RegisterAction("note", func(spec ActionSpec, _ event.Event) error {
		order = append(order, spec.Param("tag", "?"))
		return nil
	})
	doc := `<policies>
  <policy name="m" category="machine"><on event="t"/><action do="note" tag="machine"/></policy>
  <policy name="u" category="user"><on event="t"/><action do="note" tag="user"/></policy>
  <policy name="a" category="application"><on event="t"/><action do="note" tag="app"/></policy>
  <policy name="d" category="domain"><on event="t"/><action do="note" tag="domain"/></policy>
  <policy name="x" category="machine" priority="99"><on event="t"/><action do="note" tag="explicit"/></policy>
</policies>`
	if err := e.Load([]byte(doc)); err != nil {
		t.Fatal(err)
	}
	bus.Emit("t", nil)
	want := []string{"explicit", "user", "app", "domain", "machine"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestConditionGrammar(t *testing.T) {
	snapshot := devctx.Snapshot{"x": 10, "y": 5}
	cases := []struct {
		name string
		xml  string
		want bool
	}{
		{"gt true", `<gt left="x" right="y"/>`, true},
		{"gt false", `<gt left="y" right="x"/>`, false},
		{"ge equal", `<ge left="x" right="10"/>`, true},
		{"lt literal", `<lt left="y" right="7.5"/>`, true},
		{"le", `<le left="y" right="5"/>`, true},
		{"eq", `<eq left="x" right="10"/>`, true},
		{"ne", `<ne left="x" right="10"/>`, false},
		{"missing metric is zero", `<eq left="ghost" right="0"/>`, true},
		{"all", `<all><gt left="x" right="1"/><gt left="y" right="1"/></all>`, true},
		{"all short", `<all><gt left="x" right="1"/><gt left="y" right="100"/></all>`, false},
		{"any", `<any><gt left="y" right="100"/><gt left="x" right="1"/></any>`, true},
		{"any none", `<any><gt left="y" right="100"/><gt left="x" right="100"/></any>`, false},
		{"not", `<not><gt left="y" right="100"/></not>`, true},
		{"nested", `<all><not><eq left="x" right="0"/></not><any><eq left="y" right="5"/></any></all>`, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := `<policies><policy name="p" category="user"><on event="t"/><when>` +
				tc.xml + `</when><action do="noop"/></policy></policies>`
			policies, err := parseDocument([]byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			if got := policies[0].Cond.Eval(snapshot); got != tc.want {
				t.Fatalf("Eval = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestParseRejectsBadDocuments(t *testing.T) {
	cases := map[string]string{
		"not xml":         `}{`,
		"no policies":     `<policies></policies>`,
		"no name":         `<policies><policy category="user"><on event="t"/><action do="x"/></policy></policies>`,
		"bad category":    `<policies><policy name="p" category="wat"><on event="t"/><action do="x"/></policy></policies>`,
		"no events":       `<policies><policy name="p" category="user"><action do="x"/></policy></policies>`,
		"empty event":     `<policies><policy name="p" category="user"><on event=""/><action do="x"/></policy></policies>`,
		"no actions":      `<policies><policy name="p" category="user"><on event="t"/></policy></policies>`,
		"empty action":    `<policies><policy name="p" category="user"><on event="t"/><action/></policy></policies>`,
		"two conditions":  `<policies><policy name="p" category="user"><on event="t"/><when><gt left="a" right="b"/><gt left="a" right="b"/></when><action do="x"/></policy></policies>`,
		"bad condition":   `<policies><policy name="p" category="user"><on event="t"/><when><wat/></when><action do="x"/></policy></policies>`,
		"cmp no operands": `<policies><policy name="p" category="user"><on event="t"/><when><gt/></when><action do="x"/></policy></policies>`,
		"empty all":       `<policies><policy name="p" category="user"><on event="t"/><when><all/></when><action do="x"/></policy></policies>`,
		"not two kids":    `<policies><policy name="p" category="user"><on event="t"/><when><not><gt left="a" right="1"/><gt left="a" right="1"/></not></when><action do="x"/></policy></policies>`,
		"duplicate name":  `<policies><policy name="p" category="user"><on event="t"/><action do="x"/></policy><policy name="p" category="user"><on event="t"/><action do="x"/></policy></policies>`,
	}
	for name, doc := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := parseDocument([]byte(doc)); !errors.Is(err, ErrBadPolicy) {
				t.Fatalf("accepted %s: %v", name, err)
			}
		})
	}
}

func TestLoadRejectsUnknownAction(t *testing.T) {
	e := NewEngine(event.NewBus(), staticProvider{})
	doc := `<policies><policy name="p" category="user"><on event="t"/><action do="mystery"/></policy></policies>`
	if err := e.Load([]byte(doc)); !errors.Is(err, ErrUnknownAction) {
		t.Fatalf("Load: %v", err)
	}
}

func TestActionErrorsCountedAndSunk(t *testing.T) {
	bus := event.NewBus()
	e := NewEngine(bus, staticProvider{})
	boom := errors.New("boom")
	e.RegisterAction("explode", func(ActionSpec, event.Event) error { return boom })
	var sunk error
	e.OnActionError(func(p *Policy, spec ActionSpec, err error) { sunk = err })
	doc := `<policies><policy name="p" category="user"><on event="t"/><action do="explode"/></policy></policies>`
	if err := e.Load([]byte(doc)); err != nil {
		t.Fatal(err)
	}
	bus.Emit("t", nil)
	if !errors.Is(sunk, boom) {
		t.Fatalf("sunk = %v", sunk)
	}
	if e.Policies()[0].errors != 1 {
		t.Fatalf("error count = %d", e.Policies()[0].errors)
	}
}

func TestActionParamHelpers(t *testing.T) {
	spec := ActionSpec{Do: "x", Params: map[string]string{
		"s": "hello", "n": "42", "b": "true", "badn": "zz", "badb": "zz",
	}}
	if spec.Param("s", "d") != "hello" || spec.Param("missing", "d") != "d" {
		t.Error("Param")
	}
	if spec.IntParam("n", 0) != 42 || spec.IntParam("badn", 7) != 7 || spec.IntParam("missing", 7) != 7 {
		t.Error("IntParam")
	}
	if !spec.BoolParam("b", false) || spec.BoolParam("badb", true) != true || spec.BoolParam("missing", true) != true {
		t.Error("BoolParam")
	}
}

func TestMultipleEventsPerPolicy(t *testing.T) {
	bus := event.NewBus()
	e := NewEngine(bus, staticProvider{})
	count := 0
	e.RegisterAction("note", func(ActionSpec, event.Event) error { count++; return nil })
	doc := `<policies><policy name="p" category="user">
	  <on event="a"/><on event="b"/>
	  <action do="note"/>
	</policy></policies>`
	if err := e.Load([]byte(doc)); err != nil {
		t.Fatal(err)
	}
	bus.Emit("a", nil)
	bus.Emit("b", nil)
	if count != 2 {
		t.Fatalf("count = %d", count)
	}
}

func TestBindReplicationActions(t *testing.T) {
	bus := event.NewBus()
	e := NewEngine(bus, staticProvider{})
	// A minimal replicator over an in-process master.
	reg := heapRegistryWithNode(t)
	master := replication.NewMaster(reg, 10)
	devices := storeRegistry(t)
	rt := core.NewRuntime(heap.New(0), heap.NewRegistry(), core.WithStores(devices))
	rt.MustRegisterClass(nodeClassForPolicy())
	r := replication.Attach(rt, master, replication.WithGroupSize(4))
	BindReplicationActions(e, r)

	doc := `<policies>
  <policy name="degrade" category="machine">
    <on event="link.down"/>
    <action do="set-group-size" n="1"/>
  </policy>
  <policy name="bad" category="machine">
    <on event="link.up"/>
    <action do="set-group-size"/>
  </policy>
</policies>`
	if err := e.Load([]byte(doc)); err != nil {
		t.Fatal(err)
	}
	bus.Emit(event.TopicLinkDown, "neighbor")
	if r.GroupSize() != 1 {
		t.Fatalf("group size after policy = %d", r.GroupSize())
	}
	// Missing n errors (counted, not fatal).
	var sunk error
	e.OnActionError(func(_ *Policy, _ ActionSpec, err error) { sunk = err })
	bus.Emit(event.TopicLinkUp, "neighbor")
	if sunk == nil {
		t.Fatal("invalid set-group-size silently accepted")
	}
}

// Helpers for the replication binding test.
func heapRegistryWithNode(t *testing.T) *heap.Registry {
	t.Helper()
	reg := heap.NewRegistry()
	reg.MustRegister(nodeClassForPolicy())
	return reg
}

func nodeClassForPolicy() *heap.Class {
	return heap.NewClass("PolicyNode",
		heap.FieldDef{Name: "next", Kind: heap.KindRef},
	)
}

func storeRegistry(t *testing.T) *store.Registry {
	t.Helper()
	devices := store.NewRegistry(store.SelectMostFree)
	if err := devices.Add("neighbor", store.NewMem(0)); err != nil {
		t.Fatal(err)
	}
	return devices
}
