// Package policy implements OBIWAN's Policy Engine: the inference component
// that "manages, loads, and deploys declarative policies to oversee and
// mediate responses to events occurred in the system".
//
// Policies are coded in XML (as in the prototype), stored and categorized by
// nature (user, machine, application, domain). The engine subscribes to the
// events each policy names, evaluates its condition over a metric snapshot
// from context management, and triggers its actions — for Object-Swapping,
// typically selecting victim clusters and swapping them out when memory
// crosses a threshold.
//
// Policy document shape:
//
//	<policies>
//	  <policy name="swap-on-pressure" category="machine" priority="10">
//	    <on event="memory.threshold"/>
//	    <when>
//	      <gt left="heap.used.pct" right="80"/>
//	    </when>
//	    <action do="swap-out" strategy="coldest" count="1" collect="true"/>
//	  </policy>
//	</policies>
//
// Conditions compose with <all>, <any> and <not>; leaves compare a metric
// (or literal number) against another with <gt>, <ge>, <lt>, <le>, <eq>,
// <ne>. A policy without <when> always fires on its events.
package policy

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"

	"objectswap/internal/devctx"
	"objectswap/internal/event"
	"objectswap/internal/obs"
	olog "objectswap/internal/obs/log"
)

// Errors reported by the policy engine.
var (
	ErrBadPolicy     = errors.New("policy: malformed policy document")
	ErrUnknownAction = errors.New("policy: unknown action")
)

// Category classifies a policy by nature, as the paper prescribes.
type Category string

// The four policy categories of the OBIWAN policy engine.
const (
	CategoryUser        Category = "user"
	CategoryMachine     Category = "machine"
	CategoryApplication Category = "application"
	CategoryDomain      Category = "domain"
)

// defaultPriority orders categories when a policy does not set an explicit
// priority: user wishes outrank application logic, which outranks domain
// conventions, which outrank machine defaults.
func defaultPriority(c Category) int {
	switch c {
	case CategoryUser:
		return 40
	case CategoryApplication:
		return 30
	case CategoryDomain:
		return 20
	default:
		return 10
	}
}

// Condition evaluates against a metric snapshot.
type Condition interface {
	Eval(s devctx.Snapshot) bool
}

// comparison is a leaf condition.
type comparison struct {
	op    string
	left  operand
	right operand
}

// operand is a metric name or a literal number.
type operand struct {
	metric  string
	literal float64
	isLit   bool
}

func (o operand) value(s devctx.Snapshot) float64 {
	if o.isLit {
		return o.literal
	}
	return s[o.metric]
}

func parseOperand(text string) operand {
	if f, err := strconv.ParseFloat(text, 64); err == nil {
		return operand{literal: f, isLit: true}
	}
	return operand{metric: text}
}

// Eval implements Condition.
func (c comparison) Eval(s devctx.Snapshot) bool {
	l, r := c.left.value(s), c.right.value(s)
	switch c.op {
	case "gt":
		return l > r
	case "ge":
		return l >= r
	case "lt":
		return l < r
	case "le":
		return l <= r
	case "eq":
		return l == r
	case "ne":
		return l != r
	default:
		return false
	}
}

// allOf / anyOf / notOf compose conditions.
type allOf []Condition

func (a allOf) Eval(s devctx.Snapshot) bool {
	for _, c := range a {
		if !c.Eval(s) {
			return false
		}
	}
	return true
}

type anyOf []Condition

func (a anyOf) Eval(s devctx.Snapshot) bool {
	for _, c := range a {
		if c.Eval(s) {
			return true
		}
	}
	return false
}

type notOf struct{ inner Condition }

func (n notOf) Eval(s devctx.Snapshot) bool { return !n.inner.Eval(s) }

// ActionSpec is one action invocation with its parameters.
type ActionSpec struct {
	Do     string
	Params map[string]string
}

// Param returns a parameter with a default.
func (a ActionSpec) Param(name, def string) string {
	if v, ok := a.Params[name]; ok {
		return v
	}
	return def
}

// IntParam returns an integer parameter with a default.
func (a ActionSpec) IntParam(name string, def int) int {
	if v, ok := a.Params[name]; ok {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

// BoolParam returns a boolean parameter with a default.
func (a ActionSpec) BoolParam(name string, def bool) bool {
	if v, ok := a.Params[name]; ok {
		if b, err := strconv.ParseBool(v); err == nil {
			return b
		}
	}
	return def
}

// Policy is one loaded declarative rule.
type Policy struct {
	Name     string
	Category Category
	Priority int
	Events   []event.Topic
	Cond     Condition // nil = always
	Actions  []ActionSpec

	fired  uint64
	errors uint64
}

// ActionFunc executes one action. The event that triggered the policy is
// passed for context.
type ActionFunc func(spec ActionSpec, ev event.Event) error

// Engine loads policies and mediates events to actions.
type Engine struct {
	bus      *event.Bus
	provider devctx.Provider

	mu               sync.Mutex
	policies         []*Policy
	actions          map[string]ActionFunc
	subs             []*event.Subscription
	subscribedTopics []event.Topic
	// errorSink receives action failures (default: counted silently).
	errorSink func(p *Policy, spec ActionSpec, err error)
	// logger emits structured records for action outcomes (nil logs nothing).
	logger *olog.Logger

	// obs instruments (nil until Instrument; nil vecs record nothing).
	evaluations    *obs.CounterVec
	firedC         *obs.CounterVec
	actionOutcomes *obs.CounterVec
}

// Instrument registers the engine's counters in r: condition evaluations and
// triggers per policy, and action outcomes per action.
func (e *Engine) Instrument(r *obs.Registry) {
	if r == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.evaluations = r.CounterVec("objectswap_policy_evaluations_total",
		"Policy condition evaluations, per policy.", "policy")
	e.firedC = r.CounterVec("objectswap_policy_fired_total",
		"Policies whose condition held and whose actions ran, per policy.", "policy")
	e.actionOutcomes = r.CounterVec("objectswap_policy_action_outcomes_total",
		"Action executions by action name and outcome.", "action", "outcome")
}

// SetLogger installs the engine's structured logger: action failures log at
// warn, successful action runs at debug, and the "log" policy action writes
// through it.
func (e *Engine) SetLogger(lg *olog.Logger) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.logger = lg
}

// Logger returns the engine's structured logger, which may be nil.
func (e *Engine) Logger() *olog.Logger {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.logger
}

// NewEngine builds an engine over an event bus and a metric provider.
func NewEngine(bus *event.Bus, provider devctx.Provider) *Engine {
	return &Engine{
		bus:      bus,
		provider: provider,
		actions:  make(map[string]ActionFunc),
	}
}

// RegisterAction makes an action available to policies under name.
func (e *Engine) RegisterAction(name string, fn ActionFunc) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.actions[name] = fn
}

// OnActionError installs a sink for action failures.
func (e *Engine) OnActionError(fn func(p *Policy, spec ActionSpec, err error)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.errorSink = fn
}

// Policies returns the loaded policies in evaluation order.
func (e *Engine) Policies() []*Policy {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]*Policy, len(e.policies))
	copy(out, e.policies)
	return out
}

// Fired reports how many times the named policy has triggered its actions.
func (e *Engine) Fired(name string) uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, p := range e.policies {
		if p.Name == name {
			return p.fired
		}
	}
	return 0
}

// Load parses an XML policy document, validates it against the registered
// actions, installs its policies and subscribes to their events.
func (e *Engine) Load(data []byte) error {
	policies, err := parseDocument(data)
	if err != nil {
		return err
	}
	e.mu.Lock()
	for _, p := range policies {
		for _, a := range p.Actions {
			if _, ok := e.actions[a.Do]; !ok {
				e.mu.Unlock()
				return fmt.Errorf("%w: %q (policy %q)", ErrUnknownAction, a.Do, p.Name)
			}
		}
	}
	e.policies = append(e.policies, policies...)
	sort.SliceStable(e.policies, func(i, j int) bool {
		return e.policies[i].Priority > e.policies[j].Priority
	})
	e.mu.Unlock()

	topics := make(map[event.Topic]bool)
	for _, p := range e.Policies() {
		for _, t := range p.Events {
			topics[t] = true
		}
	}
	ordered := make([]string, 0, len(topics))
	for t := range topics {
		ordered = append(ordered, string(t))
	}
	sort.Strings(ordered)
	for _, t := range ordered {
		e.subscribe(event.Topic(t))
	}
	return nil
}

// subscribe ensures exactly one bus subscription per topic.
func (e *Engine) subscribe(t event.Topic) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, topic := range e.subscribedTopics {
		if topic == t {
			return
		}
	}
	e.subscribedTopics = append(e.subscribedTopics, t)
	e.subs = append(e.subs, e.bus.Subscribe(t, e.handle))
}

// handle mediates one event to the matching policies.
func (e *Engine) handle(ev event.Event) {
	e.mu.Lock()
	matching := make([]*Policy, 0, len(e.policies))
	for _, p := range e.policies {
		for _, t := range p.Events {
			if t == ev.Topic {
				matching = append(matching, p)
				break
			}
		}
	}
	actions := e.actions
	sink := e.errorSink
	logger := e.logger
	evaluations, fired, outcomes := e.evaluations, e.firedC, e.actionOutcomes
	e.mu.Unlock()

	// One snapshot per event, taken at the first matching policy with a
	// condition to read it: a snapshot evaluates every registered metric, and
	// most events are mediated by unconditioned policies.
	var snapshot devctx.Snapshot
	taken := false
	for _, p := range matching {
		evaluations.With(p.Name).Inc()
		if p.Cond != nil {
			if !taken {
				snapshot, taken = e.provider.Snapshot(), true
			}
			if !p.Cond.Eval(snapshot) {
				continue
			}
		}
		e.mu.Lock()
		p.fired++
		e.mu.Unlock()
		fired.With(p.Name).Inc()
		for _, spec := range p.Actions {
			fn := actions[spec.Do]
			if err := fn(spec, ev); err != nil {
				e.mu.Lock()
				p.errors++
				e.mu.Unlock()
				outcomes.With(spec.Do, "error").Inc()
				logger.Warn("policy action failed", "policy", p.Name,
					"action", spec.Do, "event", ev.Topic, "err", err)
				if sink != nil {
					sink(p, spec, err)
				}
			} else {
				outcomes.With(spec.Do, "ok").Inc()
				logger.Debug("policy action ok", "policy", p.Name,
					"action", spec.Do, "event", ev.Topic)
			}
		}
	}
}

// Close cancels all event subscriptions.
func (e *Engine) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, s := range e.subs {
		s.Cancel()
	}
	e.subs = nil
	e.subscribedTopics = nil
}
