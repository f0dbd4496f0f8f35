package policy

// Hooks and readers only the tests use.

// OnActionError installs a sink for action failures.
func (e *Engine) OnActionError(fn func(p *Policy, spec ActionSpec, err error)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.errorSink = fn
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
