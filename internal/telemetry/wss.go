package telemetry

// WSSSample is one sealed sampling interval of the working-set estimator,
// shaped for the /debug/wss JSON time series (paper Fig. 5 style: distinct
// clusters touched per interval and their byte footprint). Start and end are
// ticks of the recency clock.
type WSSSample struct {
	StartTick uint64 `json:"start_tick"`
	EndTick   uint64 `json:"end_tick"`
	Clusters  int    `json:"clusters"`
	Bytes     int64  `json:"bytes"`
}

// measure walks the tracked clusters once and dates the walk: sizes holds
// the footprint of every cluster touched at or after tick from, known every
// id that exists.
func (t *Tracker) measure(from uint64) (sizes map[uint32]int64, known map[uint32]bool, now uint64) {
	sizes, known = make(map[uint32]int64), make(map[uint32]bool)
	now = t.each(func(_ uint64, id uint32, l *Ledger, size func() int64) {
		known[id] = true
		if l.Touches != 0 && l.last >= from {
			sizes[id] = size()
		}
	})
	return sizes, known, now
}

// read seals the open sampling interval if it has elapsed and returns the
// sealed samples inside the window (in ticks), oldest first, and the open
// interval, each reduced to the clusters that still exist: a cluster the
// manager has dropped leaves the window with its record. Must not be called
// with core locks held.
func (t *Tracker) read(window uint64) (sealed []wssSample, open wssSample) {
	if window == 0 {
		window = t.wssWindow
	}
	t.wssMu.Lock()
	defer t.wssMu.Unlock()
	sizes, known, now := t.measure(t.curStart)
	if now-t.curStart >= t.wssInterval {
		t.samples = append(t.samples, wssSample{start: t.curStart, end: now, sizes: sizes})
		if len(t.samples) > maxWSSSamples {
			// Re-slice into a fresh array so the dropped head can be collected.
			t.samples = append([]wssSample(nil), t.samples[len(t.samples)-maxWSSSamples:]...)
		}
		t.curStart = now
		sizes, known, now = t.measure(now)
	}
	open = wssSample{start: t.curStart, end: now, sizes: sizes}
	for _, s := range t.samples {
		if now-s.end >= window {
			continue
		}
		kept := wssSample{start: s.start, end: s.end, sizes: make(map[uint32]int64, len(s.sizes))}
		for id, b := range s.sizes {
			if known[id] {
				kept.sizes[id] = b
			}
		}
		sealed = append(sealed, kept)
	}
	return sealed, open
}

// WSS returns the working-set estimate over the given window in ticks (0
// selects the default window): the number of distinct clusters touched and
// the byte footprint, counting each cluster's most recent measurement. The
// open (unsealed) interval is included so a scrape right after activity is
// not blind for up to one interval. Must not be called with core locks held.
func (t *Tracker) WSS(window uint64) (clusters int, bytes int64) {
	if t == nil {
		return 0, 0
	}
	sealed, open := t.read(window)
	union := make(map[uint32]int64)
	for _, s := range append(sealed, open) {
		for id, b := range s.sizes {
			union[id] = b
		}
	}
	for _, b := range union {
		bytes += b
	}
	return len(union), bytes
}

// WSSSeries returns the per-interval samples inside the window (in ticks, 0
// for the default), oldest first, with a trailing partial sample for the open
// interval when it has any activity. Must not be called with core locks held.
func (t *Tracker) WSSSeries(window uint64) []WSSSample {
	if t == nil {
		return nil
	}
	sealed, open := t.read(window)
	if len(open.sizes) > 0 {
		sealed = append(sealed, open)
	}
	var out []WSSSample
	for _, s := range sealed {
		var b int64
		for _, sz := range s.sizes {
			b += sz
		}
		out = append(out, WSSSample{StartTick: s.start, EndTick: s.end, Clusters: len(s.sizes), Bytes: b})
	}
	return out
}
