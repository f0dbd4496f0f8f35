package telemetry

import "time"

// WSSSample is one sealed sampling interval of the working-set estimator,
// shaped for the /debug/wss JSON time series (paper Fig. 5 style: distinct
// clusters touched per interval and their byte footprint).
type WSSSample struct {
	Start    time.Time `json:"start"`
	End      time.Time `json:"end"`
	Clusters int       `json:"clusters"`
	Bytes    int64     `json:"bytes"`
}

// measure walks the tracked clusters once: sizes holds the footprint of
// every cluster touched at or after since, known every id that exists.
func (t *Tracker) measure(since time.Time) (sizes map[uint32]int64, known map[uint32]bool) {
	sizes, known = make(map[uint32]int64), make(map[uint32]bool)
	from := t.instant(since)
	t.each(func(id uint32, l *Ledger, size func() int64) {
		known[id] = true
		if l.last >= from {
			sizes[id] = size()
		}
	})
	return sizes, known
}

// read seals the open sampling interval if it has elapsed and returns the
// sealed samples inside the window, oldest first, and the open interval, each
// reduced to the clusters that still exist: a cluster the manager has dropped
// leaves the window with its record. Must not be called with core locks held.
func (t *Tracker) read(window time.Duration) (sealed []wssSample, open wssSample) {
	if window <= 0 {
		window = t.opt.WSSWindow
	}
	now := t.readNow()
	t.wssMu.Lock()
	defer t.wssMu.Unlock()
	if now.Sub(t.curStart) >= t.opt.WSSInterval {
		sizes, _ := t.measure(t.curStart)
		t.samples = append(t.samples, wssSample{start: t.curStart, end: now, sizes: sizes})
		if len(t.samples) > maxWSSSamples {
			// Re-slice into a fresh array so the dropped head can be collected.
			t.samples = append([]wssSample(nil), t.samples[len(t.samples)-maxWSSSamples:]...)
		}
		t.curStart = now
	}
	sizes, known := t.measure(t.curStart)
	open = wssSample{start: t.curStart, end: now, sizes: sizes}
	cutoff := now.Add(-window)
	for _, s := range t.samples {
		if !s.end.After(cutoff) {
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

// WSS returns the working-set estimate over the given window (0 selects the
// default window): the number of distinct clusters touched and the byte
// footprint, counting each cluster's most recent measurement. The open
// (unsealed) interval is included so a scrape right after activity is not
// blind for up to one interval. Must not be called with core locks held.
func (t *Tracker) WSS(window time.Duration) (clusters int, bytes int64) {
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

// WSSSeries returns the per-interval samples inside the window, oldest
// first, with a trailing partial sample for the open interval when it has
// any activity. Must not be called with core locks held.
func (t *Tracker) WSSSeries(window time.Duration) []WSSSample {
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
		out = append(out, WSSSample{Start: s.start, End: s.end, Clusters: len(s.sizes), Bytes: b})
	}
	return out
}
