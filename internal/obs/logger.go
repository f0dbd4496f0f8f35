package obs

import "log/slog"

// discard drops every record; Logger hands it out in place of a nil logger.
var discard = slog.New(slog.DiscardHandler)

// Logger returns lg, or a logger that drops every record when lg is nil. A
// component that logs resolves its logger once, when it is built, so no call
// site checks for nil.
func Logger(lg *slog.Logger) *slog.Logger {
	if lg == nil {
		return discard
	}
	return lg
}
