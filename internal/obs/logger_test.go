package obs

import (
	"bytes"
	"context"
	"log/slog"
	"testing"
	"time"
)

// TestNilLoggerIsSafe: Logger(nil) hands back a logger with every level off,
// a logger passed in comes back unchanged, and a record built from typed
// attributes allocates nothing when nothing reads it.
func TestNilLoggerIsSafe(t *testing.T) {
	ctx := context.Background()
	lg := Logger(nil)
	if lg == nil || lg.Enabled(ctx, slog.LevelError) {
		t.Fatal("Logger(nil) must be a non-nil logger with every level off")
	}
	var buf bytes.Buffer
	if own := slog.New(slog.NewTextHandler(&buf, nil)); Logger(own) != own {
		t.Fatal("Logger must return a non-nil logger unchanged")
	}
	allocs := testing.AllocsPerRun(100, func() {
		lg.LogAttrs(ctx, slog.LevelInfo, "swap-out", slog.String("trace", "dev1-00000001"),
			slog.Uint64("cluster", 3), slog.Int("bytes", 4869), slog.Bool("clean", false),
			slog.Duration("dur", time.Millisecond))
	})
	if allocs != 0 {
		t.Fatalf("a dropped record allocates %.0f objects, want 0", allocs)
	}
}
