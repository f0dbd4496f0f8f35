//go:build race

package heap

// raceEnabled: under the race detector an allocation count read from
// runtime.MemStats around one call is not exact (TestCollectReusesSweptBuffer
// read a stray allocation there), so such budgets are gated without it.
const raceEnabled = true
