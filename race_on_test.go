//go:build race

package objectswap

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation budgets that count on a warm pool do not hold under it.
const raceEnabled = true
