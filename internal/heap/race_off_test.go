//go:build !race

package heap

const raceEnabled = false
