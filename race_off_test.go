//go:build !race

package objectswap

const raceEnabled = false
