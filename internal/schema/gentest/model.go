// Package gentest is obicomp's committed end-to-end fixture: one annotated
// struct covering every field kind, with the generated output checked in next
// to it. The tests in this package prove the three contracts the generator
// makes — output regenerates byte-identically (drift test), a generated class
// is the hand-built class (same methods, layout, proxy interface and
// results), and a swap-out of generated instances ships the committed golden
// frame byte for byte.
//
//go:generate go run objectswap/cmd/obicomp -dir .
package gentest

import "objectswap/internal/heap"

// Record exercises all seven field kinds the schema language supports.
//
//obiswap:class
type Record struct {
	Title  string
	Seq    int64
	Weight float64
	Dirty  bool
	Blob   []byte
	Next   *Record
	Tags   []heap.Value
}
