//go:build !lockcount

package heap

// LockCount is set in the lockcount build (owner_count.go): the heap's entry
// points run their owner's check (Owner.Held), and the swapping runtime
// counts its lock's acquisitions and asserts it at its own.
const LockCount = false
