//go:build !lockcount

package core

// countLocks is set in the lockcount build (lock_count.go): lock counts its
// acquisitions and assertLocked checks that the lock is held.
const countLocks = false
