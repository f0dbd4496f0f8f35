//go:build lockcount

package heap

const LockCount = true
