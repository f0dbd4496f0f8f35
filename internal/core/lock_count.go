//go:build lockcount

package core

const countLocks = true
