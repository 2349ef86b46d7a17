// Package leaf is the bottom of the modipa fixture tree (root -> mid ->
// leaf). The facts recorded here — a forever-blocking wait, an allocation,
// a lock-order edge — surface as findings one or two packages up only when
// the module analysis links the packages into one call graph.
package leaf

import "sync"

// Table is a lock identity shared by type name with the root package's
// Table: the type-level naming is what unifies order edges across packages.
type Table struct{ mu sync.Mutex }

// Index is the second lock of the cross-package ABBA pair.
type Index struct{ mu sync.Mutex }

// LockIndexThenTable records the Index.mu -> Table.mu order edge that the
// root package reverses.
func LockIndexThenTable(ix *Index, t *Table) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	t.mu.Lock()
	t.mu.Unlock()
}

// LockIndex briefly acquires only the index lock.
func LockIndex(ix *Index) {
	ix.mu.Lock()
	ix.mu.Unlock()
}

var forever chan struct{}

// WaitForever parks on a channel nobody ever sends to or closes.
func WaitForever() {
	<-forever
}

// Grow allocates a fresh buffer on every call.
func Grow() []byte {
	return make([]byte, 512)
}

// Scratch allocates a documented startup-only buffer. The ignore directive
// holds for callers in other packages too: the justification does not
// resurface as a finding in dependent packages.
func Scratch() []byte {
	//lint:ignore hotalloc one-time warmup buffer, measured at startup
	return make([]byte, 4096)
}

var warm [256]byte

// Buffer returns a preallocated scratch slice; the alloc-mutation test
// rewrites its body into a fresh make and expects module-linked hotalloc to
// catch it two packages up.
func Buffer() []byte {
	return warm[:]
}
