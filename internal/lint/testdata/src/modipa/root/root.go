// Package root sits two imports above leaf. Every finding in this file
// requires the module-linked call graph (TestModuleLinkedFindings asserts
// they appear) and vanishes under per-package analysis
// (TestModuleFindingsVanishPerPackage asserts they do not).
package root

import (
	"sync"

	"darnet/internal/lintfixture/modipa/leaf"
	"darnet/internal/lintfixture/modipa/mid"
	"darnet/internal/tensor"
)

// Table shares its lock identity with leaf.Table.
type Table struct{ mu sync.Mutex }

// Refresh acquires Table.mu and then, through leaf, Index.mu — the reverse
// of the order leaf records. Module-linked lockorder reports the cycle here,
// noting the reversing edge lives in a dependency package.
func Refresh(t *Table, ix *leaf.Index) {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf.LockIndex(ix) // module finding: lockorder ABBA via dependency edge
}

// Monitor spawns a watcher that can never wake up; the forever fact arrives
// through mid.Watch's summary.
func Monitor() {
	go mid.Watch() // module finding: goleak through two packages
}

// Encode is the hot root: the only allocation on its path lives two
// packages down, in leaf.Grow.
//
//lint:hotpath
func Encode() {
	_ = mid.Refill() // module finding: hotalloc folded through mid
}

// EncodeWarm stays silent even module-linked: leaf justified the allocation
// with //lint:ignore hotalloc, and the directive holds for callers in other
// packages.
//
//lint:hotpath
func EncodeWarm() {
	_ = mid.Warm()
}

// Pack stays silent as written (leaf.Buffer reuses a preallocated array);
// the alloc-mutation test seeds a make into leaf and expects the finding to
// surface here, two packages above it.
//
//lint:hotpath
func Pack() {
	_ = mid.Fetch()
}

// Project multiplies an embedding against a projection whose width cannot
// match — provable only with mid.Embed's shape transfer.
func Project() *tensor.Tensor {
	w := tensor.New(32, 10)
	return tensor.MustMatMul(mid.Embed(8), w) // module finding: shapeflow 64 vs 32
}
