// Package mid relays leaf facts upward: its functions reach leaf's, so the
// root package observes leaf's behavior at one remove — the shape the
// transitive linking has to get right.
package mid

import (
	"darnet/internal/lintfixture/modipa/leaf"
	"darnet/internal/tensor"
)

// Refill allocates by calling into leaf.
func Refill() []byte {
	return leaf.Grow()
}

// Warm relays leaf's justified allocation; leaf's directive covers the
// site, so callers of this function see no allocation.
func Warm() []byte {
	return leaf.Scratch()
}

// Fetch relays leaf's preallocated buffer (clean until mutated by the test).
func Fetch() []byte {
	return leaf.Buffer()
}

// Watch blocks forever by calling into leaf.
func Watch() {
	leaf.WaitForever()
}

// Embed returns an (n, 64) lookup table; the constant width travels to
// callers in Embed's shape-transfer summary.
func Embed(n int) *tensor.Tensor {
	return tensor.New(n, 64)
}
