// Package mid is the middle of the modflow fixture tree: it manages
// leaf.Live atomically (the atomic side of the cross-package mix) and
// forwards shutdown to leaf.Halt, inheriting — and passing on — the
// must-close effect through its own summary.
package mid

import (
	"sync/atomic"

	"darnet/internal/lintfixture/modflow/leaf"
)

// Bump counts one consumer in. The atomic access is recorded under
// leaf.Live's type-level identity.
func Bump() {
	atomic.AddInt64(&leaf.Live, 1)
	atomic.AddInt64(&leaf.Seen, 1)
}

// Stop forwards to leaf.Halt: the callee's mustclose effect on its channel
// parameter propagates through Stop's summary, one level removed from the
// close itself.
func Stop(ch chan int) {
	leaf.Halt(ch)
}
