// Package root is the top of the modflow fixture tree and carries the two
// seeded concurrency findings, each provable only with linked packages:
// a plain read of the counter mid manages atomically, and a close of a
// channel that mid.Stop — via leaf.Halt, two packages down — already
// closed. Analyzed per package, both vanish.
package root

import (
	"darnet/internal/lintfixture/modflow/leaf"
	"darnet/internal/lintfixture/modflow/mid"
)

// Snapshot reads the counter plainly: a data race with mid.Bump's
// atomic.AddInt64, visible only when mid's accesses are linked.
func Snapshot() int64 {
	return leaf.Live
}

// Restart closes the channel mid.Stop already closed: the mustclose effect
// reaches this call site through two channel summaries (leaf.Halt's,
// folded into mid.Stop's).
func Restart() {
	ch := make(chan int)
	mid.Stop(ch)
	close(ch)
}
