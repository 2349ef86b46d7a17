// Package leaf is the bottom of the modflow fixture tree (root -> mid ->
// leaf): it owns a counter that dependents manage with sync/atomic and a
// shutdown helper that closes its argument. Neither fact is a finding here
// — the mix and the double close only materialize one or two packages up,
// and only when the module analysis links the channel effects and accesses
// across package boundaries.
package leaf

// Live counts active consumers. Package mid increments it with
// atomic.AddInt64, so every other access module-wide must be atomic too.
var Live int64

// Seen counts consumers ever admitted. Managed atomically by mid and read
// atomically by rootquiet: consistently disciplined, so never a finding
// until a mutation test seeds a plain read of it.
var Seen int64

// Halt closes its argument: callers must not close it again. The close
// travels as a must-close effect in Halt's channel summary.
func Halt(ch chan int) {
	close(ch)
}
