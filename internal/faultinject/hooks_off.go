//go:build !faultinject

package faultinject

// Enabled reports whether the fault-injection hooks are compiled in. In
// normal builds it is the constant false, so guarded call sites are
// eliminated at compile time.
const Enabled = false

// PanicAt panics when the site's k-th invocation point is armed. No-op.
func PanicAt(site string, k int) {}

// Delay sleeps at the given worker of the site when armed. No-op.
func Delay(site string, worker int) {}

// Slow sleeps at the site on every call when armed — the queue-delay /
// slow-solve hook. No-op.
func Slow(site string) {}

// CorruptInDegree returns an armed (row, delta) corruption for the site.
func CorruptInDegree(site string) (row int, delta int32, ok bool) { return 0, 0, false }

// Poison returns an armed (row, value) poisoning for the site.
func Poison(site string) (row int, v float64, ok bool) { return 0, 0, false }
