//go:build faultinject

package faultinject

import (
	"fmt"
	"sync"
	"time"
)

// Enabled reports whether the fault-injection hooks are compiled in.
const Enabled = true

var (
	mu       sync.Mutex
	panics   = map[string]int{}           // site -> k
	delays   = map[string]delaySpec{}     // site -> worker+duration
	slows    = map[string]time.Duration{} // site -> duration, every call
	corrupts = map[string]corruptSpec{}   // site -> row+delta
	poisons  = map[string]poisonSpec{}    // site -> row+value
)

type delaySpec struct {
	worker int
	d      time.Duration
}

type corruptSpec struct {
	row   int
	delta int32
}

type poisonSpec struct {
	row int
	v   float64
}

// Reset disarms every hook.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	panics = map[string]int{}
	delays = map[string]delaySpec{}
	slows = map[string]time.Duration{}
	corrupts = map[string]corruptSpec{}
	poisons = map[string]poisonSpec{}
}

// ArmPanic makes PanicAt(site, k) panic.
func ArmPanic(site string, k int) {
	mu.Lock()
	defer mu.Unlock()
	panics[site] = k
}

// ArmDelay makes Delay(site, worker) sleep for d.
func ArmDelay(site string, worker int, d time.Duration) {
	mu.Lock()
	defer mu.Unlock()
	delays[site] = delaySpec{worker: worker, d: d}
}

// ArmCorruptInDegree makes CorruptInDegree(site) hand out (row, delta).
func ArmCorruptInDegree(site string, row int, delta int32) {
	mu.Lock()
	defer mu.Unlock()
	corrupts[site] = corruptSpec{row: row, delta: delta}
}

// ArmPoison makes Poison(site) hand out (row, v).
func ArmPoison(site string, row int, v float64) {
	mu.Lock()
	defer mu.Unlock()
	poisons[site] = poisonSpec{row: row, v: v}
}

// PanicAt panics when the site is armed for index k.
func PanicAt(site string, k int) {
	mu.Lock()
	armed, ok := panics[site]
	mu.Unlock()
	if ok && armed == k {
		panic(fmt.Sprintf("faultinject: panic at %s[%d]", site, k))
	}
}

// Delay sleeps when the site is armed for this worker.
func Delay(site string, worker int) {
	mu.Lock()
	spec, ok := delays[site]
	mu.Unlock()
	if ok && spec.worker == worker {
		time.Sleep(spec.d)
	}
}

// ArmSlow makes every Slow(site) call sleep for d — the queue-delay /
// slow-solve hook: unlike Delay, which targets one worker of one launch,
// Slow throttles a whole processing stage so admission queues upstream of
// it fill and overload handling can be exercised.
func ArmSlow(site string, d time.Duration) {
	mu.Lock()
	defer mu.Unlock()
	slows[site] = d
}

// Slow sleeps when the site is armed. Every call sleeps, so a pipeline
// stage that passes through Slow is throttled to at most 1/d per call.
func Slow(site string) {
	mu.Lock()
	d, ok := slows[site]
	mu.Unlock()
	if ok {
		time.Sleep(d)
	}
}

// CorruptInDegree returns the armed corruption for the site, if any.
func CorruptInDegree(site string) (row int, delta int32, ok bool) {
	mu.Lock()
	defer mu.Unlock()
	spec, ok := corrupts[site]
	return spec.row, spec.delta, ok
}

// Poison returns the armed poisoning for the site, if any.
func Poison(site string) (row int, v float64, ok bool) {
	mu.Lock()
	defer mu.Unlock()
	spec, ok := poisons[site]
	return spec.row, spec.v, ok
}
