package exec

import (
	"runtime"
	"testing"
	"time"
	"weak"
)

// launchLast launches body on l as its caller's last use of l: the shape
// of a solver whose final Solve is also the last reference to it.
//
//go:noinline
func launchLast(l Launcher, viaRun bool, body func()) {
	if viaRun {
		l.Run(func(w int) {
			if w == 0 {
				body()
			}
		})
		return
	}
	l.ParallelFor(l.Workers(), 1, func(lo, _ int) {
		if lo == 0 {
			body()
		}
	})
}

// dropMidLaunch runs the final launch of a fresh implicit launcher and
// collects garbage from inside its body, reporting whether the handle
// (whose cleanup closes the pool) was already unreachable by then.
func dropMidLaunch(viaRun bool) (collected bool) {
	l := NewImplicitLauncher(LaunchSpin, 3)
	handle := weak.Make(l.(*implicitLauncher))
	launchLast(l, viaRun, func() {
		runtime.GC()
		collected = handle.Value() == nil
	})
	return collected
}

// TestImplicitLauncherOutlivesItsLastLaunch drops implicit spin
// launchers in the middle of their final launch. The handle must stay
// reachable until the launch returns — otherwise its cleanup can close
// the pool under the running launch, which then panics — and once every
// handle is dropped the pools' resident workers must exit.
// Not parallel: it counts goroutines.
func TestImplicitLauncherOutlivesItsLastLaunch(t *testing.T) {
	start := runtime.NumGoroutine()
	for _, viaRun := range []bool{true, false} {
		for i := 0; i < 20; i++ {
			if dropMidLaunch(viaRun) {
				t.Fatalf("spin launcher (Run=%v): handle collected during its final launch", viaRun)
			}
		}
	}
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(10 * time.Second); n > start && time.Now().Before(deadline); {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	if n > start {
		t.Fatalf("goroutines = %d after dropping every implicit launcher, want <= %d", n, start)
	}
}
