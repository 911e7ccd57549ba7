package exec

import (
	"context"
	"runtime/pprof"
	"strconv"

	"github.com/sss-lab/blocksptrsv/internal/metrics"
)

// Execution-layer observability: process-wide counters for guard trips
// and measured launch costs, and pprof labels on resident pool workers so
// CPU profiles split samples by pool style and worker id instead of
// lumping everything under the anonymous worker goroutine.
var (
	mGuardTrips = metrics.Default.Counter("guard_trips")
	mLaunchCost = metrics.Default.Histogram("launch_cost_ns")
)

// labelWorker pins static pprof labels on a resident pool worker for the
// goroutine's lifetime. Called once at worker start — label cost is paid
// at pool construction, never per launch.
func labelWorker(id int) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(), pprof.Labels(
		"sptrsv_pool", "spin",
		"sptrsv_worker", strconv.Itoa(id))))
}
