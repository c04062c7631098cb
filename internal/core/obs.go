package core

import (
	"sync"

	"barriermimd/internal/metrics"
)

// Process-wide scheduler stage aggregate. Every ScheduleDAG run merges
// its private StageClock in once, at the end of finish, so the cost is
// one short critical section per scheduled DAG — nothing on the per-node
// hot path. The exposition endpoint (internal/obsv) snapshots it with
// StageStats.
var (
	stageMu  sync.Mutex
	stageAgg metrics.StageClock
)

func mergeStageStats(c *metrics.StageClock) {
	stageMu.Lock()
	stageAgg.Merge(c)
	stageMu.Unlock()
}

// StageStats returns a snapshot of the wall-time totals and latency
// histograms of every scheduling stage ("order", "place", "merge",
// "verify", "finalize") accumulated across all ScheduleDAG runs in this
// process. The snapshot shares no state with the aggregate.
func StageStats() *metrics.StageClock {
	stageMu.Lock()
	defer stageMu.Unlock()
	return stageAgg.Clone()
}
