package core

import (
	"fmt"

	"barriermimd/internal/metrics"
)

// Metrics is the synchronization accounting of section 3.1, plus
// implementation-level counters.
type Metrics struct {
	// TotalImpliedSyncs is the number of edges in the instruction DAG
	// between real nodes; each is a producer/consumer pair that a
	// conventional MIMD would synchronize at run time.
	TotalImpliedSyncs int
	// Barriers is the number of barriers in the final schedule (excluding
	// the implicit initial barrier).
	Barriers int
	// SerializedSyncs counts edges whose consumer is assigned to the same
	// processor as the producer.
	SerializedSyncs int
	// StaticAfterBarrier counts cross-processor pairs resolved by the
	// timing check whose common dominator was an inserted barrier (not the
	// initial barrier): the "secondary effect" of section 3 in which one
	// inserted barrier lets later pairs resolve statically (Figure 8).
	StaticAfterBarrier int
	// PathResolved counts cross-processor pairs already ordered by an
	// existing chain of barriers (step [1] of section 4.4.1).
	PathResolved int
	// TimingResolved counts cross-processor pairs resolved by the static
	// timing check (steps [2]–[5]).
	TimingResolved int
	// OptimalRescues counts pairs the conservative check would have
	// barriered but the optimal overlap refinement resolved (only nonzero
	// with Insertion == Optimal).
	OptimalRescues int
	// MergedBarriers counts barrier merges performed (SBM only); each
	// merge reduces the barrier count by one.
	MergedBarriers int
	// RepairedPairs counts timing-resolved pairs that were invalidated by
	// a later insertion or merge and required a repair barrier.
	RepairedPairs int
	// PathCache accumulates the hit/miss counters of the barrier dag's
	// memoized path queries (reachability, longest paths, dominators,
	// k-longest enumerations) across every dag rebuild of the run.
	PathCache metrics.CacheStats
	// Maint accumulates barrier-dag maintenance counters: how many
	// mutations were patched incrementally versus how many full rebuilds
	// occurred (merges and rollbacks), and how many memoized rows the
	// patches kept versus dropped.
	Maint metrics.MaintStats
	// Stages records wall-clock time per scheduler stage ("order",
	// "place", "merge", "verify", "finalize"). "merge" and "verify" run
	// inside the placement loop, so their time is also included in
	// "place". Wall times are nondeterministic and therefore excluded
	// from schedule exports.
	Stages *metrics.StageClock
}

// BarrierFraction is Barriers / TotalImpliedSyncs (section 3.1).
func (m Metrics) BarrierFraction() float64 { return m.frac(m.Barriers) }

// SerializedFraction is SerializedSyncs / TotalImpliedSyncs.
func (m Metrics) SerializedFraction() float64 { return m.frac(m.SerializedSyncs) }

// StaticFraction is the remainder after removing the barrier and serialized
// fractions: synchronizations scheduled away purely by static timing.
func (m Metrics) StaticFraction() float64 {
	if m.TotalImpliedSyncs == 0 {
		return 0
	}
	return 1 - m.BarrierFraction() - m.SerializedFraction()
}

func (m Metrics) frac(n int) float64 {
	if m.TotalImpliedSyncs == 0 {
		return 0
	}
	return float64(n) / float64(m.TotalImpliedSyncs)
}

func (m Metrics) String() string {
	return fmt.Sprintf("syncs=%d barriers=%d (%.1f%%) serialized=%d (%.1f%%) static=%.1f%% merged=%d repaired=%d",
		m.TotalImpliedSyncs, m.Barriers, 100*m.BarrierFraction(),
		m.SerializedSyncs, 100*m.SerializedFraction(), 100*m.StaticFraction(),
		m.MergedBarriers, m.RepairedPairs)
}
