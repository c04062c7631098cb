package obsv

import "fmt"

// Kind identifies the type of a trace event. The per-kind meaning of the
// Tick and Arg fields is part of the documented telemetry schema
// (OBSERVABILITY.md); it is stable across releases.
type Kind uint8

const (
	// KindNone is the zero Kind; it is never recorded.
	KindNone Kind = iota

	// Scheduler decision events. Tick is the number of DAG nodes placed
	// when the event fired, so a trace can be aligned with the scheduling
	// list position.

	// KindBarrierInsert: the scheduler committed a new barrier.
	// Arg0=barrier id, Arg1=producer processor, Arg2=consumer processor.
	KindBarrierInsert
	// KindBarrierMerge: SBM merging folded one barrier into another.
	// Arg0=surviving id, Arg1=folded id, Arg2=union participant count.
	KindBarrierMerge
	// KindMergeReject: a tentative merge was rolled back (it would have
	// made a pending timing-resolved pair unsatisfiable, or produced a
	// cyclic dag). Arg0, Arg1 = the candidate pair.
	KindMergeReject
	// KindRollback: a tentative barrier placement was rolled back.
	// Arg0=barrier id that was withdrawn.
	KindRollback
	// KindRepair: a previously timing-resolved pair was invalidated by a
	// later mutation and re-protected with a barrier. Arg0=producer node,
	// Arg1=consumer node.
	KindRepair
	// KindGraphPatch: a barrier insertion patched the barrier dag in
	// place (no rebuild). Arg0=barrier id.
	KindGraphPatch
	// KindGraphRebuild: the barrier dag was rebuilt from the timelines
	// (merge or rollback). Arg0=live barrier count after the rebuild.
	KindGraphRebuild
	// KindCacheStats: cumulative path-cache counters at emit time
	// (emitted after each rebuild and once at the end of scheduling).
	// Arg0=hits, Arg1=misses.
	KindCacheStats
	// KindSchedDone: scheduling finished. Arg0=final barrier count,
	// Arg1=merged barriers, Arg2=repaired pairs.
	KindSchedDone

	// Simulator events. Tick is simulated time.

	// KindRunStart: one simulated execution began. Tick=0; Arg0=seed,
	// Arg1=timing policy, Arg2=barrier cost.
	KindRunStart
	// KindBarrierFire: a barrier fired. Tick=fire time; Arg0=barrier id,
	// Arg1=participant count.
	KindBarrierFire
	// KindRunEnd: the execution completed. Tick=finish time; Arg0=finish
	// time.
	KindRunEnd

	// Schedule-cache events (internal/schedcache). Tick is 0: cache
	// traffic happens between scheduling runs, outside both logical
	// clocks. Arg0/Arg1 carry the high/low words of the key's 128-bit
	// fingerprint, bit-cast to int64: for a DAG key the graph's
	// index-order content hash, for a source key (bmserve) the hash of
	// the program text. Either is a pure function of its input and
	// therefore deterministic;
	// which kind fires for a given request depends on the process's cache
	// state and concurrency, so cached trace streams are deterministic
	// only for a deterministic request sequence.

	// KindSchedCacheHit: a ScheduleDAG request was served from the cache
	// without scheduling. Arg0/Arg1=fingerprint, Arg2=1 if the cached
	// schedule was rebound onto a distinct (but identical) graph object
	// (always 0 for a source key).
	KindSchedCacheHit
	// KindSchedCacheMiss: the request scheduled its DAG and stored the
	// result. Arg0/Arg1=fingerprint.
	KindSchedCacheMiss
	// KindSchedCacheWait: the request found the same key already being
	// computed and blocked on the winner. Arg0/Arg1=fingerprint.
	KindSchedCacheWait
	// KindSchedCacheEvict: storing a new entry displaced the least
	// recently used one. Arg0/Arg1=the evicted entry's fingerprint.
	KindSchedCacheEvict

	// Serving events (internal/serve). Tick is 0: request arrival and
	// batch formation are wall-clock phenomena outside both logical
	// clocks, and unlike every other domain these events depend on
	// request timing, so served trace streams are not deterministic.

	// KindServeBatch: the coalescer flushed one batch. Arg0=requests in
	// the batch, Arg1=unique (source, options) groups after dedupe,
	// Arg2=flush trigger (0=window expiry, 1=batch full, 2=adaptive
	// drain after a completing flush).
	KindServeBatch
	// KindServeRequest: one admitted request completed. Arg0=endpoint
	// (0=schedule, 1=simulate), Arg1=outcome (0=ok, 1=bad request,
	// 2=timeout, 3=error), Arg2=size of the batch that served it.
	KindServeRequest
	// KindServeOverload: admission control rejected a request with 429.
	// Arg0=in-flight requests at rejection.
	KindServeOverload

	numKinds
)

var kindNames = [numKinds]string{
	KindNone:            "none",
	KindBarrierInsert:   "barrier-insert",
	KindBarrierMerge:    "barrier-merge",
	KindMergeReject:     "merge-reject",
	KindRollback:        "rollback",
	KindRepair:          "repair",
	KindGraphPatch:      "graph-patch",
	KindGraphRebuild:    "graph-rebuild",
	KindCacheStats:      "cache-stats",
	KindSchedDone:       "sched-done",
	KindRunStart:        "run-start",
	KindBarrierFire:     "barrier-fire",
	KindRunEnd:          "run-end",
	KindSchedCacheHit:   "sched-cache-hit",
	KindSchedCacheMiss:  "sched-cache-miss",
	KindSchedCacheWait:  "sched-cache-wait",
	KindSchedCacheEvict: "sched-cache-evict",
	KindServeBatch:      "serve-batch",
	KindServeRequest:    "serve-request",
	KindServeOverload:   "serve-overload",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Simulator reports whether the kind belongs to the simulator domain, in
// which Tick is simulated time (scheduler kinds use placement progress).
func (k Kind) Simulator() bool {
	return k == KindRunStart || k == KindBarrierFire || k == KindRunEnd
}

// Event is one structured trace record. Events are small fixed-size
// values: recording one never allocates. Seq is assigned by the recording
// Ring (position in its stream); all other fields are set by the emitter
// and are deterministic for a fixed seed — wall-clock time is never
// stored in an event.
type Event struct {
	Kind Kind
	// Seq is the event's position in its recorder's stream, assigned by
	// Ring.Record.
	Seq uint64
	// Tick is the event's logical time: simulated time for simulator
	// kinds, nodes-placed-so-far for scheduler kinds.
	Tick int64
	// Arg0..Arg2 are per-kind arguments; see the Kind constants.
	Arg0, Arg1, Arg2 int64
}

func (e Event) String() string {
	return fmt.Sprintf("%s seq=%d tick=%d args=[%d %d %d]",
		e.Kind, e.Seq, e.Tick, e.Arg0, e.Arg1, e.Arg2)
}
