package schedcache

import (
	"bytes"
	"testing"

	"barriermimd/internal/core"
	"barriermimd/internal/dag"
	"barriermimd/internal/ir"
	"barriermimd/internal/lang"
	"barriermimd/internal/opt"
	"barriermimd/internal/synth"
)

// guardGraph builds the DAG of a small synthetic program.
func guardGraph(t *testing.T, seed int64) *dag.Graph {
	t.Helper()
	naive, err := lang.Compile(synth.MustGenerate(synth.Config{Statements: 20, Variables: 4}, seed))
	if err != nil {
		t.Fatal(err)
	}
	optb, _, err := opt.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}
	g, err := dag.Build(optb, ir.DefaultTimings())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func exportJSON(t *testing.T, s *core.Schedule) []byte {
	t.Helper()
	raw, err := s.ExportJSON()
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestEqualGuardRejectsPlantedCollision stands in for a 2^-128 fingerprint
// collision: it plants g1's entry under g2's key, either as a resident
// entry or as a finished singleflight result. The dag.Equal guard must
// refuse to serve it: the lookup counts one rejection and returns a fresh
// schedule byte-identical to an uncached run on g2.
func TestEqualGuardRejectsPlantedCollision(t *testing.T) {
	g1, g2 := guardGraph(t, 1), guardGraph(t, 2)
	opts := core.DefaultOptions(4)
	fresh, err := core.ScheduleDAG(g2, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := exportJSON(t, fresh)

	for _, path := range []string{"resident", "inflight"} {
		t.Run(path, func(t *testing.T) {
			c := New(0)
			if _, err := c.Schedule(g1, opts); err != nil {
				t.Fatal(err)
			}
			k1, k2 := KeyFor(g1, opts), KeyFor(g2, opts)
			sh1, sh2 := c.shardFor(k1), c.shardFor(k2)
			ent := sh1.entries[k1]
			if path == "resident" {
				sh1.lru.Remove(ent.elem)
				delete(sh1.entries, k1)
				ent.key = k2
				sh2.entries[k2] = ent
				ent.elem = sh2.lru.PushFront(ent)
			} else {
				done := make(chan struct{})
				close(done)
				sh2.inflight[k2] = &flight{done: done, ent: ent}
			}

			s2, err := c.Schedule(g2, opts)
			if err != nil {
				t.Fatal(err)
			}
			if st := c.Stats(); st.Rejected != 1 || st.Hits != 0 {
				t.Fatalf("stats = %v, want exactly one rejection and no hit", st)
			}
			if s2.Graph != g2 || !bytes.Equal(exportJSON(t, s2), want) {
				t.Fatal("rejected lookup did not return a fresh schedule of g2")
			}
		})
	}
}
