package bdag

import (
	"sync"
	"testing"
)

// TestConcurrentPathQueries hammers one graph with parallel read-side
// queries, as experiment workers do on a finished schedule's graph. Path
// enumeration is per-key single-flight: memo.mu only guards the
// enumerator table, while materialization runs under the enumerator's
// own lock, so concurrent queries for the same and different keys must
// neither race (run under -race in CI) nor disagree with a sequential
// re-query. The dense row tables grow under memo.mu as readers fill them.
func TestConcurrentPathQueries(t *testing.T) {
	g := randomDag(42)
	n := g.Len()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := 1; v < n; v++ {
				g.HasPath(Initial, v)
				g.HasPath(v, n-1)
				_, _ = g.LongestFrom(v, w%2 == 0)
				_, _ = g.Dominators()
				for j := 0; j <= w%3; j++ {
					g.NthPath(Initial, v, j)
				}
				g.PathsBetween(Initial, v, 4)
			}
		}()
	}
	wg.Wait()

	// Sequential re-query must see the same ranking the workers saw.
	for v := 1; v < n; v++ {
		paths := g.PathsBetween(Initial, v, 4)
		for j, p := range paths {
			q, plen, ok := g.NthPath(Initial, v, j)
			if !ok {
				t.Fatalf("NthPath(%d,%d,%d) missing after PathsBetween returned %d paths", Initial, v, j, len(paths))
			}
			if plen != g.MaxLen(p) {
				t.Fatalf("NthPath(%d,%d,%d) len %d, PathsBetween says %d", Initial, v, j, plen, g.MaxLen(p))
			}
			if len(q) != len(p) {
				t.Fatalf("NthPath(%d,%d,%d) = %v, PathsBetween says %v", Initial, v, j, q, p)
			}
			for k := range p {
				if q[k] != p[k] {
					t.Fatalf("NthPath(%d,%d,%d) = %v, PathsBetween says %v", Initial, v, j, q, p)
				}
			}
		}
	}
}
