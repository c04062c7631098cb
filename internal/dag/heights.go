package dag

// Heights holds, for every node, the minimum and maximum height of section
// 4.1: the length of the longest path from the node to the exit (edge
// directions reversed in the paper's phrasing) summing minimum or maximum
// node execution times, including the node's own time.
type Heights struct {
	Min []int
	Max []int
}

// Heights computes h_min and h_max for every node by dynamic programming
// over a reverse topological order. The entry node's maximum height equals
// the critical path time t_cr. Heights are computed once per graph; the
// returned slices are shared, do not modify.
func (g *Graph) Heights() (Heights, error) {
	g.heightsOnce.Do(func() { g.heights, g.heightsErr = g.computeHeights() })
	return g.heights, g.heightsErr
}

func (g *Graph) computeHeights() (Heights, error) {
	order, err := g.Topo()
	if err != nil {
		return Heights{}, err
	}
	h := Heights{
		Min: make([]int, len(order)),
		Max: make([]int, len(order)),
	}
	for k := len(order) - 1; k >= 0; k-- {
		i := order[k]
		var bestMin, bestMax int
		for _, s := range g.Succs(i) {
			if h.Min[s] > bestMin {
				bestMin = h.Min[s]
			}
			if h.Max[s] > bestMax {
				bestMax = h.Max[s]
			}
		}
		h.Min[i] = g.Time[i].Min + bestMin
		h.Max[i] = g.Time[i].Max + bestMax
	}
	return h, nil
}

// FinishTimes holds the minimum and maximum finish times of every node on
// an unbounded number of processors: the longest path from the entry node
// through and including the node, under minimum or maximum execution times.
// These are the two rightmost columns of Figure 1.
type FinishTimes struct {
	Min []int
	Max []int
}

// FinishTimes computes earliest/latest finish times by forward dynamic
// programming over a topological order. Finish times are computed once per
// graph; the returned slices are shared, do not modify.
func (g *Graph) FinishTimes() (FinishTimes, error) {
	g.finOnce.Do(func() { g.fin, g.finErr = g.computeFinishTimes() })
	return g.fin, g.finErr
}

func (g *Graph) computeFinishTimes() (FinishTimes, error) {
	order, err := g.Topo()
	if err != nil {
		return FinishTimes{}, err
	}
	f := FinishTimes{
		Min: make([]int, len(order)),
		Max: make([]int, len(order)),
	}
	for _, i := range order {
		var bestMin, bestMax int
		for _, p := range g.Preds(i) {
			if f.Min[p] > bestMin {
				bestMin = f.Min[p]
			}
			if f.Max[p] > bestMax {
				bestMax = f.Max[p]
			}
		}
		f.Min[i] = g.Time[i].Min + bestMin
		f.Max[i] = g.Time[i].Max + bestMax
	}
	return f, nil
}

// CriticalPath returns the minimum-time and maximum-time critical path
// lengths t_cr: lower bounds on block execution time regardless of
// processor count, under all-minimum and all-maximum instruction times.
func (g *Graph) CriticalPath() (min, max int, err error) {
	f, err := g.FinishTimes()
	if err != nil {
		return 0, 0, err
	}
	return f.Min[g.Exit], f.Max[g.Exit], nil
}
