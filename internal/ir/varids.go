package ir

// VarIDs numbers the variables named by the Loads and Stores of ts densely,
// in first-appearance order: it stores tuple i's variable id in ids[i]
// (leaving arithmetic tuples' entries alone) and returns the number of
// distinct names. Passes that keep per-variable state index arrays by
// these ids instead of keying maps by name.
func VarIDs(ts []Tuple, ids []int32) int {
	size := 1
	for size < 2*len(ts) {
		size <<= 1
	}
	// Open addressing: a name's slot holds the position + 1 of its first
	// tuple, whose id the later tuples copy.
	table := make([]int32, size)
	mask := uint32(size - 1)
	n := 0
	for i := range ts {
		t := &ts[i]
		if t.Op != Load && t.Op != Store {
			continue
		}
		for h := hashName(t.Var) & mask; ; h = (h + 1) & mask {
			e := table[h]
			if e == 0 {
				table[h] = int32(i + 1)
				ids[i] = int32(n)
				n++
				break
			}
			if ts[e-1].Var == t.Var {
				ids[i] = ids[e-1]
				break
			}
		}
	}
	return n
}

// hashName is 32-bit FNV-1a.
func hashName(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}
