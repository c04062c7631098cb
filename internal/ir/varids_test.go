package ir

import (
	"strconv"
	"testing"
)

// TestVarIDs checks the interner against a map: ids are dense, in
// first-appearance order, shared by every tuple naming the same
// variable, and arithmetic tuples keep their entries. The block names
// enough variables to force probe chains in the table.
func TestVarIDs(t *testing.T) {
	var ts []Tuple
	for i := 0; i < 3000; i++ {
		name := "x" + strconv.Itoa((i*7919)%1000)
		ts = append(ts, Tuple{Op: Load, Var: name}, Tuple{Op: Add}, Tuple{Op: Store, Var: name})
	}
	ids := make([]int32, len(ts))
	for i := range ids {
		ids[i] = -7
	}
	n := VarIDs(ts, ids)
	want := map[string]int32{}
	for i, tp := range ts {
		if tp.Op == Add {
			if ids[i] != -7 {
				t.Fatalf("arithmetic tuple %d got id %d", i, ids[i])
			}
			continue
		}
		id, ok := want[tp.Var]
		if !ok {
			id = int32(len(want))
			want[tp.Var] = id
		}
		if ids[i] != id {
			t.Fatalf("tuple %d (%s): id %d, want %d", i, tp.Var, ids[i], id)
		}
	}
	if n != len(want) {
		t.Fatalf("VarIDs = %d, want %d distinct names", n, len(want))
	}
	if VarIDs(nil, nil) != 0 {
		t.Fatal("empty block has variables")
	}
}
