package sketch

import (
	"testing"

	"foresight/internal/frame"
)

func fColumn(t *testing.T, f *frame.Frame, name string) []float64 {
	t.Helper()
	c, err := f.Numeric(name)
	if err != nil {
		t.Fatal(err)
	}
	return c.Values()
}

func TestProfileMergeErrors(t *testing.T) {
	f := testFrame(500, 43)
	a := BuildProfile(f, ProfileConfig{Seed: 1, K: 32})
	b := BuildProfile(f, ProfileConfig{Seed: 2, K: 32})
	if err := a.Merge(b); err != ErrShapeMismatch {
		t.Errorf("different seeds should mismatch, got %v", err)
	}
	c := BuildProfile(f, ProfileConfig{Seed: 1, K: 64})
	if err := a.Merge(c); err != ErrShapeMismatch {
		t.Errorf("different k should mismatch, got %v", err)
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge should no-op, got %v", err)
	}
	// Missing column.
	sub, err := f.Select("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	d := BuildProfile(f, ProfileConfig{Seed: 1, K: 32})
	e := BuildProfile(sub, ProfileConfig{Seed: 1, K: 32})
	if err := e.Merge(d); err == nil {
		t.Error("merging superset into subset should fail on missing column")
	}
}

func TestMergeReservoirs(t *testing.T) {
	a := NewReservoir(100, 1)
	b := NewReservoir(100, 2)
	for i := 0; i < 1000; i++ {
		a.Update(0) // stream A is all zeros
		b.Update(1) // stream B is all ones
	}
	m := mergeReservoirs(a, b, 3)
	if m.Count() != 2000 {
		t.Fatalf("merged count = %d", m.Count())
	}
	ones := 0
	for _, v := range m.Sample() {
		if v == 1 {
			ones++
		}
	}
	// Expect ≈50% from each stream.
	if ones < 25 || ones > 75 {
		t.Errorf("merged sample has %d/100 ones, want ≈50", ones)
	}
	// Degenerate sides.
	empty := NewReservoir(10, 1)
	if got := mergeReservoirs(a, empty, 1); got != a {
		t.Error("empty rhs should return lhs")
	}
	if got := mergeReservoirs(empty, b, 1); got != b {
		t.Error("empty lhs should return rhs")
	}
}
