package core

import "testing"

func TestChooseStrategy(t *testing.T) {
	// The shape vectors below are planFeatures outputs measured on the
	// benchmark grammars (the §VI-E calibration, see EXPERIMENTS.md); the
	// model must agree with the measured-fastest direction on each.

	// One file always resolves top-down: a single root sweep beats merging
	// every rule's word list (dataset A shape).
	if got := chooseStrategy(1, 1115, 5769, 59274); got != TopDown {
		t.Errorf("1 file: %v, want top-down", got)
	}
	// The §VI-E trend table's 400-file point on dataset B is already
	// measured 1.4x slower top-down; the planner must agree.
	if got := chooseStrategy(400, 1689, 8740, 52746); got != BottomUp {
		t.Errorf("400 tiny files: %v, want bottom-up", got)
	}
	// ...and stays bottom-up as B scales to 1600 files.
	if got := chooseStrategy(1600, 4912, 26206, 160554); got != BottomUp {
		t.Errorf("1600 tiny files: %v, want bottom-up", got)
	}
	// Dataset D: 96 deep documents over a wide vocabulary are measured 1.4x
	// faster top-down — the shape a bare file-count threshold misclassifies.
	if got := chooseStrategy(96, 11366, 87769, 1467523); got != TopDown {
		t.Errorf("96 deep documents: %v, want top-down", got)
	}
	// Monotone in file count: once bottom-up wins for some F, it keeps
	// winning for every larger F at the same grammar shape (merge work does
	// not grow with F here, only the top-down sweep does).
	flipped := false
	for f := uint32(1); f <= 4096; f *= 2 {
		s := chooseStrategy(f, 5000, 15000, 500_000)
		if s == BottomUp {
			flipped = true
		} else if flipped {
			t.Fatalf("strategy flipped back to top-down at %d files", f)
		}
	}
	if !flipped {
		t.Fatal("bottom-up never chosen over 5k rules up to 4096 files")
	}
}
