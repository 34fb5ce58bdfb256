package experiment

import (
	"testing"
)

// smallPyramid shrinks the scenario for test wall time while keeping the
// disks large relative to the index cells, so covered tiles actually form.
func smallPyramid() PyramidConfig {
	cfg := DefaultPyramid()
	cfg.Users = 8
	cfg.Nodes = 1500
	cfg.Duration = 10e9 // 10 s
	return cfg
}

// TestRunPyramidMatchesFlat is the tentpole gate: each pyramid arm must
// reproduce its flat twin's digest exactly (bitwise, under the quantized
// field), while actually serving from the pyramid — not by falling back.
func TestRunPyramidMatchesFlat(t *testing.T) {
	res, err := RunPyramid(smallPyramid())
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"flat", "pyramid"}, {"flat/window", "pyramid/window"}} {
		flat, ok1 := res.Arm(pair[0])
		pyr, ok2 := res.Arm(pair[1])
		if !ok1 || !ok2 {
			t.Fatalf("missing arms %v", pair)
		}
		if flat.Evaluations == 0 {
			t.Fatalf("%s: no evaluations", pair[0])
		}
		if pyr.Evaluations != flat.Evaluations {
			t.Fatalf("%s: %d evaluations, %s has %d", pair[1], pyr.Evaluations, pair[0], flat.Evaluations)
		}
		if pyr.Digest != flat.Digest {
			t.Fatalf("%s digest %x != %s digest %x: pyramid serves changed observable results",
				pair[1], pyr.Digest, pair[0], flat.Digest)
		}
		if pyr.ColdEvaluations != 0 || pyr.PyramidServes != pyr.Evaluations {
			t.Fatalf("%s: %d/%d served from the pyramid (%d cold) — the gate declined provable serves",
				pair[1], pyr.PyramidServes, pyr.Evaluations, pyr.ColdEvaluations)
		}
		if flat.PyramidServes != 0 {
			t.Fatalf("%s: %d pyramid serves on the flat arm", pair[0], flat.PyramidServes)
		}
		if pyr.Index.CoveredTiles == 0 || pyr.Index.Builds == 0 {
			t.Fatalf("%s: index ledger %+v shows no decomposition", pair[1], pyr.Index)
		}
	}
	// The windowed arms must actually merge: every result past the first
	// Window-1 folds Window periods, so the digests must differ from the
	// single-period arms'.
	flat, _ := res.Arm("flat")
	win, _ := res.Arm("flat/window")
	if flat.Digest == win.Digest {
		t.Fatal("windowed digest equals single-period digest: Window did nothing")
	}
}
