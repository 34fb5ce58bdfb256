package mobiquery

import (
	"crypto/sha256"
	"fmt"
	"testing"
	"time"
)

// goldenDigest folds the pre-redesign fields of batch results into a
// digest. It deliberately enumerates fields instead of hashing the structs,
// so the streaming-only additions to QueryResult cannot perturb it: the
// digest covers exactly what the pre-redesign API returned.
func goldenDigest(results []Result) string {
	h := sha256.New()
	for _, res := range results {
		fmt.Fprintf(h, "%g|%g|%g|%g|%d|%d\n",
			res.SuccessRatio, res.MeanFidelity,
			res.PowerPerSleepingNode, res.PowerPerBackboneNode,
			res.MaxPrefetchLength, res.BackboneNodes)
		for _, q := range res.Queries {
			fmt.Fprintf(h, "%d|%v|%t|%t|%g|%d|%d|%g|%t\n",
				q.K, q.Deadline, q.Received, q.OnTime,
				q.Value, q.Contributors, q.AreaNodes, q.Fidelity, q.Success)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// The digests below were captured from the pre-redesign mobiquery.go
// (commit eb3faee) running the same configurations. The compat wrappers
// must reproduce them byte for byte.
const (
	goldenRun  = "af320d311384bc64738492af09117d3351740e8d01b5d6a8b79a746ebb4a6b0e"
	goldenTeam = "f3186ad5fabf0312e138f70e7318f1034c098ae0821b647c8f4d4ae593929a34"
)

// TestRunMatchesPreRedesignGolden pins the compat guarantee: the batch API
// routed through the new error-returning core produces output identical to
// the pre-redesign implementation.
func TestRunMatchesPreRedesignGolden(t *testing.T) {
	if got := goldenDigest([]Result{Run(quickSim())}); got != goldenRun {
		t.Errorf("Run digest = %s, want pre-redesign %s", got, goldenRun)
	}
}

func TestRunTeamMatchesPreRedesignGolden(t *testing.T) {
	team := RunTeam(quickSim(), []TeamMember{
		{QueryID: 1, Scheme: JIT, Start: Pt(50, 100), VelocityX: 4},
		{QueryID: 2, Scheme: JIT, Start: Pt(400, 350), VelocityX: -4},
	})
	if got := goldenDigest(team); got != goldenTeam {
		t.Errorf("RunTeam digest = %s, want pre-redesign %s", got, goldenTeam)
	}
}

func TestRunEReportsErrors(t *testing.T) {
	s := DefaultSimulation()
	s.Nodes = 0
	if _, err := RunE(s); err == nil {
		t.Error("RunE of an invalid simulation should error")
	}
	if _, err := RunTeamE(DefaultSimulation(), nil); err == nil {
		t.Error("RunTeamE with no members should error")
	}
	if _, err := RunTeamE(DefaultSimulation(), []TeamMember{{QueryID: 0}}); err == nil {
		t.Error("RunTeamE with a zero QueryID should error")
	}
	if _, err := RunTeamE(DefaultSimulation(), []TeamMember{
		{QueryID: 1, Scheme: JIT}, {QueryID: 1, Scheme: JIT},
	}); err == nil {
		t.Error("RunTeamE with duplicate QueryIDs should error")
	}
}

func TestRunPanicsDelegateToErrorVariants(t *testing.T) {
	bad := DefaultSimulation()
	bad.Nodes = 0
	assertPanics(t, "Run", func() { Run(bad) })
	assertPanics(t, "RunTeam", func() { RunTeam(bad, []TeamMember{{QueryID: 1, Scheme: JIT}}) })
}

func assertPanics(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s with invalid config should panic", name)
		}
	}()
	fn()
}

// TestRunEMatchesRun pins that the error variant and the panicking wrapper
// return the same thing for a valid configuration.
func TestRunEMatchesRun(t *testing.T) {
	s := quickSim()
	s.Duration = 30 * time.Second
	s.Lifetime = 26 * time.Second
	viaE, err := RunE(s)
	if err != nil {
		t.Fatalf("RunE: %v", err)
	}
	if a, b := goldenDigest([]Result{viaE}), goldenDigest([]Result{Run(s)}); a != b {
		t.Errorf("RunE and Run disagree: %s vs %s", a, b)
	}
}
