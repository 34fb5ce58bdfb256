package main

import "testing"

func TestRunSingleFigureSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs simulations")
	}
	if err := run([]string{"-fig", "warmup", "-scale", "0.2", "-runs", "1"}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
}

func TestRunRejectsUnknownFigure(t *testing.T) {
	if err := run([]string{"-fig", "99"}); err == nil {
		t.Error("unknown figure should error")
	}
}

func TestRunScaleScenarioSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the scale scenario")
	}
	if err := run([]string{"-fig", "scale", "-users", "200", "-nodes", "3000", "-workers", "4"}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
}

func TestRunChurnScenarioSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the churn scenario")
	}
	if err := run([]string{"-fig", "churn", "-users", "10", "-nodes", "2000"}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
}

func TestRunPrefetchScenarioSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the prefetch scenario")
	}
	if err := run([]string{"-fig", "prefetch", "-users", "10", "-nodes", "2000"}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
}

func TestRunPyramidScenarioSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the pyramid scenario")
	}
	if err := run([]string{"-fig", "pyramid", "-users", "8", "-nodes", "1500"}); err != nil {
		t.Fatalf("run failed: %v", err)
	}
}
