package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
)

// runAll is the command without -workload: every workload's end-to-end
// metrics, then its per-layer metrics and budget, as tables.
func runAll(o options) error {
	var bad []string
	for _, info := range workloads {
		wl := info.gen(o.seed)
		for _, run := range []func(*workload, options) (*outcome, error){runEndToEnd, runLayers} {
			out, err := run(wl, o)
			if err != nil {
				return err
			}
			out.print(os.Stdout)
			if !out.Correct {
				bad = append(bad, wl.Name)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("outputs are not correct on %v", bad)
	}
	return nil
}

// runRepeat is the self-check of the bounds: the whole set of workloads is
// run o.repeat times, in alternating order, each run in a process of its
// own exactly as the benchmark's driver runs it (a workload leaves the heap
// and the collector's pacing in a state the next one would inherit). The
// runs are dealt alternately into two sets, and for every end-to-end metric
// of every workload the two sets' medians must agree within the metric's
// bound. Two runs of the same code that disagree by more than a bound mean
// the bound cannot tell a regression from noise on this machine.
func runRepeat(o options) error {
	if o.repeat < 2 {
		return errors.New("-repeat needs at least 2 runs to compare")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	names := make([]string, len(workloads))
	for i, info := range workloads {
		names[i] = info.Name
	}
	sets := [2]map[string]map[string][]float64{{}, {}}
	for r := 0; r < o.repeat; r++ {
		order := slices.Clone(names)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			fmt.Printf("run %d of %s\n", r+1, name)
			values, err := runChild(self, name, o)
			if err != nil {
				return fmt.Errorf("run %d of %s: %w", r+1, name, err)
			}
			set := sets[r%2]
			if set[name] == nil {
				set[name] = map[string][]float64{}
			}
			for _, d := range endToEnd {
				set[name][d.Name] = append(set[name][d.Name], values[d.Name])
			}
		}
	}
	fmt.Printf("\n%-14s %-22s %14s %14s %9s %8s\n", "workload", "metric", "median A", "median B", "diff", "bound")
	failed := 0
	for _, name := range names {
		for _, d := range endToEnd {
			a, b := median(sets[0][name][d.Name]), median(sets[1][name][d.Name])
			diff := math.Abs(b-a) / a
			verdict := ""
			if diff > d.Bound {
				verdict = "  DISAGREE"
				failed++
			}
			fmt.Printf("%-14s %-22s %14.4f %14.4f %8.2f%% %7.2f%%%s\n", name, d.Name, a, b, 100*diff, 100*d.Bound, verdict)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metric × workload pairs disagree between two sets of runs of the same code by more than their bound", failed)
	}
	return nil
}

// runChild runs one workload's end-to-end pass in a child process, passes
// its report through, and returns the metrics of its result line.
func runChild(self, workload string, o options) (metricValues, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	os.Stdout.Write(out)
	if err != nil {
		return nil, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
	var line struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !line.Correct {
		return nil, errors.New("outputs are not correct")
	}
	values := metricValues{}
	for name, m := range line.Metrics {
		values[name] = m.Value
	}
	return values, nil
}
