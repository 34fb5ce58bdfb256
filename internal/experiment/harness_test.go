package experiment

import (
	"fmt"
	"testing"

	"mobiquery/internal/pyramid"
)

// TestScenarioDigestsInvariant pins determinism and the concurrency invariant
// on every temporal scenario: identical configurations agree on every arm's
// digest and ledger, whatever the shard and worker sizing, and a re-run
// changes nothing.
func TestScenarioDigestsInvariant(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(shards, workers int) (Result, error)
	}{
		{"churn", func(shards, workers int) (Result, error) {
			cfg := smallChurn()
			cfg.Shards, cfg.Workers = shards, workers
			return RunChurn(cfg)
		}},
		{"prefetch", func(shards, workers int) (Result, error) {
			cfg := smallPrefetch()
			cfg.Shards, cfg.Workers = shards, workers
			return RunPrefetch(cfg)
		}},
		{"corridor", func(shards, workers int) (Result, error) {
			cfg := smallCorridor()
			cfg.Shards, cfg.Workers = shards, workers
			return RunCorridor(cfg)
		}},
		{"pyramid", func(shards, workers int) (Result, error) {
			cfg := smallPyramid()
			cfg.Shards, cfg.Workers = shards, workers
			return RunPyramid(cfg)
		}},
	}
	// ledger is an outcome without its wall-clock readings and without the
	// pyramid's own counters, which depend on how workers shared an ingest.
	ledger := func(o Outcome) Outcome {
		o.ServeNs, o.Index = 0, pyramid.Stats{}
		return o
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ref, err := sc.run(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			if len(ref.Arms) < 2 {
				t.Fatalf("got %d arms", len(ref.Arms))
			}
			check := func(what string, got Result) {
				t.Helper()
				for i, out := range got.Arms {
					if want := ref.Arms[i]; ledger(out) != ledger(want) {
						t.Fatalf("%s, %s: results moved (digest %#x vs %#x)\n got %+v\nwant %+v",
							what, out.Label, out.Digest, want.Digest, ledger(out), ledger(want))
					}
				}
			}
			again, err := sc.run(0, 0)
			if err != nil {
				t.Fatal(err)
			}
			check("identical re-run", again)
			for _, workers := range []int{1, 3} {
				for _, shards := range []int{1, 16} {
					got, err := sc.run(shards, workers)
					if err != nil {
						t.Fatal(err)
					}
					check(fmt.Sprintf("workers=%d shards=%d", workers, shards), got)
				}
			}
		})
	}
}
