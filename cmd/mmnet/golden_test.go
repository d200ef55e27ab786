package main

// golden_test.go locks the determinism contract against committed bytes:
// every config below runs through the full command (flags → graph →
// algorithm → -json encoding) and must reproduce its fixture under
// testdata/golden exactly. Engine-vs-engine equivalence is the differential
// suite's job; the golden files catch regressions both engines share — a
// changed RNG derivation, a reordered delivery, a metrics accounting slip.
//
// Regenerate intentionally with:
//
//	go test ./cmd/mmnet -run TestGoldenTranscripts -update

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden transcript fixtures")

// goldenConfigs pin one representative run per protocol family, most on the
// step engine (the engine being locked down), one on the goroutine oracle.
var goldenConfigs = []struct {
	name string
	args []string
}{
	{"census-ring64-step", []string{"-graph", "ring", "-n", "64", "-algo", "census"}},
	{"count-ring16-step", []string{"-graph", "ring", "-n", "16", "-algo", "count", "-engine", "step"}},
	{"sum-ring20-step", []string{"-graph", "ring", "-n", "20", "-algo", "sum", "-engine", "step"}},
	{"min-rand-mb-random18-step", []string{"-graph", "random", "-n", "18", "-extra", "12", "-algo", "min", "-variant", "rand", "-stage", "mb", "-engine", "step"}},
	{"mst-random24-step", []string{"-graph", "random", "-n", "24", "-extra", "20", "-algo", "mst", "-engine", "step"}},
	{"mst-random24-goroutine", []string{"-graph", "random", "-n", "24", "-extra", "20", "-algo", "mst", "-engine", "goroutine"}},
	{"partition-det-ring32-step", []string{"-graph", "ring", "-n", "32", "-algo", "partition-det", "-engine", "step"}},
	{"estimate-ring16-step", []string{"-graph", "ring", "-n", "16", "-algo", "estimate", "-engine", "step"}},
	{"elect-ring24-step", []string{"-graph", "ring", "-n", "24", "-algo", "elect", "-engine", "step"}},
	{"snapshot-random20-step", []string{"-graph", "random", "-n", "20", "-extra", "14", "-algo", "snapshot", "-engine", "step"}},
	{"forest-star24-step", []string{"-graph", "star", "-n", "24", "-algo", "forest", "-engine", "step"}},
	{"coloring-random26-step", []string{"-graph", "random", "-n", "26", "-extra", "18", "-algo", "coloring", "-engine", "step"}},
	{"sync-sum-ring12-step", []string{"-graph", "ring", "-n", "12", "-algo", "sync-sum", "-engine", "step"}},
	{"census-jammed-ring48-step", []string{"-graph", "ring", "-n", "48", "-algo", "census", "-faults", "seed:5;jam:1-20/p0.5"}},
	// Implicit-topology runs: the O(1)-memory forms with hash-derived
	// weights must stay transcript-stable too, and "mat:" must match them
	// byte for byte apart from the spec echoed in the graph field.
	{"census-ring64-implicit", []string{"-graph", "ring:64", "-algo", "census"}},
	{"mst-hypercube4-implicit-step", []string{"-graph", "hypercube:4", "-algo", "mst", "-engine", "step"}},
	{"sum-ws-small-world-step", []string{"-graph", "ws:24,4,0.2", "-algo", "sum", "-engine", "step"}},
	{"forest-ba-scale-free-step", []string{"-graph", "ba:26,2", "-algo", "forest", "-engine", "step"}},
	{"count-faulted-ring24-step", []string{"-graph", "ring", "-n", "24", "-algo", "count", "-engine", "step", "-faults", "seed:5;dup:*@2-20/p0.2/d2", "-max-rounds", "4000"}},
	// Chaos v2 rules: a partition window the randomized sum survives with
	// legible drift, and a crash-restart the coloring pipeline completes
	// through (the restarted node revives inside one of its internal runs).
	{"sum-rand-mb-partitioned-random18-step", []string{"-graph", "random", "-n", "18", "-extra", "12", "-algo", "sum", "-variant", "rand", "-stage", "mb", "-engine", "step", "-faults", "partition:2@3-6", "-max-rounds", "4000"}},
	{"coloring-restart-star24-step", []string{"-graph", "star", "-n", "24", "-algo", "coloring", "-engine", "step", "-faults", "crash:7@3;restart:7@8", "-max-rounds", "4000"}},
	// The paper's multi-stage pipelines: the §4 partitions, the full §3
	// Borůvka run, the broadcast-only baseline, the §5.1 balanced variant,
	// the §7.3 count on the goroutine engine, and the §3 partition under a
	// jammed channel (its barrier pulses shift) on both engines.
	{"partition-rand-random24-step", []string{"-graph", "random", "-n", "24", "-extra", "20", "-algo", "partition-rand", "-engine", "step"}},
	{"partition-lv-random24-step", []string{"-graph", "random", "-n", "24", "-extra", "20", "-algo", "partition-lv", "-engine", "step"}},
	{"mst-boruvka-ring24-step", []string{"-graph", "ring", "-n", "24", "-algo", "mst-boruvka", "-engine", "step"}},
	{"bcast-sum-ring20-step", []string{"-graph", "ring", "-n", "20", "-algo", "bcast-sum", "-engine", "step"}},
	{"sum-balanced-random30-step", []string{"-graph", "random", "-n", "30", "-extra", "20", "-algo", "sum", "-variant", "balanced", "-engine", "step"}},
	{"count-ring24-goroutine", []string{"-graph", "ring", "-n", "24", "-algo", "count", "-engine", "goroutine"}},
	{"partition-det-jammed-ring32-step", []string{"-graph", "ring", "-n", "32", "-algo", "partition-det", "-engine", "step", "-faults", "seed:5;jam:1-40/p0.5"}},
	{"partition-det-jammed-ring32-goroutine", []string{"-graph", "ring", "-n", "32", "-algo", "partition-det", "-engine", "goroutine", "-faults", "seed:5;jam:1-40/p0.5"}},
}

func TestGoldenTranscripts(t *testing.T) {
	for _, tc := range goldenConfigs {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			args := append(append([]string{}, tc.args...), "-json")
			if err := run(args, &buf); err != nil {
				t.Fatalf("run: %v", err)
			}
			path := filepath.Join("testdata", "golden", tc.name+".json")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing fixture (run with -update to create): %v", err)
			}
			if !bytes.Equal(want, buf.Bytes()) {
				t.Errorf("transcript deviates from committed fixture %s:\n got:  %s\n want: %s",
					path, buf.Bytes(), want)
			}
		})
	}
}
