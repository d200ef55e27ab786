// Command perfbench is the repository's benchmark: it runs the paper's
// pipelines and the native census through the library's public entry
// points, checks every result against an independent reference, and prints
// end-to-end metrics, or with --trace 1 per-layer metrics and a span dump.
// See README.md for the workloads and metrics.
//
//	bash perfbench/run.sh --workload pipelines-random --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --compare OLD.json NEW.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
	"repro/internal/sim"
)

// units maps every metric the benchmark emits to its unit.
var units = map[string]string{
	"wall_s":       "s",
	"setup_s":      "s",
	"peak_rss_mb":  "MiB",
	"alloc_mb":     "MiB",
	"sim_rounds":   "rounds",
	"sim_messages": "msgs",
	"sim_slots":    "slots",

	"sim.runs":                       "count",
	"sim.step_s":                     "s",
	"sim.deliver_s":                  "s",
	"sim.barrier_s":                  "s",
	"sim.exec_rounds":                "rounds",
	"sim.ff_rounds":                  "rounds",
	"sim.awake_node_rounds":          "count",
	"sim.awake_frac":                 "ratio",
	"sim.step_ns_per_awake":          "ns",
	"sim.deliver_ns_per_msg":         "ns",
	"partition.wall_s":               "s",
	"partition.rounds":               "rounds",
	"partition.messages":             "msgs",
	"partition.slots":                "slots",
	"partition.phases":               "count",
	"partition.trees":                "count",
	"globalfunc.wall_s":              "s",
	"globalfunc.compute_wall_s":      "s",
	"globalfunc.compute_rounds":      "rounds",
	"globalfunc.compute_messages":    "msgs",
	"mst.merge_wall_s":               "s",
	"mst.merge_rounds":               "rounds",
	"mst.merge_messages":             "msgs",
	"mst.phases":                     "count",
	"size.exact_wall_s":              "s",
	"size.exact_rounds":              "rounds",
	"size.census_wall_s":             "s",
	"resolve.slots_success":          "slots",
	"resolve.slots_collision":        "slots",
	"resolve.slots_idle":             "slots",
	"resolve.slot_yield":             "ratio",
	"graph.build_s":                  "s",
	"graph.bytes_per_node":           "B",
	"graph.adj_ns":                   "ns",
	"graph.linkindex_ns":             "ns",
	"fault.compile_s":                "s",
	"fault.msgfate_ns":               "ns",
	"fault.delayed":                  "msgs",
	"fault.jammed_slots":             "slots",
	"fault.delayed_frac":             "ratio",
	"sim.transcript_bytes":           "B",
	"sim.transcript_bytes_per_round": "B",
	"sim.transcript_write_s":         "s",
	"sim.checkpoint_captures":        "count",
	"sim.checkpoint_encode_s":        "s",
	"sim.checkpoint_bytes_per_node":  "B",
	"sim.checkpoint_read_s":          "s",
	"sim.resume_s":                   "s",
	"obs.trace_overhead_frac":        "ratio",
	"obs.unspanned_frac":             "ratio",
	"obs.self_s.sim":                 "s",
	"obs.self_s.partition":           "s",
	"obs.self_s.globalfunc":          "s",
	"obs.self_s.mst":                 "s",
	"obs.self_s.size":                "s",
	"obs.self_s.io":                  "s",
	"go.gc_cycles":                   "count",
	"go.gc_pause_s":                  "s",
}

var endToEnd = []string{"wall_s", "setup_s", "peak_rss_mb", "alloc_mb", "sim_rounds", "sim_messages", "sim_slots"}

// selfLayers are the layers whose self time the traced run reports as metrics.
var selfLayers = []string{"sim", "partition", "globalfunc", "mst", "size", "io"}

// workers is the step engine's worker count: the benchmark host's nproc.
const workers = 2

// config is one benchmark invocation.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	setupReps int
	full      sizes
	warm      sizes
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is everything one invocation measured.
type outcome struct {
	result
	shape  shape
	passes int
	traced int
	errs   []string
	spans  []span
	// incl and self are the traced run's per-layer inclusive and self
	// times, summed over traced passes; tracedWall is their total wall.
	incl, self map[string]float64
	tracedWall float64
}

// passResult is what one pass of a workload measured.
type passResult struct {
	wall, allocMB float64
	traced        bool
	sim           sim.Metrics
	layer         map[string]float64 // per-layer values; traced passes only
	self          map[string]float64 // per-layer self time; traced passes only
}

// runner runs operations, checks them, and collects per-layer values.
type runner struct {
	t   *tracer
	rec *recorder
	ref map[string]sim.Metrics // each operation's simulated counts the first time it ran

	attempted, failed int
	errs              []string

	vals map[string]float64 // the current pass's per-layer values
	sim  sim.Metrics        // the current pass's simulated work
}

func newRunner(t *tracer) *runner {
	return &runner{t: t, rec: newRecorder(t), ref: map[string]sim.Metrics{}}
}

// op runs one operation. It fails on an error, on a wrong result (which fn
// reports as an error), or when its simulated counts differ from the first
// time the operation ran. fn returns the simulated work it adds to the pass,
// or nil when it adds none.
func (r *runner) op(name string, fn func() (*sim.Metrics, error)) {
	r.attempted++
	r.t.op++
	m, err := fn()
	if err == nil && m != nil {
		if ref, seen := r.ref[name]; !seen {
			r.ref[name] = *m
		} else if ref != *m {
			err = fmt.Errorf("simulated counts %+v differ from the first run's %+v", *m, ref)
		}
	}
	if m != nil {
		r.sim.Add(m)
	}
	if err != nil {
		r.failed++
		r.errs = append(r.errs, fmt.Sprintf("%s: %v", name, err))
	}
}

func (r *runner) set(name string, v float64) { r.vals[name] = v }

// pass runs one pass of inst, with the recorder and spans on when traced.
func (r *runner) pass(inst instance, traced bool, idx int32) passResult {
	r.vals, r.sim = map[string]float64{}, sim.Metrics{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if traced {
		r.rec.reset()
		r.t.on, r.t.pass = true, idx
		sim.DefaultRecorder = r.rec
	}
	start := time.Now()
	inst.pass(r)
	wall := time.Since(start).Seconds()
	sim.DefaultRecorder, r.t.on = nil, false
	runtime.ReadMemStats(&m1)

	p := passResult{wall: wall, allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20), traced: traced, sim: r.sim}
	if !traced {
		return p
	}
	rec := r.rec
	step, deliver := float64(rec.phaseNs[sim.PhaseStep]), float64(rec.phaseNs[sim.PhaseDeliver])
	r.set("sim.runs", float64(rec.runs))
	r.set("sim.step_s", step/1e9)
	r.set("sim.deliver_s", deliver/1e9)
	r.set("sim.barrier_s", float64(rec.phaseNs[sim.PhaseBarrier])/1e9)
	r.set("sim.exec_rounds", float64(rec.execRounds))
	r.set("sim.ff_rounds", float64(rec.ffRounds))
	r.set("sim.awake_node_rounds", float64(rec.awakeNodeRounds))
	r.set("sim.awake_frac", ratio(float64(rec.awakeNodeRounds), float64(rec.nodeRounds)))
	r.set("sim.step_ns_per_awake", ratio(step, float64(rec.awakeNodeRounds)))
	r.set("sim.deliver_ns_per_msg", ratio(deliver, float64(rec.met.Messages)))
	r.set("resolve.slots_success", float64(rec.met.SlotsSuccess))
	r.set("resolve.slots_collision", float64(rec.met.SlotsCollision))
	r.set("resolve.slots_idle", float64(rec.met.SlotsIdle))
	r.set("resolve.slot_yield", ratio(float64(rec.met.SlotsSuccess), float64(slots(&rec.met))))
	r.set("fault.delayed", float64(r.sim.Delayed))
	r.set("fault.jammed_slots", float64(r.sim.SlotsJammed))
	r.set("fault.delayed_frac", ratio(float64(r.sim.Delayed), float64(r.sim.Messages)))
	r.set("go.gc_cycles", float64(m1.NumGC-m0.NumGC))
	r.set("go.gc_pause_s", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e9)
	self, rooted := layerTimes(r.t.spans, idx)
	for _, l := range selfLayers {
		r.set("obs.self_s."+l, self[l])
	}
	r.set("obs.unspanned_frac", ratio(wall-rooted, wall))
	p.layer, p.self = r.vals, self
	return p
}

// benchmark runs one workload: set-up, then passes until cfg.seconds have
// elapsed. A traced run alternates untraced and traced passes.
func benchmark(cfg config) (*outcome, error) {
	wl, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sim.DefaultEngine = sim.EngineStep
	sim.DefaultWorkers = workers
	s := deriveSeeds(cfg.seed)
	t := newTracer()
	warm := newRunner(t)

	// Set-up: build the inputs and references, and warm the same operations
	// on a small instance; repeated, reporting the median. The warm-up
	// instance does not depend on the seed, so set-up time varies only with
	// the measured instance's construction.
	var (
		inst                     instance
		g                        graph.Topology
		inj                      *fault.Injector
		setupS, buildS, compileS []float64
	)
	for range max(cfg.setupReps, 1) {
		runtime.GC()
		start := time.Now()
		var err error
		var buildD, compileD float64
		inst, g, inj, buildD, compileD, err = prepare(wl, s, cfg.full)
		if err != nil {
			return nil, err
		}
		winst, _, _, _, _, err := prepare(wl, deriveSeeds(0), cfg.warm)
		if err != nil {
			return nil, err
		}
		warm.pass(winst, false, -1)
		setupS = append(setupS, time.Since(start).Seconds())
		buildS = append(buildS, buildD)
		compileS = append(compileS, compileD)
	}

	// Each pass starts with the previous pass's garbage collected, so that
	// no pass pays for another's and every pass's peak heap starts from the
	// same floor. peak_rss_mb is read after the first pass: the peak of
	// set-up and one pass, independent of how many passes the host fits into
	// the run.
	r := newRunner(t)
	var passes []passResult
	var rss float64
	start := time.Now()
	for i := 0; ; i++ {
		runtime.GC()
		passes = append(passes, r.pass(inst, cfg.trace && i%2 == 1, int32(i)))
		if i == 0 {
			var err error
			if rss, err = peakRSSMiB(); err != nil {
				return nil, err
			}
		}
		if time.Since(start).Seconds() >= cfg.seconds && (!cfg.trace || i >= 1) {
			break
		}
	}

	out := &outcome{shape: hostShape(), passes: len(passes)}
	out.Attempted = warm.attempted + r.attempted
	out.Failed = warm.failed + r.failed
	out.Correct = out.Failed == 0
	out.errs = append(warm.errs, r.errs...)
	values := map[string]float64{}
	var walls, tracedWalls []float64
	for _, p := range passes {
		if p.traced {
			tracedWalls = append(tracedWalls, p.wall)
		} else {
			walls = append(walls, p.wall)
		}
	}
	out.traced = len(tracedWalls)

	if !cfg.trace {
		first := passes[0].sim
		values["wall_s"] = median(walls)
		values["setup_s"] = median(setupS)
		values["peak_rss_mb"] = rss
		values["alloc_mb"] = median(pluck(passes, func(p passResult) float64 { return p.allocMB }))
		values["sim_rounds"] = float64(first.Rounds)
		values["sim_messages"] = float64(first.Messages)
		values["sim_slots"] = float64(slots(&first))
		out.Metrics = withUnits(values, endToEnd)
		return out, nil
	}

	var traced []passResult
	out.incl, out.self = inclusive(t.spans), map[string]float64{}
	for _, p := range passes {
		if !p.traced {
			continue
		}
		traced = append(traced, p)
		for l, v := range p.self {
			out.self[l] += v
		}
		out.tracedWall += p.wall
	}
	for name := range units {
		if slices.Contains(endToEnd, name) {
			continue
		}
		values[name] = median(pluck(traced, func(p passResult) float64 { return p.layer[name] }))
	}
	values["graph.build_s"] = median(buildS)
	values["fault.compile_s"] = median(compileS)
	values["obs.trace_overhead_frac"] = median(tracedWalls)/median(walls) - 1
	values["graph.adj_ns"], values["graph.linkindex_ns"] = probeAdjacency(g)
	values["fault.msgfate_ns"] = probeMsgFate(inj, g, passes[0].sim.Rounds)
	_, heap, err := graph.TopoHeapCost(func() (graph.Topology, error) { return wl.topo(s, cfg.full) })
	if err != nil {
		return nil, err
	}
	values["graph.bytes_per_node"] = float64(heap) / float64(g.N())
	out.Metrics = withUnits(values, nil)
	out.spans = t.spans
	return out, nil
}

// prepare builds one instance of the workload at the given sizes, timing
// the topology construction and the fault-plan compilation.
func prepare(wl workload, s seeds, z sizes) (inst instance, g graph.Topology, inj *fault.Injector, buildS, compileS float64, err error) {
	start := time.Now()
	g, err = wl.topo(s, z)
	if err != nil {
		return nil, nil, nil, 0, 0, fmt.Errorf("%s: topology: %w", wl.name, err)
	}
	buildS = time.Since(start).Seconds()
	start = time.Now()
	plan, err := fault.Parse(wl.plan)
	if err == nil && plan != nil {
		plan.Seed = s.fault
	}
	if err == nil {
		inj, err = fault.Compile(plan, g)
	}
	if err != nil {
		return nil, nil, nil, 0, 0, fmt.Errorf("%s: fault plan: %w", wl.name, err)
	}
	compileS = time.Since(start).Seconds()
	inst, err = wl.build(g, s, z, plan)
	if err != nil {
		return nil, nil, nil, 0, 0, fmt.Errorf("%s: references: %w", wl.name, err)
	}
	return inst, g, inj, buildS, compileS, nil
}

func withUnits(values map[string]float64, names []string) map[string]metric {
	out := map[string]metric{}
	for name, v := range values {
		if names == nil || slices.Contains(names, name) {
			out[name] = metric{Value: v, Unit: units[name]}
		}
	}
	return out
}

func pluck(ps []passResult, f func(passResult) float64) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = f(p)
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// record is the result file a run leaves for later comparison.
type record struct {
	Shape    shape   `json:"shape"`
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    bool    `json:"trace"`
	Seconds  float64 `json:"seconds"`
	Passes   int     `json:"passes"`
	Result   result  `json:"result"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: pipelines-random, census-torus or census-chaos-io")
	seed := fs.Int64("seed", 1, "workload seed; the graph, protocol and fault-plan seeds derive from it")
	seconds := fs.Float64("seconds", 25, "run passes until this many seconds have elapsed")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics and dumping spans")
	outDir := fs.String("out", ".bench_build", "directory for result records and span dumps")
	compare := fs.Bool("compare", false, "compare two result records given as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two result records")
			return 2
		}
		return compareRecords(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		setupReps: 5, full: fullSizes, warm: warmSizes}
	out, err := benchmark(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, *trace)
	if cfg.trace {
		header := map[string]any{"shape": out.shape, "workload": cfg.workload, "seed": cfg.seed,
			"traced_wall_s": out.tracedWall, "self_s": out.self, "inclusive_s": out.incl}
		if err := writeSpans(filepath.Join(*outDir, "spans", tag+".jsonl"), header, out.spans); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	rec := record{Shape: out.shape, Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Seconds: cfg.seconds, Passes: out.passes, Result: out.result}
	if err := writeJSON(filepath.Join(*outDir, "results", tag+".json"), rec); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := report(stdout, cfg, out); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// report prints the human-readable summary and, last, the result line.
func report(w io.Writer, cfg config, out *outcome) error {
	fmt.Fprintf(w, "workload %s seed %d: %d passes (%d traced) in %.0f s, closed loop, one client\n",
		cfg.workload, cfg.seed, out.passes, out.traced, cfg.seconds)
	shape, _ := json.Marshal(out.shape)
	fmt.Fprintf(w, "shape %s\n", shape)
	for _, e := range out.errs {
		fmt.Fprintln(w, "FAIL", e)
	}
	fmt.Fprintf(w, "fail_frac %g (%d of %d operations)\n", ratio(float64(out.Failed), float64(out.Attempted)), out.Failed, out.Attempted)
	if cfg.trace {
		fmt.Fprintf(w, "%-12s %12s %12s %8s   (summed over traced passes; self share of %.3f s traced wall)\n",
			"layer", "inclusive_s", "self_s", "self%", out.tracedWall)
		layers := slices.Sorted(maps.Keys(out.self))
		spanned := 0.0
		for _, l := range layers {
			spanned += out.self[l]
			incl := "-" // a layer seen only in phase spans, which overlap across shards
			if v, ok := out.incl[l]; ok {
				incl = fmt.Sprintf("%.4f", v)
			}
			fmt.Fprintf(w, "%-12s %12s %12.4f %7.1f%%\n", l, incl, out.self[l], 100*ratio(out.self[l], out.tracedWall))
		}
		fmt.Fprintf(w, "%-12s %12s %12.4f %7.1f%%\n", "(unspanned)", "", out.tracedWall-spanned, 100*ratio(out.tracedWall-spanned, out.tracedWall))
	}
	names := slices.Sorted(maps.Keys(out.Metrics))
	for _, n := range names {
		fmt.Fprintf(w, "  %-34s %16.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	line, err := json.Marshal(out.result)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
