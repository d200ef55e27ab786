package main

// trace.go is the traced run's instrumentation: spans around every public
// call the benchmark makes, and a sim.Recorder that turns the engines' phase
// hooks into child spans and per-pass counters. Spans stay in memory until
// the run ends.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/sim"
)

// span is one timed interval: a public call, an engine run inside it, or one
// shard's phase inside a run.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a top-level call
	Pass   int32  `json:"pass"`
	Op     int32  `json:"op"`    // operation id, shared by every span of one operation
	Shard  int16  `json:"shard"` // engine shard of a phase span, -1 otherwise
	Name   string `json:"name"`  // "<layer>.<what>"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	phase  bool
}

func (s *span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

var phaseNames = [sim.NumPhases]string{"sim.step", "sim.deliver", "sim.barrier"}

// tracer owns the spans. Calls and engine runs nest on the benchmark's own
// goroutine (the step engine's coordinator is the caller), so the open spans
// form a stack; phase spans arrive from worker goroutines through the
// recorder's per-shard buffers.
type tracer struct {
	epoch time.Time
	on    bool
	spans []span
	stack []int32
	pass  int32
	op    int32

	// runNames names the engine runs of the innermost open call, in order.
	runNames []string
	runIdx   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) open(name string) int32 {
	id := int32(len(t.spans))
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Pass: t.pass, Op: t.op, Shard: -1, Name: name, Start: t.now()})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) close(id int32) {
	t.spans[id].End = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// call times fn and, when tracing, records it as a span named name. The
// engine runs fn performs are named by runNames in order; runs beyond the
// list are named after the call's layer.
func (t *tracer) call(name string, fn func() error, runNames ...string) (float64, error) {
	if !t.on {
		start := time.Now()
		err := fn()
		return time.Since(start).Seconds(), err
	}
	savedNames, savedIdx := t.runNames, t.runIdx
	layer, _, _ := strings.Cut(name, ".")
	t.runNames, t.runIdx = append(runNames, layer+".run"), 0
	id := t.open(name)
	err := fn()
	t.close(id)
	t.runNames, t.runIdx = savedNames, savedIdx
	s := &t.spans[id]
	return float64(s.End-s.Start) / 1e9, err
}

// nextRunName names the engine run that is starting.
func (t *tracer) nextRunName() string {
	if len(t.runNames) == 0 {
		return "sim.run"
	}
	i := min(t.runIdx, len(t.runNames)-1)
	t.runIdx++
	return t.runNames[i]
}

// lastRunSeconds is the duration of the most recent engine run span of the
// given name, or 0 when tracing is off.
func (t *tracer) lastRunSeconds(name string) float64 {
	if !t.on {
		return 0
	}
	for i := len(t.spans) - 1; i >= 0; i-- {
		if s := &t.spans[i]; s.Name == name && !s.phase {
			return float64(s.End-s.Start) / 1e9
		}
	}
	return 0
}

// recorder is the benchmark's sim.Recorder. Per-shard state is written only
// by the goroutine running that shard's phase; everything else runs on the
// coordinator, ordered against the shards by the engine's phase barrier.
type recorder struct {
	t      *tracer
	run    int32 // span of the open engine run
	n      int64
	shards []shardRec

	runs, execRounds, ffRounds  int64
	awakeNodeRounds, nodeRounds int64
	phaseNs                     [sim.NumPhases]int64
	closeNs                     int64 // coordinator time from a round's last phase to its RoundEnd
	met                         sim.Metrics
}

type shardRec struct {
	lastEnd int64
	spans   []span
}

func newRecorder(t *tracer) *recorder { return &recorder{t: t} }

// reset clears the per-pass counters.
func (r *recorder) reset() {
	t, shards := r.t, r.shards
	*r = recorder{t: t, shards: shards}
}

func (r *recorder) RunStart(n int, _ sim.Engine, _, shards int) {
	for len(r.shards) < shards {
		r.shards = append(r.shards, shardRec{})
	}
	// A worker's last barrier span ends after the previous run's RunEnd,
	// while the engine stops its pool; it belongs to no run.
	for i := range r.shards {
		r.shards[i] = shardRec{spans: r.shards[i].spans[:0]}
	}
	r.run = r.t.open(r.t.nextRunName())
	r.n = int64(n)
	r.runs++
}

func (r *recorder) BeginPhase(sim.Phase, int) int64 { return r.t.now() }

func (r *recorder) EndPhase(p sim.Phase, shard, _ int, start int64) {
	end := r.t.now()
	s := &r.shards[shard]
	s.lastEnd = end
	s.spans = append(s.spans, span{Parent: r.run, Shard: int16(shard), Name: phaseNames[p], Start: start, End: end, phase: true})
}

func (r *recorder) FastForward(from, to int) { r.ffRounds += int64(to - from + 1) }

func (r *recorder) RoundEnd(_, awake int, _ sim.SlotState, _ *sim.Metrics) {
	now := r.t.now()
	last := int64(0)
	for i := range r.shards {
		last = max(last, r.shards[i].lastEnd)
		r.shards[i].lastEnd = 0
	}
	if last > 0 {
		r.closeNs += now - last
	}
	r.execRounds++
	r.awakeNodeRounds += int64(awake)
	r.nodeRounds += r.n
}

func (r *recorder) RunEnd(m *sim.Metrics) {
	t := r.t
	for i := range r.shards {
		s := &r.shards[i]
		for _, ps := range s.spans {
			r.phaseNs[phaseIndex(ps.Name)] += ps.End - ps.Start
			ps.ID, ps.Pass, ps.Op = int32(len(t.spans)), t.pass, t.op
			t.spans = append(t.spans, ps)
		}
		s.spans = s.spans[:0]
	}
	t.close(r.run)
	r.met.Add(m)
}

func phaseIndex(name string) int { return slices.Index(phaseNames[:], name) }

// layerTimes splits the spans of one pass into per-layer self time: a span's
// self time is its duration minus the union of its children's intervals.
// Phase spans of different shards overlap, so the union of a run's phase
// children — not their sum — is the time charged to the sim layer. The
// second result is the summed duration of the pass's top-level spans.
func layerTimes(spans []span, pass int32) (self map[string]float64, rooted float64) {
	children := map[int32][]*span{}
	var mine []*span
	for i := range spans {
		s := &spans[i]
		if s.Pass != pass {
			continue
		}
		mine = append(mine, s)
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self = map[string]float64{}
	for _, s := range mine {
		if s.phase {
			continue
		}
		if s.Parent < 0 {
			rooted += float64(s.End-s.Start) / 1e9
		}
		kids := children[s.ID]
		covered := union(kids)
		var plain int64
		for _, c := range kids {
			if !c.phase {
				plain += c.End - c.Start
			}
		}
		self[s.layer()] += float64(s.End-s.Start-covered) / 1e9
		self["sim"] += float64(covered-plain) / 1e9
	}
	return self, rooted
}

// union is the total length of the union of the spans' intervals.
func union(spans []*span) int64 {
	if len(spans) == 0 {
		return 0
	}
	iv := make([][2]int64, len(spans))
	for i, s := range spans {
		iv[i] = [2]int64{s.Start, s.End}
	}
	slices.SortFunc(iv, func(a, b [2]int64) int { return int(a[0] - b[0]) })
	var total int64
	lo, hi := iv[0][0], iv[0][1]
	for _, x := range iv[1:] {
		if x[0] > hi {
			total += hi - lo
			lo, hi = x[0], x[1]
			continue
		}
		hi = max(hi, x[1])
	}
	return total + hi - lo
}

// inclusive sums, per layer, the spans with no ancestor of the same layer:
// the wall time spent inside each layer's calls and runs.
func inclusive(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i := range spans {
		s := &spans[i]
		if s.phase {
			continue
		}
		nested := false
		for p := s.Parent; p >= 0; p = spans[p].Parent {
			if spans[p].layer() == s.layer() {
				nested = true
				break
			}
		}
		if !nested {
			out[s.layer()] += float64(s.End-s.Start) / 1e9
		}
	}
	return out
}

// writeSpans dumps the header line and one JSON line per span.
func writeSpans(path string, header any, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
