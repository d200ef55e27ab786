package sim

// checkpoint_test.go verifies the checkpoint/restore contract: capture is a
// pure observation (the checkpointed run's transcript is unchanged), resumed
// runs stitch byte-identically onto the original's transcript prefix,
// checkpoints are byte-portable across worker counts, and the runs that
// cannot snapshot (the goroutine engine, closure-state machines) refuse
// cleanly.

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

// ckptToken is the test protocol's message and slot payload.
type ckptToken struct{ V int64 }

// ckptMachine exercises every checkpointed dimension: per-round RNG draws,
// point-to-point sends (inboxes and, under a delay/dup plan, the pending
// buffer), channel writes (slot state), and data-dependent halting.
type ckptMachine struct {
	c      Node
	rounds int
	sum    uint64
	limit  int
}

func (m *ckptMachine) Step(in Input) bool {
	m.rounds++
	for _, msg := range in.Msgs {
		m.sum = m.sum*31 + uint64(msg.Payload.(ckptToken).V)
	}
	if in.Slot.State == SlotSuccess {
		m.sum = m.sum*131 + uint64(in.Slot.From)
	}
	l := (m.rounds + int(m.c.ID())) % m.c.Degree()
	m.c.Send(l, ckptToken{V: int64(m.rounds)*1000 + int64(m.c.ID())})
	if m.c.Rand().Intn(3) == 1 {
		m.c.Broadcast(ckptToken{V: int64(m.c.ID())})
	}
	return m.rounds >= m.limit
}

func (m *ckptMachine) Result() any { return m.sum }

func (m *ckptMachine) AppendState(dst []byte) []byte {
	return ckptMachineState{Rounds: m.rounds, Sum: m.sum}.AppendState(dst)
}

func (m *ckptMachine) RestoreState(src []byte) error {
	rounds, n := binary.Uvarint(src)
	if n <= 0 {
		return errors.New("ckptMachine: state truncated")
	}
	sum, k := binary.Uvarint(src[n:])
	if k <= 0 || n+k != len(src) {
		return errors.New("ckptMachine: malformed state")
	}
	m.rounds, m.sum = int(rounds), sum
	return nil
}

// ckptMachineState is ckptMachine's state as version-1 checkpoints (the
// committed fuzz corpus) carry it.
type ckptMachineState struct {
	Rounds int
	Sum    uint64
}

func (s ckptMachineState) AppendState(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(s.Rounds))
	return binary.AppendUvarint(dst, s.Sum)
}

func init() {
	gob.Register(ckptToken{})
	gob.Register(ckptMachineState{})
}

func ckptProgram(limit int) StepProgram {
	return func(c Node) Machine { return &ckptMachine{c: c, limit: limit} }
}

// collectCheckpoints is a CheckpointSpec sink gathering every capture.
func collectCheckpoints(dst *[]*Checkpoint) func(*Checkpoint) error {
	return func(cp *Checkpoint) error {
		*dst = append(*dst, cp)
		return nil
	}
}

// runStepTranscript runs a step program with a transcript installed.
func runStepTranscript(t *testing.T, g graph.Topology, prog StepProgram, opts ...Option) ([]byte, *Result, error) {
	t.Helper()
	var buf bytes.Buffer
	tw := NewTranscriptWriter(&buf, false)
	res, err := RunStep(g, prog, append([]Option{WithTranscript(tw)}, opts...)...)
	if cerr := tw.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	return buf.Bytes(), res, err
}

// stitch cuts the reference transcript after the last frame with round ≤
// cut and appends the resumed transcript's frames (everything after its
// header frame).
func stitch(t *testing.T, ref, resumed []byte, cut int) []byte {
	t.Helper()
	offs, rounds := scanFrames(t, ref)
	cutOff := len(ref)
	for i, r := range rounds {
		if (r == -1 && i > 0) || r > cut { // final frame or first later round
			cutOff = offs[i]
			break
		}
	}
	roffs, _ := scanFrames(t, resumed)
	if len(roffs) < 2 {
		t.Fatalf("resumed transcript has %d frames", len(roffs))
	}
	out := append([]byte{}, ref[:cutOff]...)
	return append(out, resumed[roffs[1]:]...) // skip prelude+header frame
}

// resumeAndStitch resumes from cp with a transcript and asserts the stitched
// stream is byte-identical to ref; returns the resumed run's outcome.
func resumeAndStitch(t *testing.T, g graph.Topology, prog StepProgram, cp *Checkpoint, ref []byte, opts ...Option) (*Result, error) {
	t.Helper()
	var buf bytes.Buffer
	tw := NewTranscriptWriter(&buf, false)
	res, err := Resume(g, prog, cp, append([]Option{WithTranscript(tw)}, opts...)...)
	if cerr := tw.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	got := stitch(t, ref, buf.Bytes(), cp.Round)
	if !bytes.Equal(got, ref) {
		t.Errorf("resume at round %d: stitched transcript differs from uninterrupted run (%d vs %d bytes)", cp.Round, len(got), len(ref))
	}
	return res, err
}

func TestCheckpointResumeStitchedByteIdentity(t *testing.T) {
	g := ring(t, 16)
	prog := ckptProgram(24)
	ref, want, err := runStepTranscript(t, g, prog, WithSeed(7), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}

	for _, w := range []int{1, 4} {
		var cps []*Checkpoint
		spec := &CheckpointSpec{Every: 5, Sink: collectCheckpoints(&cps)}
		raw, res, err := runStepTranscript(t, g, prog, WithSeed(7), WithWorkers(w), WithCheckpoints(spec))
		if err != nil {
			t.Fatal(err)
		}
		// Capture is an observation: transcript and result unchanged.
		if !bytes.Equal(raw, ref) {
			t.Fatalf("w%d: checkpointing changed the transcript", w)
		}
		if !reflect.DeepEqual(res.Results, want.Results) {
			t.Fatalf("w%d: checkpointing changed the results", w)
		}
		if len(cps) == 0 {
			t.Fatalf("w%d: no checkpoints captured", w)
		}
		for _, cp := range cps {
			if cp.Round%5 != 0 || cp.Round == 0 {
				t.Fatalf("w%d: checkpoint at unexpected round %d", w, cp.Round)
			}
			for _, rw := range []int{1, 4} {
				res, err := resumeAndStitch(t, g, prog, cp, ref, WithWorkers(rw))
				if err != nil {
					t.Fatalf("resume r%d w%d: %v", cp.Round, rw, err)
				}
				if !reflect.DeepEqual(res.Results, want.Results) {
					t.Errorf("resume r%d w%d: results differ", cp.Round, rw)
				}
				if res.Metrics != want.Metrics {
					t.Errorf("resume r%d w%d: metrics = %+v, want %+v", cp.Round, rw, res.Metrics, want.Metrics)
				}
			}
		}
	}
}

func TestCheckpointFaultedResume(t *testing.T) {
	// Delay and dup keep the pending buffer populated; crashes and jams
	// shift alive counts and slot states. The checkpoint must carry all of
	// it through a resume bit-exactly.
	plan, err := fault.Parse("delay:0@2-9/d4;dup:1@3-8;crash:3@6;jam:5;jam:11")
	if err != nil {
		t.Fatal(err)
	}
	g := ring(t, 12)
	prog := ckptProgram(20)
	ref, want, err := runStepTranscript(t, g, prog, WithSeed(11), WithFaults(plan), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}

	var cps []*Checkpoint
	spec := &CheckpointSpec{At: []int{1, 7, 13}, Sink: collectCheckpoints(&cps)}
	if _, _, err := runStepTranscript(t, g, prog, WithSeed(11), WithFaults(plan), WithWorkers(1), WithCheckpoints(spec)); err != nil {
		t.Fatal(err)
	}
	if len(cps) != 3 {
		t.Fatalf("captured %d checkpoints, want 3", len(cps))
	}
	sawPending := false
	for _, cp := range cps {
		if cp.Plan == "" {
			t.Errorf("checkpoint at %d lost the fault plan", cp.Round)
		}
		sawPending = sawPending || len(cp.Pending) > 0
		res, err := resumeAndStitch(t, g, prog, cp, ref, WithWorkers(2))
		if err != nil {
			t.Fatalf("resume r%d: %v", cp.Round, err)
		}
		if !reflect.DeepEqual(res.Results, want.Results) {
			t.Errorf("resume r%d: results differ", cp.Round)
		}
	}
	if !sawPending {
		t.Error("no checkpoint caught an in-flight delayed/duplicated message; the plan should keep the buffer busy")
	}
}

func TestCheckpointPortableAcrossWorkers(t *testing.T) {
	g := ring(t, 16)
	prog := ckptProgram(24)
	// The faulted capture at round 26 has pending delayed messages, node 3
	// restarted (incarnation and round-base columns), node 5 crashed, and
	// the other nodes halted with results.
	restarts, err := fault.Parse("seed:4;crash:3@4;restart:3@9;crash:5@20;restart:5@40;delay:*@2-30/d3/p0.4")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		plan  *fault.Plan
		round int
	}{{"fault-free", nil, 10}, {"crash-restart+delay", restarts, 26}} {
		var want []byte
		for _, w := range []int{1, 2, 4} {
			var cps []*Checkpoint
			spec := &CheckpointSpec{At: []int{tc.round}, Sink: collectCheckpoints(&cps)}
			if _, err := RunStep(g, prog, WithSeed(7), WithFaults(tc.plan), WithWorkers(w), WithCheckpoints(spec)); err != nil {
				t.Fatal(err)
			}
			if len(cps) != 1 {
				t.Fatalf("%s w%d: %d checkpoints", tc.name, w, len(cps))
			}
			cp := cps[0]
			if tc.plan != nil {
				results, restarted, crashed := 0, 0, 0
				for _, ns := range cp.Nodes {
					if ns.Halted && ns.Result != nil {
						results++
					}
					if ns.Incarnation > 0 {
						restarted++
					}
					if ns.Crashed {
						crashed++
					}
				}
				if results == 0 || restarted == 0 || crashed == 0 || len(cp.Pending) == 0 {
					t.Fatalf("%s w%d: capture has %d results, %d restarted and %d crashed nodes, %d pending messages; want all nonzero",
						tc.name, w, results, restarted, crashed, len(cp.Pending))
				}
			}
			raw, err := cp.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = raw
			} else if !bytes.Equal(raw, want) {
				t.Errorf("%s w%d: checkpoint bytes differ from workers=1's — canonical form broken", tc.name, w)
			}
			back, err := ReadCheckpoint(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(back, cp) {
				t.Errorf("%s w%d: checkpoint round-trip changed the value", tc.name, w)
			}
		}

		// Corruption: any flipped body byte must fail the crc.
		bad := bytes.Clone(want)
		bad[len(bad)-6] ^= 1
		if _, err := ReadCheckpoint(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: corrupted checkpoint read cleanly", tc.name)
		}
	}
}

func TestCheckpointDuringFastForward(t *testing.T) {
	// Node 0 halts at once; the rest sleep forever. The engine fast-forwards
	// to the round budget and fails with ErrMaxRounds; checkpoints are still
	// due inside the skipped stretch (ffTarget clamps to them), and resuming
	// from one must reproduce the identical wedged transcript and error.
	prog := func(c Node) Machine { return &sleeperMachine{c: c} }
	g := ring(t, 4)
	ref, _, err := runStepTranscript(t, g, prog, WithSeed(1), WithMaxRounds(40), WithWorkers(1))
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}

	var cps []*Checkpoint
	spec := &CheckpointSpec{Every: 7, Sink: collectCheckpoints(&cps)}
	_, _, err = runStepTranscript(t, g, prog, WithSeed(1), WithMaxRounds(40), WithWorkers(2), WithCheckpoints(spec))
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("checkpointed run err = %v, want ErrMaxRounds", err)
	}
	if len(cps) < 5 {
		t.Fatalf("captured %d checkpoints, want one per 7 rounds of the wedged stretch", len(cps))
	}
	cp := cps[len(cps)/2]
	if _, err := resumeAndStitch(t, g, prog, cp, ref, WithWorkers(1)); !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("resume err = %v, want ErrMaxRounds", err)
	}
}

// sleeperMachine wedges the network: node 0 halts at once, everyone else
// sleeps forever. Its state is empty, which also covers empty Snapshotter
// states through the checkpoint encoding.
type sleeperMachine struct{ c Node }

func (m *sleeperMachine) Step(Input) bool {
	if m.c.ID() == 0 {
		return true
	}
	m.c.Sleep()
	return false
}

func (m *sleeperMachine) Result() any                   { return nil }
func (m *sleeperMachine) AppendState(dst []byte) []byte { return dst }

func (m *sleeperMachine) RestoreState(src []byte) error {
	if len(src) != 0 {
		return errors.New("sleeperMachine: state is empty")
	}
	return nil
}

func TestCheckpointGobFallbackMachine(t *testing.T) {
	// A machine with exported state but no Snapshotter checkpoints through
	// the gob fallback.
	g := ring(t, 6)
	prog := func(c Node) Machine { return &gobFallbackMachine{c: c} }
	ref, want, err := runStepTranscript(t, g, prog, WithSeed(5), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	var cps []*Checkpoint
	spec := &CheckpointSpec{At: []int{4}, Sink: collectCheckpoints(&cps)}
	if _, err := RunStep(g, prog, WithSeed(5), WithCheckpoints(spec)); err != nil {
		t.Fatal(err)
	}
	if len(cps) != 1 {
		t.Fatalf("%d checkpoints", len(cps))
	}
	if !cps[0].Nodes[1].HasState && len(cps[0].Nodes[1].GobState) == 0 {
		t.Fatal("no machine state captured")
	}
	res, err := resumeAndStitch(t, g, prog, cps[0], ref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Results, want.Results) {
		t.Error("gob-fallback resume results differ")
	}
}

type gobFallbackMachine struct {
	c     Node
	Count int
	Acc   int64
}

func (m *gobFallbackMachine) Step(in Input) bool {
	m.Count++
	for _, msg := range in.Msgs {
		m.Acc += msg.Payload.(ckptToken).V
	}
	if m.Count%2 == 1 {
		m.c.Send(m.c.Rand().Intn(m.c.Degree()), ckptToken{V: int64(m.Count)})
	}
	return m.Count >= 10
}

func (m *gobFallbackMachine) Result() any { return m.Acc }

func TestCheckpointRejectedModes(t *testing.T) {
	g := ring(t, 4)
	spec := &CheckpointSpec{Every: 2, Sink: func(*Checkpoint) error { return nil }}
	// Checkpointing is a step-engine capability.
	if _, err := RunStep(g, ckptProgram(4), WithEngine(EngineGoroutine), WithCheckpoints(spec)); !errors.Is(err, ErrNotCheckpointable) {
		t.Errorf("machine on the goroutine engine with checkpoints: err = %v, want ErrNotCheckpointable", err)
	}
	// A closure-state machine can neither snapshot nor gob-encode: the run
	// must fail with a diagnostic, not capture garbage.
	_, err := RunStep(g, func(c Node) Machine {
		n := 0
		return &stepFuncs{step: func(Input) bool { n++; return n > 5 }}
	}, WithCheckpoints(&CheckpointSpec{At: []int{2}, Sink: func(*Checkpoint) error { return nil }}))
	if err == nil {
		t.Error("closure machine checkpointed silently")
	}
}

func TestResumeValidatesGraph(t *testing.T) {
	g := ring(t, 8)
	var cps []*Checkpoint
	spec := &CheckpointSpec{At: []int{3}, Sink: collectCheckpoints(&cps)}
	if _, err := RunStep(g, ckptProgram(10), WithSeed(2), WithCheckpoints(spec)); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(ring(t, 9), ckptProgram(10), cps[0]); err == nil {
		t.Error("resume on a different-size graph accepted")
	}

	// Same node count, different wiring: the adjacency digest must reject it
	// (edge ids and link indices inside the checkpoint would be garbage).
	ga, err := graph.RandomConnected(8, 6, 1)
	if err != nil {
		t.Fatal(err)
	}
	gb, err := graph.RandomConnected(8, 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	cps = cps[:0]
	if _, err := RunStep(ga, ckptProgram(10), WithSeed(2), WithCheckpoints(spec)); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(gb, ckptProgram(10), cps[0]); err == nil {
		t.Error("resume on a same-size differently-wired graph accepted")
	}
	if _, err := Resume(ga, ckptProgram(10), cps[0]); err != nil {
		t.Errorf("resume on the capture graph rejected: %v", err)
	}

	// A crafted MMCP file whose indices name nodes or edges the graph
	// lacks — or a delivery round already past — must be refused, not
	// resumed into an undeliverable message or a bogus inbox.
	var valid bytes.Buffer
	if _, err := cps[0].WriteTo(&valid); err != nil {
		t.Fatal(err)
	}
	// An edge of ga that does not touch node 0, for the not-incident case.
	foreign := -1
	for id := 0; id < ga.M(); id++ {
		if e := ga.Edge(id); e.U != 0 && e.V != 0 {
			foreign = id
			break
		}
	}
	for _, tc := range []struct {
		name    string
		corrupt func(cp *Checkpoint)
	}{
		{"inbox recipient", func(cp *Checkpoint) { cp.Inboxes[0].Node = 8 }},
		{"inbox sender", func(cp *Checkpoint) { cp.Inboxes[0].Msgs[0].From = -1 }},
		{"inbox edge out of range", func(cp *Checkpoint) { cp.Inboxes[0].Msgs[0].EdgeID = ga.M() }},
		{"inbox edge not incident", func(cp *Checkpoint) {
			cp.Inboxes[0].Node = 0
			cp.Inboxes[0].Msgs[0].EdgeID = foreign
		}},
		{"pending recipient", func(cp *Checkpoint) { cp.Pending = append(cp.Pending, pendingFrom(cp, 1)); cp.Pending[0].To = 8 }},
		{"pending sender", func(cp *Checkpoint) { cp.Pending = append(cp.Pending, pendingFrom(cp, 1)); cp.Pending[0].From = 8 }},
		{"pending edge out of range", func(cp *Checkpoint) {
			cp.Pending = append(cp.Pending, pendingFrom(cp, 1))
			cp.Pending[0].EdgeID = -1
		}},
		{"pending edge not incident", func(cp *Checkpoint) {
			cp.Pending = append(cp.Pending, pendingFrom(cp, 1))
			cp.Pending[0].To, cp.Pending[0].EdgeID = 0, foreign
		}},
		{"pending due at capture", func(cp *Checkpoint) { cp.Pending = append(cp.Pending, pendingFrom(cp, 0)) }},
		{"slot writer", func(cp *Checkpoint) { cp.Slot = SlotCheckpoint{State: SlotSuccess, From: 8, Payload: ckptToken{}} }},
		{"zero digest", func(cp *Checkpoint) { cp.Graph = 0 }},
	} {
		cp, err := ReadCheckpoint(bytes.NewReader(valid.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		tc.corrupt(cp)
		var crafted bytes.Buffer
		if _, err := cp.WriteTo(&crafted); err != nil {
			t.Fatal(err)
		}
		if cp, err = ReadCheckpoint(&crafted); err != nil {
			t.Fatal(err)
		}
		if _, err := Resume(ga, ckptProgram(10), cp); err == nil {
			t.Errorf("%s: corrupted checkpoint resumed", tc.name)
		}
	}
	// The valid pending record the corruptions start from resumes fine.
	cp, err := ReadCheckpoint(bytes.NewReader(valid.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	cp.Pending = append(cp.Pending, pendingFrom(cp, 1))
	if _, err := Resume(ga, ckptProgram(10), cp); err != nil {
		t.Errorf("checkpoint with a valid pending message rejected: %v", err)
	}
}

// pendingFrom builds a well-formed pending record from the checkpoint's
// first inbox message, due `after` rounds past the capture.
func pendingFrom(cp *Checkpoint, after int) PendingCheckpoint {
	ib := cp.Inboxes[0]
	m := ib.Msgs[0]
	return PendingCheckpoint{Due: cp.Round + after, To: ib.Node, From: m.From, EdgeID: m.EdgeID, Payload: m.Payload}
}

// FuzzReadCheckpoint feeds mutated MMCP bodies through ReadCheckpoint and
// Resume. The input picks the version: one that opens with the magic is
// "MMCP" | version byte | body, and any other input is a version-1 body (the
// form of the original corpus). Either way the body is framed with the
// magic, the version, its length, and a freshly computed crc32, so mutations
// reach the body decoders and restore's semantic checks instead of dying at
// the checksum. The contract: an error or a result, never a panic. The
// committed corpus under testdata/fuzz/FuzzReadCheckpoint holds real
// captures of ckptProgram(10) on this 8-ring with seed 2 at rounds 3 and 6,
// fault-free (capture-r*) and under seed:3;delay:*@2-8/d3/p0.5 with 10 and
// 15 messages pending (capture-delay-r*), as version-1 bodies and as
// version-2 inputs (v2-*), plus every crasher the fuzzer has found.
func FuzzReadCheckpoint(f *testing.F) {
	g := ring(f, 8)
	f.Fuzz(func(t *testing.T, in []byte) {
		cp, err := ReadCheckpoint(bytes.NewReader(frameFuzzInput(in)))
		if err != nil {
			return
		}
		// A mutated round budget may be astronomically large; the resumed
		// run only has to start, not to spin to it.
		cp.MaxRounds = min(cp.MaxRounds, cp.Round+64)
		_, _ = Resume(g, ckptProgram(10), cp, WithWorkers(2))
	})
}

// frameFuzzInput frames one FuzzReadCheckpoint input as an MMCP file.
func frameFuzzInput(in []byte) []byte {
	version, body := byte(1), in
	if len(in) >= len(checkpointMagic)+1 && string(in[:len(checkpointMagic)]) == checkpointMagic {
		version, body = in[len(checkpointMagic)], in[len(checkpointMagic)+1:]
	}
	framed := append([]byte(checkpointMagic), version)
	framed = binary.AppendUvarint(framed, uint64(len(body)))
	return append(append(framed, body...), crcOf(body)...)
}

// readFuzzCorpus returns the committed FuzzReadCheckpoint inputs by file
// name.
func readFuzzCorpus(t *testing.T) map[string][]byte {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", "FuzzReadCheckpoint")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	corpus := make(map[string][]byte)
	for _, f := range files {
		raw, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a one-value []byte corpus entry", f.Name())
		}
		in, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", f.Name(), err)
		}
		corpus[f.Name()] = []byte(in)
	}
	return corpus
}

// TestCheckpointFuzzCorpusVersions: the committed version-1 captures still
// decode through the version-1 path into exactly the checkpoints their
// version-2 twins decode to, and both resume.
func TestCheckpointFuzzCorpusVersions(t *testing.T) {
	g := ring(t, 8)
	corpus := readFuzzCorpus(t)
	for _, name := range []string{"capture-r3", "capture-r6", "capture-delay-r3", "capture-delay-r6"} {
		v1, v2 := frameFuzzInput(corpus[name]), frameFuzzInput(corpus["v2-"+name])
		if v1[4] != 1 || v2[4] != CheckpointVersion {
			t.Fatalf("%s: versions %d and %d, want 1 and %d", name, v1[4], v2[4], CheckpointVersion)
		}
		a, err := ReadCheckpoint(bytes.NewReader(v1))
		if err != nil {
			t.Fatalf("%s (version 1): %v", name, err)
		}
		b, err := ReadCheckpoint(bytes.NewReader(v2))
		if err != nil {
			t.Fatalf("%s (version 2): %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: version-1 and version-2 captures decode differently", name)
		}
		if _, err := Resume(g, ckptProgram(10), a); err != nil {
			t.Errorf("%s: resume: %v", name, err)
		}
		// Re-encoding the version-1 capture writes its version-2 twin.
		enc, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, v2) {
			t.Errorf("%s: version-1 capture re-encodes to other bytes than its version-2 twin", name)
		}
	}
}

// TestCheckpointV2RefusesDamagedBodies: every truncation of a version-2
// body, and bodies with inconsistent counts, flags, or value groups, fail
// with an error (the crc is recomputed, so the body decoder itself must
// catch them), and a short body declaring 2³¹ nodes fails before anything
// is sized by the claim.
func TestCheckpointV2RefusesDamagedBodies(t *testing.T) {
	in := readFuzzCorpus(t)["v2-capture-delay-r6"]
	body := in[len(checkpointMagic)+1:]
	reframe := func(b []byte) []byte {
		return frameFuzzInput(append([]byte(checkpointMagic+"\x02"), b...))
	}
	if _, err := ReadCheckpoint(bytes.NewReader(reframe(body))); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(body); cut++ {
		if _, err := ReadCheckpoint(bytes.NewReader(reframe(body[:cut]))); err == nil {
			t.Fatalf("body truncated to %d of %d bytes decoded", cut, len(body))
		}
	}
	if _, err := ReadCheckpoint(bytes.NewReader(reframe(append(slices.Clone(body), 0)))); err == nil {
		t.Error("body with a trailing byte decoded")
	}

	// Header fields up to the node count: round 6, then n.
	hostile := binary.AppendUvarint([]byte{6}, 1<<31)
	hostile = append(hostile, make([]byte, 64)...)
	var err error
	if n := allocatedBy(func() { _, err = ReadCheckpoint(bytes.NewReader(reframe(hostile))) }); n >= 1<<20 {
		t.Errorf("a %d-byte body declaring 2^31 nodes allocated %d bytes", len(hostile), n)
	}
	if err == nil {
		t.Error("a short body declaring 2^31 nodes decoded")
	}

	flagsAt := nodeFlagsOffset(t, body)
	for _, tc := range []struct {
		at   int
		b    byte
		want string
	}{
		{flagsAt, 0x80, "unknown flags"},
		{flagsAt - 3, 0x02, "unknown body flags"}, // before the slot's state and writer bytes
	} {
		b := slices.Clone(body)
		b[tc.at] = tc.b
		if _, err := ReadCheckpoint(bytes.NewReader(reframe(b))); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("byte %d set to %#x: err = %v, want %q", tc.at, tc.b, err, tc.want)
		}
	}
}

// nodeFlagsOffset walks a version-2 body's header and slot, returning where
// the node-flags column starts.
func nodeFlagsOffset(t *testing.T, body []byte) int {
	t.Helper()
	d := frameDecoder{b: body}
	d.uvarint()          // round
	d.uvarint()          // n
	d.uint64()           // graph digest
	d.uvarint()          // seed
	d.bytes(d.uvarint()) // plan
	d.uvarint()          // max rounds
	d.uvarint()          // alive
	decodeMetrics(&d, &Metrics{})
	d.byte()    // body flags
	d.uvarint() // slot state
	d.uvarint() // slot writer
	if d.err != nil {
		t.Fatal(d.err)
	}
	return len(body) - len(d.b)
}

// TestDecodeValuesRefusesInconsistentSections: the values section decodes
// back to its slots, and fails when the slot count, a group index, or a
// group's length disagrees with the rest.
func TestDecodeValuesRefusesInconsistentSections(t *testing.T) {
	slotVals := []any{ckptToken{V: 1}, nil, int64(7), ckptToken{V: 2}}
	encode := func(vals []any) (*valueEncoder, []byte) {
		var ve valueEncoder
		for _, v := range vals {
			ve.add(v)
		}
		b, err := ve.appendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		return &ve, b
	}
	ve, good := encode(slotVals)
	d := frameDecoder{b: good}
	got, err := decodeValues(&d, len(slotVals))
	if err != nil || !reflect.DeepEqual(got, slotVals) {
		t.Fatalf("round trip: %#v, %v", got, err)
	}
	for _, slots := range []int{len(slotVals) - 1, len(slotVals) + 1} {
		d := frameDecoder{b: good}
		if _, err := decodeValues(&d, slots); err == nil && d.err == nil {
			t.Errorf("%d-slot section decoded as %d slots", len(slotVals), slots)
		}
	}
	// Group indices follow the one-byte group count.
	bad := slices.Clone(good)
	bad[1+len(ve.idx)-1] = 3
	if _, err := decodeValues(&frameDecoder{b: bad}, len(slotVals)); err == nil || !strings.Contains(err.Error(), "names group 3") {
		t.Errorf("slot naming group 3 of 2: err = %v", err)
	}
	// A byte after the last group inside the gob stream.
	gd := frameDecoder{b: good[1+len(ve.idx):]}
	gobSec := gd.bytes(gd.uvarint())
	padded := append(slices.Clone(good[:1+len(ve.idx)]), binary.AppendUvarint(nil, uint64(len(gobSec)+1))...)
	padded = append(append(padded, gobSec...), 0)
	if _, err := decodeValues(&frameDecoder{b: padded}, len(slotVals)); err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Errorf("gob stream with a trailing byte: err = %v", err)
	}
	// The indices of one section over the gob stream of another, whose
	// first group holds three tokens instead of two.
	ov, other := encode([]any{ckptToken{V: 1}, nil, int64(7), ckptToken{V: 2}, ckptToken{V: 3}})
	od := frameDecoder{b: other[1+len(ov.idx):]}
	otherGob := od.bytes(od.uvarint())
	spliced := append(slices.Clone(good[:1+len(ve.idx)]), binary.AppendUvarint(nil, uint64(len(otherGob)))...)
	spliced = append(spliced, otherGob...)
	if _, err := decodeValues(&frameDecoder{b: spliced}, len(slotVals)); err == nil || !strings.Contains(err.Error(), "holds 3 values") {
		t.Errorf("group holding more values than its slots: err = %v", err)
	}
}
