package sim

// transcript_test.go verifies the streamed binary transcript: byte-identity
// across engines and worker counts (faulted and fault-free), the reader's
// round-trip fidelity, gzip framing, and the reflective guard that pins the
// Metrics wire encoding to the struct.

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"reflect"
	"runtime/metrics"
	"testing"

	"repro/internal/fault"
	"repro/internal/graph"
)

// transcriptProgram is a machine exercising every frame feature:
// point-to-point sends (inbox digests), RNG draws, channel writes (success
// and collision slots), and per-node halt rounds.
func transcriptProgram(c Node) Machine {
	return &stepFuncs{
		step: func(in Input) bool {
			r := in.Round
			if r == 8+int(c.ID()) {
				return true
			}
			if c.Rand().Intn(3) == 0 {
				c.Send((r+1)%c.Degree(), int(c.ID())*100+r)
			}
			if c.Rand().Intn(4) == 0 {
				c.Broadcast(int(c.ID()))
			}
			return false
		},
		result: func() any { return int(c.ID()) },
	}
}

// runTranscript runs the program with a transcript writer installed and
// returns the raw transcript bytes.
func runTranscript(t *testing.T, g *graph.Graph, opts ...Option) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := NewTranscriptWriter(&buf, false)
	if _, err := RunStep(g, transcriptProgram, append([]Option{WithTranscript(tw)}, opts...)...); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTranscriptCrossEngineByteIdentity(t *testing.T) {
	g := ring(t, 8)
	for _, tc := range []struct {
		name string
		plan string
	}{
		{"fault-free", ""},
		{"faulted", "crash:3@4;delay:0@2/d3;dup:1@3;jam:5"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := []Option{WithSeed(42)}
			if tc.plan != "" {
				p, err := fault.Parse(tc.plan)
				if err != nil {
					t.Fatal(err)
				}
				opts = append(opts, WithFaults(p))
			}
			ref := runTranscript(t, g, append(opts, WithEngine(EngineGoroutine))...)
			if len(ref) == 0 {
				t.Fatal("empty transcript")
			}
			for _, w := range []int{1, 4} {
				got := runTranscript(t, g, append(opts, WithEngine(EngineStep), WithWorkers(w))...)
				if !bytes.Equal(got, ref) {
					t.Errorf("step-w%d transcript differs from goroutine engine (%d vs %d bytes)", w, len(got), len(ref))
				}
			}
		})
	}
}

func TestTranscriptReaderRoundTrip(t *testing.T) {
	g := ring(t, 6)
	raw := runTranscript(t, g, WithSeed(9), WithEngine(EngineGoroutine))

	tr, err := NewTranscriptReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	h := tr.Header()
	if h.N != 6 || h.Seed != 9 || h.Plan != "" || h.Gzip {
		t.Errorf("header = %+v", h)
	}

	var rounds []*RoundFrame
	var final *FinalFrame
	for {
		rf, ff, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rf != nil {
			rounds = append(rounds, rf)
		}
		if ff != nil {
			final = ff
		}
	}
	if final == nil {
		t.Fatal("no final frame")
	}
	if len(rounds) == 0 {
		t.Fatal("no round frames")
	}
	for i := 1; i < len(rounds); i++ {
		if rounds[i].Round <= rounds[i-1].Round {
			t.Fatalf("rounds not ascending: %d after %d", rounds[i].Round, rounds[i-1].Round)
		}
	}
	last := rounds[len(rounds)-1]
	// Re-run without a transcript: the final frame must agree with the
	// run's native Result.
	res, err := RunStep(g, transcriptProgram, WithSeed(9), WithEngine(EngineGoroutine))
	if err != nil {
		t.Fatal(err)
	}
	if final.Met != res.Metrics {
		t.Errorf("final metrics = %+v, want %+v", final.Met, res.Metrics)
	}
	if final.Err != "" || final.N != 6 {
		t.Errorf("final frame = %+v", final)
	}
	if got, want := final.ResultsDigest, resultsDigest(res.Results); got != want {
		t.Errorf("results digest = %x, want %x", got, want)
	}
	if last.Met.Rounds != res.Metrics.Rounds-1 {
		// The halting round emits no frame (nothing is delivered for the
		// next round); the last frame is the round before it.
		t.Errorf("last frame at metrics round %d, run had %d", last.Met.Rounds, res.Metrics.Rounds)
	}
	// After the final frame the reader reports EOF forever.
	if _, _, err := tr.Next(); err != io.EOF {
		t.Errorf("post-final Next = %v, want EOF", err)
	}
}

func TestTranscriptGzip(t *testing.T) {
	g := ring(t, 6)
	plain := runTranscript(t, g, WithSeed(3), WithEngine(EngineGoroutine))

	var buf bytes.Buffer
	tw := NewTranscriptWriter(&buf, true)
	if _, err := RunStep(g, transcriptProgram, WithSeed(3), WithEngine(EngineGoroutine), WithTranscript(tw)); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	gz := buf.Bytes()
	if bytes.Equal(gz, plain) {
		t.Fatal("gzip transcript identical to plain")
	}

	want := decodeAll(t, plain)
	got := decodeAll(t, gz)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("gzip transcript decodes differently")
	}
	tr, err := NewTranscriptReader(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Header().Gzip {
		t.Error("gzip flag not set in header")
	}
}

// decodeAll decodes a transcript to its frame sequence.
func decodeAll(t *testing.T, raw []byte) []any {
	t.Helper()
	tr, err := NewTranscriptReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	h := tr.Header()
	h.Gzip = false // compression is transport, not content
	frames := []any{h}
	for {
		rf, ff, err := tr.Next()
		if err == io.EOF {
			return frames
		}
		if err != nil {
			t.Fatal(err)
		}
		if rf != nil {
			frames = append(frames, *rf)
		}
		if ff != nil {
			frames = append(frames, *ff)
		}
	}
}

func TestTranscriptCorruptionDetected(t *testing.T) {
	g := ring(t, 5)
	raw := runTranscript(t, g, WithSeed(5), WithEngine(EngineGoroutine))

	// Flip one byte beyond the header frame: some frame's crc must fail.
	bad := bytes.Clone(raw)
	bad[len(bad)/2] ^= 0x40
	tr, err := NewTranscriptReader(bytes.NewReader(bad))
	if err == nil {
		for {
			_, _, err = tr.Next()
			if err != nil {
				break
			}
		}
	}
	if err == nil || err == io.EOF {
		t.Errorf("corrupted transcript read cleanly")
	}

	if _, err := NewTranscriptReader(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("bad magic accepted")
	}
}

// allocatedBy returns the bytes the heap allocated while f ran, read from
// runtime/metrics, which unlike ReadMemStats does not stop the world (so
// the fuzzers can call it on every input). Small objects count when their
// span is handed to the allocating P, so the figure runs at most a few spans
// high.
func allocatedBy(f func()) uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	f()
	metrics.Read(s)
	return s[0].Value.Uint64() - before
}

// TestDecodersBoundAllocationByInput: a length prefix is only a claim. A
// 10-byte checkpoint declaring a 2³⁴-byte body and a short transcript whose
// header frame declares 2³⁰ bytes must each fail with an error after
// allocating memory in proportion to the input, not to the claim.
func TestDecodersBoundAllocationByInput(t *testing.T) {
	const limit = 1 << 20
	cp := binary.AppendUvarint([]byte("MMCP\x01"), 1<<34)
	if len(cp) != 10 {
		t.Fatalf("crafted checkpoint is %d bytes, want 10", len(cp))
	}
	var err error
	if n := allocatedBy(func() { _, err = ReadCheckpoint(bytes.NewReader(cp)) }); n >= limit {
		t.Errorf("ReadCheckpoint allocated %d bytes for a %d-byte input", n, len(cp))
	}
	if err == nil {
		t.Error("ReadCheckpoint accepted a checkpoint with a missing body")
	}

	tr := append([]byte("MMTR"), TranscriptVersion, 0, frameHeader)
	tr = binary.AppendUvarint(tr, 1<<30)
	tr = append(tr, "short"...)
	if n := allocatedBy(func() { _, err = NewTranscriptReader(bytes.NewReader(tr)) }); n >= limit {
		t.Errorf("NewTranscriptReader allocated %d bytes for a %d-byte input", n, len(tr))
	}
	if err == nil {
		t.Error("NewTranscriptReader accepted a truncated header frame")
	}
}

// TestDecodersReadMultiChunkBodies: bodies longer than readBody's first
// chunk — a 2·10⁴-node round frame and checkpoint — still decode exactly.
func TestDecodersReadMultiChunkBodies(t *testing.T) {
	g := ring(t, 20_000)
	var cps []*Checkpoint
	spec := &CheckpointSpec{At: []int{2}, Sink: collectCheckpoints(&cps)}
	raw, want, err := runStepTranscript(t, g, ckptProgram(4), WithSeed(3), WithCheckpoints(spec))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTranscriptReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	widest := 0
	for {
		rf, _, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if rf != nil {
			widest = max(widest, len(rf.Nodes))
		}
	}
	if widest*8 <= firstChunk { // every inbox digest is 8 bytes on the wire
		t.Errorf("widest round frame names only %d inboxes, want a frame longer than one chunk", widest)
	}

	var buf bytes.Buffer
	if len(cps) != 1 {
		t.Fatalf("%d checkpoints captured, want 1", len(cps))
	}
	if _, err := cps[0].WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() <= 2*firstChunk {
		t.Fatalf("checkpoint is %d bytes, want more than two chunks", buf.Len())
	}
	cp, err := ReadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Resume(g, ckptProgram(4), cp)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Results, want.Results) || got.Metrics != want.Metrics {
		t.Error("run resumed from the decoded checkpoint differs from the uninterrupted run")
	}
}

// TestTranscriptMetricsCoverEveryField pins the wire encoding to the struct:
// a Metrics field added without extending appendMetrics/decodeMetrics (and
// bumping transcriptMetricsFields) fails here instead of silently vanishing
// from transcripts.
func TestTranscriptMetricsCoverEveryField(t *testing.T) {
	if n := reflect.TypeOf(Metrics{}).NumField(); n != transcriptMetricsFields {
		t.Fatalf("Metrics has %d fields, transcript encodes %d — extend appendMetrics/decodeMetrics and bump transcriptMetricsFields", n, transcriptMetricsFields)
	}
	var m Metrics
	fillDistinct(&m, 7)
	b := appendMetrics(nil, &m)
	var got Metrics
	d := frameDecoder{b: b}
	decodeMetrics(&d, &got)
	if d.err != nil || len(d.b) != 0 {
		t.Fatalf("decode err=%v, %d bytes left", d.err, len(d.b))
	}
	if got != m {
		t.Errorf("metrics round-trip: got %+v, want %+v", got, m)
	}
}

// scanFrames walks an uncompressed transcript's raw bytes independently of
// TranscriptReader, returning the byte offset where each frame starts plus
// the decoded round of round frames (-1 for header/final). It is the
// test-side reimplementation the stitching tests cut transcripts with.
func scanFrames(t *testing.T, raw []byte) (offsets []int, roundsOf []int) {
	t.Helper()
	if len(raw) < 6 || string(raw[:4]) != transcriptMagic || raw[5]&tflagGzip != 0 {
		t.Fatalf("not a plain transcript")
	}
	off := 6
	for off < len(raw) {
		offsets = append(offsets, off)
		kind := raw[off]
		size, n := binary.Uvarint(raw[off+1:])
		if n <= 0 {
			t.Fatalf("bad frame length at offset %d", off)
		}
		body := raw[off+1+n : off+1+n+int(size)]
		if kind == frameRound {
			r, _ := binary.Uvarint(body)
			roundsOf = append(roundsOf, int(r))
		} else {
			roundsOf = append(roundsOf, -1)
		}
		off += 1 + n + int(size) + 4
	}
	if off != len(raw) {
		t.Fatalf("trailing garbage: %d bytes", len(raw)-off)
	}
	return offsets, roundsOf
}

// FuzzTranscriptReader feeds arbitrary bytes to the MMTR reader. The
// contract: NewTranscriptReader and Next return an error (io.EOF at the
// end), never panic, and allocate in proportion to the bytes present — the
// input itself, or for a gzip stream its decompressed bytes — never to a
// length or count the stream merely claims. The committed corpus under
// testdata/fuzz/FuzzTranscriptReader holds the plain and gzip transcripts
// of a small faulted census, written by
//
//	mmnet -graph ring:12 -algo census -seed 3 \
//	    -faults 'seed:5;delay:*@2-10/d2/p0.3;jam:1-8' -transcript census.mmtr[.gz]
func FuzzTranscriptReader(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		present := len(in)
		if len(in) > 6 && in[5]&tflagGzip != 0 {
			present = 6 + gunzippedLen(in[6:])
		}
		frames := 0
		var err error
		n := allocatedBy(func() {
			var tr *TranscriptReader
			if tr, err = NewTranscriptReader(bytes.NewReader(in)); err != nil {
				return
			}
			for {
				if _, _, err = tr.Next(); err != nil {
					return
				}
				frames++
			}
		})
		if err == nil {
			t.Fatal("reader ended without an error or io.EOF")
		}
		if limit := 1<<20 + 64*uint64(present); n > limit {
			t.Errorf("reading %d frames from %d bytes present allocated %d bytes (limit %d)", frames, present, n, limit)
		}
	})
}

// gunzippedLen returns how many bytes a (possibly damaged) gzip stream
// decompresses to before its first error.
func gunzippedLen(b []byte) int {
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		return 0
	}
	n, _ := io.Copy(io.Discard, zr)
	return int(n)
}
