package main

// workloads.go defines the three workloads: their inputs, derived from the
// workload seed, the reference answers every operation is checked against,
// and one pass of operations each.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"

	"repro/internal/fault"
	"repro/internal/forest"
	"repro/internal/globalfunc"
	"repro/internal/graph"
	"repro/internal/mst"
	"repro/internal/partition"
	"repro/internal/sim"
	"repro/internal/size"
)

// sizes scales the workloads. The timed section runs fullSizes; set-up warms
// the same code paths on warmSizes.
type sizes struct {
	randomN, randomExtra int // pipelines-random: nodes, and chords beyond a spanning tree
	torusSide            int // census-torus: torus:SIDExSIDE
	chaosSide            int // census-chaos-io: torus:SIDExSIDE
	ckptEvery            int // census-chaos-io: rounds between checkpoint captures
	keepCapture          int // census-chaos-io: the capture (1-based) the resume check restores
}

var (
	fullSizes = sizes{randomN: 2000, randomExtra: 4000, torusSide: 1000, chaosSide: 500, ckptEvery: 250, keepCapture: 3}
	warmSizes = sizes{randomN: 200, randomExtra: 400, torusSide: 300, chaosSide: 150, ckptEvery: 75, keepCapture: 3}
)

// chaosPlan delays a fifth of all messages by two rounds and jams half the
// channel slots. It has no dup rule: sustained duplication wedges the
// census to ErrMaxRounds (see README.md).
const chaosPlan = "delay:*@1-/d2/p0.2;jam:1-/p0.5"

// seeds are the library inputs derived from the workload seed.
type seeds struct{ graph, proto, fault, input int64 }

func deriveSeeds(seed int64) seeds {
	return seeds{
		graph: mix(seed, 1),
		proto: mix(seed, 2),
		fault: mix(seed, 3),
		input: mix(seed, 4),
	}
}

// mix is a splitmix64 finalizer over (seed, salt), kept non-negative.
func mix(seed int64, salt uint64) int64 {
	x := uint64(seed) + salt*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// instance is one workload's generated inputs and reference answers.
type instance interface {
	pass(r *runner)
}

// workload names a set of inputs and how to build them.
type workload struct {
	name string
	// topo builds the topology the operations run on.
	topo func(s seeds, z sizes) (graph.Topology, error)
	// plan is the fault-plan DSL ("" for a fault-free workload).
	plan string
	// build computes the reference answers for one topology.
	build func(g graph.Topology, s seeds, z sizes, plan *fault.Plan) (instance, error)
}

var workloads = []workload{
	{
		name: "pipelines-random",
		topo: func(s seeds, z sizes) (graph.Topology, error) {
			return graph.RandomConnected(z.randomN, z.randomExtra, s.graph)
		},
		build: buildPipelines,
	},
	{
		name: "census-torus",
		topo: func(s seeds, z sizes) (graph.Topology, error) {
			return graph.ImplicitTorus(z.torusSide, z.torusSide, s.graph)
		},
		build: func(g graph.Topology, s seeds, _ sizes, _ *fault.Plan) (instance, error) {
			return &censusTorus{g: g, s: s, wantN: g.N()}, nil
		},
	},
	{
		name: "census-chaos-io",
		topo: func(s seeds, z sizes) (graph.Topology, error) {
			return graph.ImplicitTorus(z.chaosSide, z.chaosSide, s.graph)
		},
		plan: chaosPlan,
		build: func(g graph.Topology, s seeds, z sizes, plan *fault.Plan) (instance, error) {
			return &censusChaos{g: g, s: s, plan: plan, every: z.ckptEvery, keep: z.keepCapture, wantN: g.N()}, nil
		},
	},
}

func findWorkload(name string) (workload, bool) {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
	if i < 0 {
		return workload{}, false
	}
	return workloads[i], true
}

// pipelinesRandom runs the paper's three pipelines on one random graph.
type pipelinesRandom struct {
	g       graph.Topology
	s       seeds
	inputs  globalfunc.Inputs
	wantSum int64
	wantMST []int
	wantN   int
}

func buildPipelines(g graph.Topology, s seeds, _ sizes, _ *fault.Plan) (instance, error) {
	w := &pipelinesRandom{g: g, s: s, wantN: g.N()}
	w.inputs = func(v graph.NodeID) int64 { return mix(s.input, uint64(v)) % 1000 }
	w.wantSum = globalfunc.Reference(g, globalfunc.Sum, w.inputs)
	ref, err := graph.Kruskal(g)
	if err != nil {
		return nil, err
	}
	w.wantMST = ref.EdgeIDs
	return w, nil
}

func (w *pipelinesRandom) pass(r *runner) {
	t := r.t
	// §5: partition, then local convergecast and Capetanakis scheduling.
	r.op("sum", func() (*sim.Metrics, error) {
		var res *globalfunc.Result
		d, err := t.call("globalfunc.Multimedia", func() (err error) {
			res, err = globalfunc.Multimedia(w.g, w.s.proto, globalfunc.Sum, w.inputs,
				globalfunc.VariantDeterministic, globalfunc.StageCapetanakis)
			return err
		}, "partition.run", "globalfunc.compute")
		if err != nil {
			return nil, err
		}
		r.set("globalfunc.wall_s", d)
		r.set("globalfunc.compute_wall_s", t.lastRunSeconds("globalfunc.compute"))
		r.set("globalfunc.compute_rounds", float64(res.Compute.Rounds))
		r.set("globalfunc.compute_messages", float64(res.Compute.Messages))
		if res.Value != w.wantSum {
			return &res.Total, fmt.Errorf("global sum %d, reference %d", res.Value, w.wantSum)
		}
		return &res.Total, nil
	})
	// §6: mst.Multimedia split at its layer boundary.
	r.op("mst", func() (*sim.Metrics, error) {
		var (
			f    *forest.Forest
			pm   *sim.Metrics
			info *partition.DeterministicInfo
		)
		d, err := t.call("partition.Deterministic", func() (err error) {
			f, pm, info, err = partition.Deterministic(w.g, w.s.proto)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.set("partition.wall_s", d)
		r.set("partition.rounds", float64(pm.Rounds))
		r.set("partition.messages", float64(pm.Messages))
		r.set("partition.slots", float64(slots(pm)))
		r.set("partition.phases", float64(info.Phases))
		r.set("partition.trees", float64(f.Trees()))
		var res *mst.Result
		d, err = t.call("mst.MultimediaFromForest", func() (err error) {
			res, err = mst.MultimediaFromForest(w.g, w.s.proto, f, pm)
			return err
		}, "mst.merge")
		if err != nil {
			return nil, err
		}
		r.set("mst.merge_wall_s", d)
		r.set("mst.merge_rounds", float64(res.Merge.Rounds))
		r.set("mst.merge_messages", float64(res.Merge.Messages))
		r.set("mst.phases", float64(res.Phases))
		if !slices.Equal(res.MST.EdgeIDs, w.wantMST) {
			return &res.Total, fmt.Errorf("MST of %d edges differs from Kruskal's %d", len(res.MST.EdgeIDs), len(w.wantMST))
		}
		return &res.Total, nil
	})
	// §7.3: exact count.
	r.op("count", func() (*sim.Metrics, error) {
		var res *size.ExactResult
		d, err := t.call("size.Exact", func() (err error) {
			res, err = size.Exact(w.g, w.s.proto, 0)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.set("size.exact_wall_s", d)
		r.set("size.exact_rounds", float64(res.Metrics.Rounds))
		if res.N != w.wantN {
			return &res.Metrics, fmt.Errorf("counted %d nodes, want %d", res.N, w.wantN)
		}
		return &res.Metrics, nil
	})
}

// censusTorus runs the native census on an implicit torus.
type censusTorus struct {
	g     graph.Topology
	s     seeds
	wantN int
}

func (w *censusTorus) pass(r *runner) {
	r.op("census", func() (*sim.Metrics, error) {
		var res *size.CensusResult
		d, err := r.t.call("size.Census", func() (err error) {
			res, err = size.Census(w.g, w.s.proto)
			return err
		})
		if err != nil {
			return nil, err
		}
		r.set("size.census_wall_s", d)
		if res.N != w.wantN {
			return &res.Metrics, fmt.Errorf("census counted %d nodes, want %d", res.N, w.wantN)
		}
		return &res.Metrics, nil
	})
}

// censusChaos runs the census under the fault plan while streaming a
// transcript and checkpoints into memory, then resumes from one capture.
type censusChaos struct {
	g           graph.Topology
	s           seeds
	plan        *fault.Plan
	every, keep int
	wantN       int
}

// counter is an io.Writer that keeps only the byte count: captures and
// transcripts never reach the disk.
type counter struct{ n int64 }

func (c *counter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

func (w *censusChaos) pass(r *runner) {
	t := r.t
	n := w.wantN
	var (
		census *size.CensusResult
		kept   []byte
	)
	r.op("census", func() (*sim.Metrics, error) {
		var transcript, ckpt counter
		tw := sim.NewTranscriptWriter(&transcript, false)
		captures, encode := 0, 0.0
		spec := &sim.CheckpointSpec{Every: w.every, Sink: func(cp *sim.Checkpoint) error {
			captures++
			var dst io.Writer = &ckpt
			var buf bytes.Buffer
			if captures == w.keep {
				dst = io.MultiWriter(&ckpt, &buf)
			}
			d, err := t.call("io.Checkpoint.WriteTo", func() error {
				_, err := cp.WriteTo(dst)
				return err
			})
			encode += d
			if captures == w.keep {
				kept = buf.Bytes()
			}
			return err
		}}
		closeBefore := r.rec.closeNs
		d, err := t.call("size.Census", func() (err error) {
			census, err = size.Census(w.g, w.s.proto,
				sim.WithFaults(w.plan), sim.WithTranscript(tw), sim.WithCheckpoints(spec))
			return err
		})
		if err != nil {
			return nil, err
		}
		dc, err := t.call("io.TranscriptWriter.Close", tw.Close)
		if err != nil {
			return nil, err
		}
		m := &census.Metrics
		r.set("size.census_wall_s", d)
		r.set("sim.transcript_bytes", float64(transcript.n))
		r.set("sim.transcript_bytes_per_round", ratio(float64(transcript.n), float64(m.Rounds)))
		r.set("sim.transcript_write_s", float64(r.rec.closeNs-closeBefore)/1e9+dc)
		r.set("sim.checkpoint_captures", float64(captures))
		r.set("sim.checkpoint_encode_s", encode)
		r.set("sim.checkpoint_bytes_per_node", ratio(float64(ckpt.n), float64(captures*w.g.N())))
		if census.N != n {
			return m, fmt.Errorf("census under faults counted %d nodes, want %d", census.N, n)
		}
		if captures < w.keep {
			return m, fmt.Errorf("run ended after %d checkpoint captures, before capture %d", captures, w.keep)
		}
		return m, nil
	})
	// The resumed run replays the tail of the census above, so its counts
	// are checked equal to the census's instead of being added to the pass.
	r.op("resume", func() (*sim.Metrics, error) {
		if census == nil || kept == nil {
			return nil, errors.New("no mid-run capture to resume from")
		}
		var cp *sim.Checkpoint
		d, err := t.call("io.ReadCheckpoint", func() (err error) {
			cp, err = sim.ReadCheckpoint(bytes.NewReader(kept))
			return err
		})
		if err != nil {
			return nil, err
		}
		r.set("sim.checkpoint_read_s", d)
		ones := func(graph.NodeID) int64 { return 1 }
		var res *sim.Result
		d, err = t.call("io.Resume", func() (err error) {
			res, err = sim.Resume(w.g, globalfunc.P2PStepProgram(globalfunc.Sum, ones), cp)
			return err
		}, "size.run")
		if err != nil {
			return nil, err
		}
		r.set("sim.resume_s", d)
		for v, got := range res.Results {
			if got != any(int64(n)) {
				return nil, fmt.Errorf("resumed node %d counted %v, want %d", v, got, n)
			}
		}
		if res.Metrics != census.Metrics {
			return nil, fmt.Errorf("resumed metrics %+v differ from the uninterrupted run's %+v", res.Metrics, census.Metrics)
		}
		return nil, nil
	})
}

// slots is every channel slot a run resolved, jammed ones included.
func slots(m *sim.Metrics) int64 {
	return m.SlotsIdle + m.SlotsSuccess + m.SlotsCollision + m.SlotsJammed
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
