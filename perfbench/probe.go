package main

// probe.go holds the traced run's layer probes, which time one library
// query over the whole workload input, and the host facts every result is
// stamped with.

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/fault"
	"repro/internal/graph"
)

// probeCalls is the least number of calls a probe times; small topologies
// are swept repeatedly to reach it.
const probeCalls = 1 << 20

// probeSink keeps probe results alive so the compiler cannot drop the calls.
var probeSink int

// probeAdjacency times AdjAppend over every node and LinkIndex over every
// incident link, returning nanoseconds per call of each.
func probeAdjacency(g graph.Topology) (adjNs, linkNs float64) {
	n := g.N()
	var buf []graph.Half
	sweeps := max(1, probeCalls/n)
	start := time.Now()
	for range sweeps {
		for v := range n {
			buf = g.AdjAppend(graph.NodeID(v), buf[:0])
			probeSink += len(buf)
		}
	}
	adjNs = float64(time.Since(start).Nanoseconds()) / float64(sweeps*n)

	type link struct {
		v    graph.NodeID
		edge int32
	}
	var links []link
	for v := range n {
		buf = g.AdjAppend(graph.NodeID(v), buf[:0])
		for _, h := range buf {
			links = append(links, link{graph.NodeID(v), h.EdgeID})
		}
	}
	sweeps = max(1, probeCalls/len(links))
	start = time.Now()
	for range sweeps {
		for _, l := range links {
			i, _ := g.LinkIndex(l.v, int(l.edge))
			probeSink += i
		}
	}
	linkNs = float64(time.Since(start).Nanoseconds()) / float64(sweeps*len(links))
	return adjNs, linkNs
}

// probeMsgFate times Injector.MsgFate for a message in each direction of
// every edge, spreading the delivery rounds over 1..rounds, and returns
// nanoseconds per call. A nil injector (a fault-free workload) times the
// fault layer's off path.
func probeMsgFate(inj *fault.Injector, g graph.Topology, rounds int) float64 {
	m := g.M()
	ends := make([][2]graph.NodeID, m)
	for id := range m {
		e := g.Edge(id)
		ends[id] = [2]graph.NodeID{e.U, e.V}
	}
	rounds = max(rounds, 1)
	sweeps := max(1, probeCalls/(2*m))
	start := time.Now()
	for range sweeps {
		for id, e := range ends {
			round := 1 + id%rounds
			f1, lag1 := inj.MsgFate(id, e[0], e[1], round)
			f2, lag2 := inj.MsgFate(id, e[1], e[0], round)
			probeSink += int(f1) + lag1 + int(f2) + lag2
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(sweeps*2*m)
}

// shape is the host a result was measured on. Results of different shapes
// are not comparable.
type shape struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"workers"`
}

func hostShape() shape {
	return shape{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers:    workers,
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
