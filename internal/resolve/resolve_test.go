package resolve

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/graph"
	"repro/internal/sim"
)

// runComponent runs one component per node of an n-node ring, as a whole
// run on both engines (see runBothEngines), and returns the step engine's
// run. mk builds a node's component and the value the node records when the
// component finishes.
func runComponent(t *testing.T, n int, seed int64, mk func(c sim.Node) (Component, func() any)) *sim.Result {
	t.Helper()
	g, err := graph.Ring(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	return runBothEngines(t, g, seed, func(c sim.Node) sim.Machine { return Machine(mk(c)) })
}

func schedIDs(s []ScheduledItem) []int {
	ids := make([]int, len(s))
	for i, it := range s {
		ids[i] = it.ID
	}
	return ids
}

func TestCapetanakisSchedulesAllContenders(t *testing.T) {
	tests := []struct {
		name       string
		n          int
		contenders []int
	}{
		{"none", 8, nil},
		{"single", 8, []int{3}},
		{"two adjacent ids", 8, []int{4, 5}},
		{"all", 8, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{"sparse", 16, []int{0, 7, 15}},
		{"extremes", 16, []int{0, 15}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			isC := make(map[int]bool)
			for _, c := range tt.contenders {
				isC[c] = true
			}
			res := runComponent(t, tt.n, 1, func(c sim.Node) (Component, func() any) {
				id := int(c.ID())
				s := NewCapetanakisStep(c, c.N(), isC[id], id, fmt.Sprintf("p%d", id), 0)
				return s, func() any { return schedIDs(s.Sched) }
			})
			// The schedule must contain exactly the contenders; order is
			// protocol-determined but identical everywhere.
			got := res.Results[0].([]int)
			for v := 1; v < tt.n; v++ {
				if !reflect.DeepEqual(res.Results[v], got) {
					t.Fatalf("node %d schedule %v != node 0 schedule %v", v, res.Results[v], got)
				}
			}
			sorted := append([]int{}, got...)
			sort.Ints(sorted)
			want := append([]int{}, tt.contenders...)
			sort.Ints(want)
			if fmt.Sprint(sorted) != fmt.Sprint(want) {
				t.Errorf("scheduled ids = %v, want %v", sorted, want)
			}
		})
	}
}

func TestCapetanakisPayloadsDelivered(t *testing.T) {
	res := runComponent(t, 8, 1, func(c sim.Node) (Component, func() any) {
		id := int(c.ID())
		s := NewCapetanakisStep(c, c.N(), id == 2 || id == 6, id, id*100, 0)
		return s, func() any {
			sum := 0
			for _, it := range s.Sched {
				sum += it.Payload.(int)
			}
			return sum
		}
	})
	for v, r := range res.Results {
		if r != 800 {
			t.Errorf("node %d payload sum = %v, want 800", v, r)
		}
	}
}

func TestCapetanakisSlotBound(t *testing.T) {
	// With k contenders out of n ids the tree algorithm uses
	// O(k log(n/k) + k) slots; check a generous concrete bound.
	n := 64
	for _, k := range []int{1, 4, 16, 64} {
		isC := func(id int) bool { return id%(n/k) == 0 }
		res := runComponent(t, n, 1, func(c sim.Node) (Component, func() any) {
			id := int(c.ID())
			return NewCapetanakisStep(c, c.N(), isC(id), id, nil, 0), func() any { return nil }
		})
		slots := res.Metrics.Rounds
		bound := 4*k*(1+int(math.Log2(float64(n/k)+1))) + 8
		if slots > bound {
			t.Errorf("k=%d: %d slots exceeds bound %d", k, slots, bound)
		}
	}
}

func TestCapetanakisBudget(t *testing.T) {
	// A one-slot budget cannot resolve a collision: every node gives up
	// after the first slot with an incomplete schedule.
	res := runComponent(t, 8, 1, func(c sim.Node) (Component, func() any) {
		s := NewCapetanakisStep(c, c.N(), true, int(c.ID()), nil, 1)
		return s, func() any { return [2]int{len(s.Sched), b2i(s.Complete)} }
	})
	for v, r := range res.Results {
		if r != [2]int{0, 0} {
			t.Errorf("node %d: (scheduled, complete) = %v, want [0 0]", v, r)
		}
	}
	if res.Metrics.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", res.Metrics.Rounds)
	}
}

func TestMetcalfeBoggsSchedulesAll(t *testing.T) {
	for _, k := range []int{0, 1, 3, 10} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			res := runComponent(t, 16, 42, func(c sim.Node) (Component, func() any) {
				id := int(c.ID())
				s := NewMetcalfeBoggsStep(c, k, id < k, id, id, 0)
				return s, func() any {
					if !s.Done {
						c.Failf("unbounded MB reported not done")
					}
					ids := schedIDs(s.Sched)
					sort.Ints(ids)
					return fmt.Sprint(ids)
				}
			})
			want := make([]int, k)
			for i := range want {
				want[i] = i
			}
			for v, r := range res.Results {
				if r != fmt.Sprint(want) {
					t.Errorf("node %d schedule %v, want %v", v, r, want)
				}
			}
		})
	}
}

func TestMetcalfeBoggsExpectedLinear(t *testing.T) {
	// Average slot pairs over seeds should be within a small constant of k.
	n, k := 64, 32
	total := 0
	const seeds = 10
	for s := int64(0); s < seeds; s++ {
		res := runComponent(t, n, s, func(c sim.Node) (Component, func() any) {
			id := int(c.ID())
			return NewMetcalfeBoggsStep(c, k, id < k, id, nil, 0), func() any { return nil }
		})
		total += res.Metrics.Rounds
	}
	avgPairs := float64(total) / seeds / 2
	if avgPairs > 8*float64(k) {
		t.Errorf("avg pairs %.1f > 8k = %d", avgPairs, 8*k)
	}
}

func TestMetcalfeBoggsBounded(t *testing.T) {
	// With a 1-pair budget and many contenders, done must be false (w.h.p.
	// there is a collision, and certainly not all 8 can be scheduled).
	res := runComponent(t, 16, 7, func(c sim.Node) (Component, func() any) {
		id := int(c.ID())
		s := NewMetcalfeBoggsStep(c, 8, id < 8, id, nil, 1)
		return s, func() any { return s.Done }
	})
	for v, r := range res.Results {
		if r != false {
			t.Errorf("node %d: done = %v, want false", v, r)
		}
	}
}

func TestElection(t *testing.T) {
	tests := []struct {
		name       string
		contenders []int
		wantLeader int
		wantOK     bool
	}{
		{"none", nil, 0, false},
		{"single", []int{5}, 5, true},
		{"pair", []int{3, 11}, 11, true},
		{"max id", []int{0, 7, 15}, 15, true},
		{"zero only", []int{0}, 0, true},
		{"all", []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, 15, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			isC := make(map[int]bool)
			for _, c := range tt.contenders {
				isC[c] = true
			}
			res := runComponent(t, 16, 1, func(c sim.Node) (Component, func() any) {
				id := int(c.ID())
				e := NewElectionStep(c, c.N(), isC[id], id)
				return e, func() any { return [2]int{e.Leader, b2i(e.OK)} }
			})
			for v, r := range res.Results {
				got := r.([2]int)
				if got[1] != b2i(tt.wantOK) {
					t.Fatalf("node %d ok = %d, want %v", v, got[1], tt.wantOK)
				}
				if tt.wantOK && got[0] != tt.wantLeader {
					t.Fatalf("node %d leader = %d, want %d", v, got[0], tt.wantLeader)
				}
			}
		})
	}
}

func TestElectionSlotCount(t *testing.T) {
	// 1 liveness slot + ⌈log2 n⌉ bit slots, plus the trailing round in
	// which the nodes halt.
	res := runComponent(t, 32, 1, func(c sim.Node) (Component, func() any) {
		return NewElectionStep(c, c.N(), true, int(c.ID())), func() any { return nil }
	})
	if res.Metrics.Rounds != 1+5+1 {
		t.Errorf("rounds = %d, want 7", res.Metrics.Rounds)
	}
}

func TestGreenbergLadnerEstimate(t *testing.T) {
	// Median estimate across seeds should be within a constant factor of n.
	for _, n := range []int{16, 64, 256} {
		var ratios []float64
		for s := int64(0); s < 21; s++ {
			res := runComponent(t, n, s, func(c sim.Node) (Component, func() any) {
				gl := NewGreenbergLadnerStep(c, true)
				return gl, func() any { return gl.Estimate }
			})
			est := res.Results[0].(int64)
			for v := 1; v < n; v++ {
				if res.Results[v] != est {
					t.Fatalf("nodes disagree on the estimate")
				}
			}
			ratios = append(ratios, float64(est)/float64(n))
		}
		sort.Float64s(ratios)
		med := ratios[len(ratios)/2]
		if med < 1.0/16 || med > 16 {
			t.Errorf("n=%d: median estimate ratio %.3f outside [1/16, 16]", n, med)
		}
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
