package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"

	"validity/internal/agg"
	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/oracle"
	"validity/internal/sim"
	"validity/internal/topology"
)

// bruteQuantile is the nearest-rank definition read literally: the
// smallest sample x with at least ⌈q·n⌉ samples ≤ x.
func bruteQuantile(xs []float64, q float64) float64 {
	need := int(math.Ceil(q * float64(len(xs))))
	if need < 1 {
		need = 1
	}
	best := math.Inf(1)
	for _, x := range xs {
		n := 0
		for _, y := range xs {
			if y <= x {
				n++
			}
		}
		if n >= need && x < best {
			best = x
		}
	}
	return best
}

func TestQuantileIsExactOrderStatistic(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {1, 10}, {0.01, 1}, {0.95, 10}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v, want 2", got)
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, 1+rng.Intn(60))
		for i := range xs {
			xs[i] = float64(rng.Intn(20)) // ties on purpose
		}
		orig := append([]float64(nil), xs...)
		for _, q := range []float64{0.1, 0.5, 0.9, 0.99} {
			if got, want := quantile(xs, q), bruteQuantile(xs, q); got != want {
				t.Fatalf("quantile(%v, %v) = %v, want %v", xs, q, got, want)
			}
		}
		for i := range xs {
			if xs[i] != orig[i] {
				t.Fatal("quantile reordered its input")
			}
		}
	}
}

func pathGraph(n int, extra ...[2]int) *graph.Graph {
	g := graph.New(n)
	for i := 1; i < n; i++ {
		g.AddEdge(graph.HostID(i-1), graph.HostID(i))
	}
	for _, e := range extra {
		g.AddEdge(graph.HostID(e[0]), graph.HostID(e[1]))
	}
	g.SortAdjacency()
	return g
}

func members(mask []bool) []int {
	var out []int
	for h, in := range mask {
		if in {
			out = append(out, h)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Hand-worked graphs with known H_C and H_U, deadline T = 10.
func TestBoundSetsHandWorked(t *testing.T) {
	leave := func(h int, at sim.Time) churn.Event { return churn.Event{H: graph.HostID(h), T: at, Kind: churn.Leave} }
	cases := []struct {
		name   string
		g      *graph.Graph
		hq     int
		tl     churn.Timeline
		hc, hu []int
	}{
		{"static path", pathGraph(4), 0, nil, []int{0, 1, 2, 3}, []int{0, 1, 2, 3}},
		// 0-1-2-3-4: host 2 leaving cuts 3 and 4 off h_q = 0.
		{"cut path", pathGraph(5), 0, churn.Timeline{leave(2, 3)}, []int{0, 1}, []int{0, 1, 2, 3, 4}},
		// A chord 1-3 keeps 3 and 4 reachable through stable hosts.
		{"chord", pathGraph(5, [2]int{1, 3}), 0, churn.Timeline{leave(2, 3)}, []int{0, 1, 3, 4}, []int{0, 1, 2, 3, 4}},
		// Leaving at tick 0 still counts as present at the first instant;
		// leaving after the deadline is no departure within the query.
		{"edges of the interval", pathGraph(4), 3, churn.Timeline{leave(0, 0), leave(1, 11)}, []int{1, 2, 3}, []int{0, 1, 2, 3}},
		// A departing h_q has an empty H_C.
		{"hq leaves", pathGraph(3), 1, churn.Timeline{leave(1, 5)}, nil, []int{0, 1, 2}},
		// A host that leaves twice is judged by its first departure.
		{"repeat", pathGraph(3), 0, churn.Timeline{leave(2, 12), leave(2, 4)}, []int{0, 1}, []int{0, 1, 2}},
	}
	for _, c := range cases {
		s := boundSets(c.g, graph.HostID(c.hq), c.tl, 10)
		if got := members(s.hc); !equalInts(got, c.hc) || s.nHC != len(c.hc) {
			t.Errorf("%s: H_C = %v (n=%d), want %v", c.name, got, s.nHC, c.hc)
		}
		if got := members(s.hu); !equalInts(got, c.hu) || s.nHU != len(c.hu) {
			t.Errorf("%s: H_U = %v (n=%d), want %v", c.name, got, s.nHU, c.hu)
		}
	}
}

func TestCountCheck(t *testing.T) {
	// Path 0-1-2-3-4 with host 2 gone: H_C = {0, 1}, H_U = all.
	s := boundSets(pathGraph(5), 0, churn.Timeline{{H: 2, T: 3}}, 10)
	f := countFactor(64)
	if math.Abs(f-math.Exp(6*0.0975)) > 1e-12 {
		t.Errorf("countFactor(64) = %v", f)
	}
	for _, c := range []struct {
		v  float64
		ok bool
	}{{2 / f, true}, {2/f - 1e-9, false}, {5 * f, true}, {5*f + 1e-9, false}, {3.3, true}} {
		if got := countValid(c.v, s, f); got != c.ok {
			t.Errorf("countValid(%v) = %t, want %t", c.v, got, c.ok)
		}
	}
	// The 256-host static answer oracle.FMSlack(count, 64) = 1.39 rejects.
	full := hostSets{nHC: 256, nHU: 256}
	if !countValid(364.84, full, f) {
		t.Error("364.84 of 256 hosts at c = 64 is a correct FM estimate and must pass")
	}
}

// The bounds computed here agree with the program's own oracle on random
// graphs and departure schedules.
func TestBoundSetsMatchOracle(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g := topology.Generate(topology.Random, 120, seed)
		q := &queryGen{seed: seed, firstID: 1, hosts: 120, leave: 30, deadline: 14}
		s := q.spec(int(seed))
		values := make([]int64, 120)
		for i := range values {
			values[i] = int64(i*7919%1000 + 1)
		}
		mine := boundSets(g, s.hq, s.churn, q.deadline)
		b := oracle.Compute(g, values, s.hq, s.churn, q.deadline, agg.Count)
		if mine.nHC != len(b.HC) || mine.nHU != len(b.HU) {
			t.Fatalf("seed %d: |H_C|,|H_U| = %d,%d; oracle %d,%d", seed, mine.nHC, mine.nHU, len(b.HC), len(b.HU))
		}
	}
}

func TestQueryInputsDependOnlyOnSeedAndIndex(t *testing.T) {
	q := &queryGen{seed: 5, firstID: firstQueryID(5), hosts: 50, leave: 5, deadline: 14}
	a, b := q.spec(7), q.spec(7)
	if a.id != b.id || a.hq != b.hq || a.seed != b.seed || len(a.churn) != 5 {
		t.Fatalf("spec(7) not reproducible: %+v vs %+v", a, b)
	}
	for i := range a.churn {
		e := a.churn[i]
		if e != b.churn[i] || e.H == a.hq || e.T < 1 || e.T > 13 {
			t.Fatalf("bad departure %+v (hq %d)", e, a.hq)
		}
	}
	if q.spec(8).id != a.id+1 {
		t.Error("query ids are not consecutive")
	}
}

// benchmarkNames reads the metric names BENCHMARK.json declares.
func benchmarkNames(t *testing.T) (e2e, perLayer []string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, m := range b.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range b.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return e2e, perLayer
}

func metricNames(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sameNames(a, b []string) bool {
	a = append([]string(nil), a...)
	b = append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Tiny sizes of each workload run to their end, answer every query
// correctly, and report exactly the metrics BENCHMARK.json names.
func TestTinyWorkloads(t *testing.T) {
	e2e, perLayer := benchmarkNames(t)
	tiny := map[string]workload{
		"chan": &engineWorkload{hosts: 40, procs: 1, hop: 10 * time.Millisecond, vectors: 64, leaveShare: 0.1, inFlight: 2, bringUps: 3, warmup: 2},
		"tcp":  &engineWorkload{hosts: 20, procs: 2, hop: 10 * time.Millisecond, vectors: 64, inFlight: 2, bringUps: 3, warmup: 2, static: true},
	}
	for name, w := range tiny {
		for _, traced := range []bool{false, true} {
			rep, err := w.run(runOpts{seed: 3, duration: 300 * time.Millisecond, trace: traced})
			if err != nil {
				t.Fatalf("%s (trace %t): %v", name, traced, err)
			}
			if !rep.Correct || rep.Attempted == 0 || rep.Failed != 0 {
				t.Errorf("%s (trace %t): correct=%t attempted=%d failed=%d", name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			want := e2e
			if traced {
				want = perLayer
			}
			if got := metricNames(rep.Metrics); !sameNames(got, want) {
				t.Errorf("%s (trace %t): metrics %v, want %v", name, traced, got, want)
			}
		}
	}
}
