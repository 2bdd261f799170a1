package main

import (
	"fmt"
	"sort"

	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/zipfval"
)

// Every input of a run but the topology derives from the workload seed
// through splitmix64 streams: the attribute values, and per query index i
// the query id, querying host, protocol seed and churn timeline. Query i's
// inputs depend only on (seed, i), so a run of any length replays the
// same prefix of queries for the same seed. Each workload's topology is
// drawn from its own fixed topology seed (see pickTopology).

// splitmix is a splitmix64 generator: cheap to seed, so each query index
// can own its own stream without math/rand's 4.9 KiB seeding cost.
type splitmix struct{ s uint64 }

func newRand(seed int64, stream uint64) *splitmix {
	r := &splitmix{s: uint64(seed)*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03}
	r.next()
	return r
}

func (r *splitmix) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform integer in [0, n).
func (r *splitmix) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *splitmix) int63() int64 { return int64(r.next() >> 1) }

// Stream ids separating the uses of one workload seed.
const (
	streamTopology = 1
	streamValues   = 2
	streamIDs      = 3
	streamQuery    = 1 << 32 // + query index
)

// pickTopology draws random-topology seeds from seed until the generated
// |H|-host graph's diameter, as measured by diam, equals want (any
// diameter when want is 0), and returns the topology seed and the
// diameter. The query deadline is 2·D̂ with D̂ = diameter + 2, so pinning
// the diameter keeps every run on the same deadline.
func pickTopology(seed int64, hosts, want int, diam func(*graph.Graph) int) (int64, int, error) {
	r := newRand(seed, streamTopology)
	for try := 0; try < 64; try++ {
		ts := r.int63()
		if d := diam(topology.Generate(topology.Random, hosts, ts)); want == 0 || d == want {
			return ts, d, nil
		}
	}
	return 0, 0, fmt.Errorf("no %d-host random topology of diameter %d in 64 draws", hosts, want)
}

// attributeValues draws per-host values from the paper's §6.1
// distribution, Zipf over [10, 500].
func attributeValues(seed int64, hosts int) []int64 {
	return zipfval.Default(newRand(seed, streamValues).int63()).Values(hosts)
}

// firstQueryID is the id of query index 0; ids are consecutive from it.
func firstQueryID(seed int64) int64 {
	return 1 + int64(newRand(seed, streamIDs).intn(1<<20))
}

// querySpec is the input of one query.
type querySpec struct {
	index int
	id    int64
	hq    graph.HostID
	seed  int64
	churn churn.Timeline
}

// queryGen derives query inputs from the workload seed.
type queryGen struct {
	seed    int64
	firstID int64
	hosts   int
	// issuers are the hosts a query may be issued at (all hosts when nil).
	issuers []graph.HostID
	// leave is how many hosts depart inside each query, at ticks uniform
	// in [1, deadline-1]: every one of them is in H_U (present at tick 0)
	// and none in H_C (gone before the deadline).
	leave    int
	deadline sim.Time
}

func (q *queryGen) spec(i int) querySpec {
	r := newRand(q.seed, streamQuery+uint64(i))
	s := querySpec{index: i, id: q.firstID + int64(i), seed: r.int63()}
	if q.issuers != nil {
		s.hq = q.issuers[r.intn(len(q.issuers))]
	} else {
		s.hq = graph.HostID(r.intn(q.hosts))
	}
	if q.leave > 0 {
		// A partial Fisher–Yates shuffle picks q.leave distinct hosts
		// other than h_q.
		perm := make([]graph.HostID, 0, q.hosts-1)
		for h := 0; h < q.hosts; h++ {
			if graph.HostID(h) != s.hq {
				perm = append(perm, graph.HostID(h))
			}
		}
		s.churn = make(churn.Timeline, 0, q.leave)
		for k := 0; k < q.leave; k++ {
			j := k + r.intn(len(perm)-k)
			perm[k], perm[j] = perm[j], perm[k]
			t := 1 + sim.Time(r.intn(int(q.deadline)-1))
			s.churn = append(s.churn, churn.Event{H: perm[k], T: t, Kind: churn.Leave})
		}
		sortTimeline(s.churn)
	}
	return s
}

// sortTimeline orders events by tick, then host.
func sortTimeline(tl churn.Timeline) {
	sort.Slice(tl, func(i, j int) bool {
		if tl[i].T != tl[j].T {
			return tl[i].T < tl[j].T
		}
		return tl[i].H < tl[j].H
	})
}
