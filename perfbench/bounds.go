package main

import (
	"math"

	"validity/internal/churn"
	"validity/internal/graph"
	"validity/internal/sim"
)

// The benchmark judges every answer against Single-Site Validity bounds it
// computes itself from the graph and its own churn timelines, without
// calling internal/oracle. An answer is correct when it equals q(H) for
// some H with H_C ⊆ H ⊆ H_U over the query interval [0, T]:
//
//   - H_U is every host alive at some instant of [0, T]. The workloads
//     only schedule departures, so that is every host present at tick 0:
//     a host whose leave tick is ≥ 0, or that never leaves.
//   - H_C is every host present throughout [0, T] (no leave tick ≤ T)
//     that reaches h_q along a path of such hosts.

// hostSets holds membership masks of H_C and H_U for one query.
type hostSets struct {
	hc, hu   []bool
	nHC, nHU int
}

// boundSets computes H_C and H_U for a query issued at hq with deadline T
// under a departures-only timeline.
func boundSets(g *graph.Graph, hq graph.HostID, tl churn.Timeline, T sim.Time) hostSets {
	n := g.Len()
	leave := make([]sim.Time, n)
	for i := range leave {
		leave[i] = math.MaxInt64
	}
	for _, e := range tl {
		if e.T < leave[e.H] {
			leave[e.H] = e.T
		}
	}
	s := hostSets{hc: make([]bool, n), hu: make([]bool, n)}
	for h := 0; h < n; h++ {
		if leave[h] >= 0 {
			s.hu[h] = true
			s.nHU++
		}
	}
	stable := func(h graph.HostID) bool { return leave[h] > T }
	if !stable(hq) {
		return s
	}
	queue := []graph.HostID{hq}
	s.hc[hq] = true
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		for _, nb := range g.Neighbors(h) {
			if !s.hc[nb] && stable(nb) {
				s.hc[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	for _, in := range s.hc {
		if in {
			s.nHC++
		}
	}
	return s
}

// countSigmas is how many FM standard errors (in log space) a COUNT
// estimate may stray from the true |H|. The Flajolet–Martin estimate with
// c bit-vectors has relative standard error 0.78/√c; ln(estimate/|H|) is
// close to normal with that deviation, so six of them leave a two-sided
// normal tail of 2·10⁻⁹ per query.
const countSigmas = 6

// countFactor is the multiplicative tolerance f granted to an FM COUNT
// estimate with c bit-vectors: exp(6 · 0.78/√c), 1.795 at c = 64.
func countFactor(c int) float64 {
	return math.Exp(countSigmas * 0.78 / math.Sqrt(float64(c)))
}

// countValid reports whether an FM estimate v is within factor f of
// [|H_C|, |H_U|].
func countValid(v float64, s hostSets, f float64) bool {
	return float64(s.nHC)/f <= v && v <= float64(s.nHU)*f
}
