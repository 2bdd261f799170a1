package main

import (
	"math"
	rtm "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// quantile returns the exact nearest-rank q-quantile of xs: the smallest
// sample x such that at least q·len(xs) samples are ≤ x. No interpolation
// and no histogram buckets — every reported latency is one measured
// duration. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the nearest-rank 0.5-quantile; with an odd count it is the
// middle sample.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system CPU time so far (getrusage).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Go runtime counters read through runtime/metrics.
const (
	mAllocBytes = "/gc/heap/allocs:bytes"
	mGCCycles   = "/gc/cycles/total:gc-cycles"
	mGCCPU      = "/cpu/classes/gc/total:cpu-seconds"
	mHeapInUse  = "/memory/classes/heap/objects:bytes"
)

// usage is one reading of the process-wide cost counters a timed phase is
// charged with.
type usage struct {
	wall     time.Time
	cpu      time.Duration
	alloc    uint64
	gcCycles uint64
	gcCPU    float64
}

func readUsage() usage {
	s := []rtm.Sample{{Name: mAllocBytes}, {Name: mGCCycles}, {Name: mGCCPU}}
	rtm.Read(s)
	return usage{
		wall:     time.Now(),
		cpu:      cpuTime(),
		alloc:    s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
	}
}

// phaseCost is the difference of two usage readings.
type phaseCost struct {
	wall     time.Duration
	cpu      time.Duration
	alloc    uint64
	gcCycles uint64
	gcCPU    float64 // seconds
}

func (u usage) since(start usage) phaseCost {
	return phaseCost{
		wall:     u.wall.Sub(start.wall),
		cpu:      u.cpu - start.cpu,
		alloc:    u.alloc - start.alloc,
		gcCycles: u.gcCycles - start.gcCycles,
		gcCPU:    u.gcCPU - start.gcCPU,
	}
}

// sampler polls a set of gauges every interval and keeps each one's
// maximum, until stop is called. The heap-in-use gauge is always among
// them; traced runs add the engine's shard-queue depth.
type sampler struct {
	probes []func() float64
	max    []float64
	quit   chan struct{}
	done   sync.WaitGroup
}

func heapInUse() float64 {
	s := []rtm.Sample{{Name: mHeapInUse}}
	rtm.Read(s)
	return float64(s[0].Value.Uint64())
}

func startSampler(every time.Duration, probes ...func() float64) *sampler {
	s := &sampler{probes: probes, max: make([]float64, len(probes)), quit: make(chan struct{})}
	s.poll()
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		tk := time.NewTicker(every)
		defer tk.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tk.C:
				s.poll()
			}
		}
	}()
	return s
}

func (s *sampler) poll() {
	for i, p := range s.probes {
		if v := p(); v > s.max[i] {
			s.max[i] = v
		}
	}
}

// stop ends polling and returns each probe's maximum.
func (s *sampler) stop() []float64 {
	close(s.quit)
	s.done.Wait()
	s.poll()
	return s.max
}
