// Command perfbench runs one workload of the repository's benchmark and
// prints its result as one JSON line on standard output:
//
//	perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// With --trace 0 the line carries the end-to-end metrics, with --trace 1
// the per-layer ones. See README.md for the workloads, the metrics and the
// checks every answer goes through.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runOpts is what every workload is run with.
type runOpts struct {
	seed     int64
	duration time.Duration
	trace    bool
}

// workload runs one named workload at one size.
type workload interface {
	run(o runOpts) (*report, error)
}

// workloads are the benchmark's named workloads at their full size.
var workloads = map[string]workload{
	"chan256-count-churn": chanFull,
	"tcp60-count-static":  tcpFull,
}

func main() {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	name := flag.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := flag.Int64("seed", 1, "workload seed every input is generated from")
	seconds := flag.Float64("seconds", 10, "length of the timed phase in seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end ones")
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds > 0 and --trace 0 or 1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	rep, err := w.run(runOpts{seed: *seed, duration: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// Units of the reported metrics.
const (
	unitS     = "s"
	unitMs    = "ms"
	unitUs    = "us"
	unitNs    = "ns"
	unitRate  = "1/s"
	unitKiB   = "KiB"
	unitMiB   = "MiB"
	unitB     = "B"
	unitCount = "count"
	unitRatio = "ratio"
)

// endToEnd fills the metrics every workload reports with tracing off.
type endToEnd struct {
	setup     []time.Duration // one per bring-up
	latencies []float64       // ms, timed queries
	answered  int             // timed queries with an answer
	cost      phaseCost       // timed phase
	heapPeak  float64         // bytes
	messages  int64           // §6.3 messages of the timed queries
}

func (e *endToEnd) metrics() map[string]metric {
	setup := make([]float64, len(e.setup))
	for i, d := range e.setup {
		setup[i] = d.Seconds()
	}
	q := float64(e.answered)
	return map[string]metric{
		"setup_s":            {median(setup), unitS},
		"queries_per_s":      {q / e.cost.wall.Seconds(), unitRate},
		"latency_p50_ms":     {quantile(e.latencies, 0.5), unitMs},
		"latency_p90_ms":     {quantile(e.latencies, 0.9), unitMs},
		"cpu_ms_per_query":   {durMs(e.cost.cpu) / q, unitMs},
		"alloc_kb_per_query": {float64(e.cost.alloc) / 1024 / q, unitKiB},
		"heap_peak_mb":       {e.heapPeak / (1 << 20), unitMiB},
		"msgs_per_query":     {float64(e.messages) / q, unitCount},
	}
}

// layers holds the per-layer metrics of a traced run. Layers a workload
// does not exercise stay zero: only the TCP workload encodes frames and
// runs the event-loop reference.
type layers struct {
	topologyMs, diameterMs, startMs float64 // medians over bring-ups

	instanceBuildUs  float64
	awaitP50Ms       float64
	earlyReadRatio   float64
	deliveredPerQ    float64
	droppedPerQ      float64
	timersPerQ       float64
	shardDepthMax    float64
	handlers         handlerTimes
	simSelfMsPerQ    float64 // per query of the event-loop reference
	oracleMsPerQ     float64 // per timed query
	link             *linkTrace
	framesPerWrite   float64
	wire             wireReplay
	tracedLatencyP50 float64
}

func (l *layers) metrics(answered int, cost phaseCost) map[string]metric {
	q := float64(answered)
	m := map[string]metric{
		"topology.generate_ms":             {l.topologyMs, unitMs},
		"graph.diameter_ms":                {l.diameterMs, unitMs},
		"node.start_ms":                    {l.startMs, unitMs},
		"node.instance_build_us":           {l.instanceBuildUs, unitUs},
		"node.await_ms_p50":                {l.awaitP50Ms, unitMs},
		"node.early_read_ratio":            {l.earlyReadRatio, unitRatio},
		"node.frames_delivered_per_query":  {l.deliveredPerQ, unitCount},
		"node.frames_dropped_per_query":    {l.droppedPerQ, unitCount},
		"node.timers_fired_per_query":      {l.timersPerQ, unitCount},
		"node.shard_queue_depth_max":       {l.shardDepthMax, unitCount},
		"protocol.receive_us_per_query":    {float64(l.handlers.recvNs.Load()) / 1e3 / q, unitUs},
		"protocol.receive_calls_per_query": {float64(l.handlers.recvCalls.Load()) / q, unitCount},
		"protocol.timer_us_per_query":      {float64(l.handlers.timerNs.Load()) / 1e3 / q, unitUs},
		"sim.run_self_ms_per_query":        {l.simSelfMsPerQ, unitMs},
		"oracle.compute_ms_per_query":      {l.oracleMsPerQ, unitMs},
		"transport.send_ns_per_frame":      {0, unitNs},
		"transport.frames_per_query":       {0, unitCount},
		"transport.hop_lag_p50_ms":         {0, unitMs},
		"transport.hop_lag_p99_ms":         {0, unitMs},
		"transport.frames_per_write":       {l.framesPerWrite, unitCount},
		"wire.encode_ns_per_frame":         {l.wire.encodeNs, unitNs},
		"wire.decode_ns_per_frame":         {l.wire.decodeNs, unitNs},
		"wire.bytes_per_frame":             {l.wire.bytesPerFrame, unitB},
		"wire.kb_per_query":                {0, unitKiB},
		"gc.cycles_per_query":              {float64(cost.gcCycles) / q, unitCount},
		"gc.cpu_ms_per_query":              {cost.gcCPU * 1e3 / q, unitMs},
		"traced.cpu_ms_per_query":          {durMs(cost.cpu) / q, unitMs},
		"traced.latency_p50_ms":            {l.tracedLatencyP50, unitMs},
	}
	if lk := l.link; lk != nil {
		if lk.sends > 0 {
			m["transport.send_ns_per_frame"] = metric{float64(lk.sendNs) / float64(lk.sends), unitNs}
		}
		m["transport.frames_per_query"] = metric{float64(lk.sends) / q, unitCount}
		if len(lk.lags) > 0 {
			m["transport.hop_lag_p50_ms"] = metric{quantile(lk.lags, 0.5), unitMs}
			m["transport.hop_lag_p99_ms"] = metric{quantile(lk.lags, 0.99), unitMs}
		}
		m["wire.kb_per_query"] = metric{float64(lk.crossBytes) / 1024 / q, unitKiB}
	}
	return m
}
