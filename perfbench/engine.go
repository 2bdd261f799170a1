package main

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"validity/internal/agg"
	"validity/internal/graph"
	"validity/internal/node"
	"validity/internal/obs"
	"validity/internal/oracle"
	"validity/internal/protocol"
	"validity/internal/sim"
	"validity/internal/topology"
	"validity/internal/transport"
)

// engineWorkload runs Wildfire COUNT queries on the live query engine,
// assembled the way validityd assembles it: topology, D̂ = diameter + 2,
// node.Runtime over a transport with a QueryFactory over
// protocol.NewWildfire, then StartQuery and AwaitQueryResult in a closed
// loop with a fixed number of queries in flight.
type engineWorkload struct {
	hosts int
	// procs is 1 for one runtime over transport.Channel, 2 for two
	// runtimes in this process joined by transport.TCP on loopback, each
	// serving half of the hosts; queries are issued from the first.
	procs   int
	hop     time.Duration
	vectors int
	// The topology is drawn from topologySeed, not from the workload
	// seed, until its exact diameter equals diameter (see pickTopology).
	// Between 60- or 256-host random graphs, messages per query differ by
	// up to 15%; one fixed graph per workload keeps that out of the
	// run-to-run spread, while the workload seed still draws the values,
	// query ids, querying hosts, FM coins and churn timelines.
	topologySeed int64
	diameter     int
	// leaveShare of the hosts depart inside every query's deadline.
	leaveShare float64
	inFlight   int
	bringUps   int
	warmup     int
	// Static workloads answer every query id again after the timed phase
	// on the deterministic event loop (see reference) and require the same
	// answer bit for bit.
	static bool
}

var (
	// chanFull is chan256-count-churn: the engine with 256 local hosts
	// under churn. δ is 40 ms, not 10: at 10 ms a stall of the process
	// longer than AwaitBracket's settle window (a quarter of the deadline,
	// 45 ms) passes for silence, the read comes early and COUNT is far too
	// small; about one query in 2,400 failed so on a shared host. At 40 ms
	// the window is 180 ms, and the latency median no longer follows how
	// much CPU time the host steals.
	chanFull = &engineWorkload{
		hosts: 256, procs: 1, hop: 40 * time.Millisecond, vectors: 64, topologySeed: 1, diameter: 7,
		leaveShare: 0.1, inFlight: 2, bringUps: 15, warmup: 6,
	}
	// tcpFull is tcp60-count-static: the cross-process path. δ is 10 ms:
	// at 5 ms about one read in ten fell back from the quiescence read to
	// the sharded floor, and p90 flipped between the two from run to run.
	tcpFull = &engineWorkload{
		hosts: 60, procs: 2, hop: 10 * time.Millisecond, vectors: 64, topologySeed: 1, diameter: 5,
		inFlight: 2, bringUps: 15, warmup: 6, static: true,
	}
)

func exactDiameter(g *graph.Graph) int { return g.Diameter(nil) }

// engineRun is one run's shared state.
type engineRun struct {
	w      *engineWorkload
	o      runOpts
	values []int64
	qgen   *queryGen
	specs  sync.Map // query id → querySpec, written before StartQuery
	lay    *layers
	link   *linkTrace
	build  struct{ ns, calls atomic.Int64 }
}

// fleet is one bring-up of the engine.
type fleet struct {
	g        *graph.Graph
	dHat     int
	runtimes []*node.Runtime
	regs     []*obs.Registry
}

func (f *fleet) stop() {
	for _, rt := range f.runtimes {
		rt.Stop()
	}
}

// answer is one query's outcome.
type answer struct {
	spec    querySpec
	value   float64
	err     error
	latency time.Duration
	await   time.Duration
}

func (w *engineWorkload) run(o runOpts) (*report, error) {
	topoSeed, diameter, err := pickTopology(w.topologySeed, w.hosts, w.diameter, exactDiameter)
	if err != nil {
		return nil, err
	}
	r := &engineRun{w: w, o: o, values: attributeValues(o.seed, w.hosts), lay: &layers{}}
	dHat := diameter + 2
	r.qgen = &queryGen{
		seed: o.seed, firstID: firstQueryID(o.seed), hosts: w.hosts,
		leave: int(w.leaveShare * float64(w.hosts)), deadline: sim.Time(2 * dHat),
	}
	r.qgen.issuers = issuers(topology.Generate(topology.Random, w.hosts, topoSeed), w.hosts/w.procs)

	var e endToEnd
	var topoMs, diamMs, startMs []float64
	var fl *fleet
	for i := 0; i < w.bringUps; i++ {
		if fl != nil {
			fl.stop()
		}
		runtime.GC()
		if o.trace {
			r.link = newLinkTrace(w.procs > 1)
		}
		var parts [3]time.Duration
		t0 := time.Now()
		fl, parts, err = r.bringUp(topoSeed)
		e.setup = append(e.setup, time.Since(t0))
		if err != nil {
			return nil, err
		}
		topoMs = append(topoMs, durMs(parts[0]))
		diamMs = append(diamMs, durMs(parts[1]))
		startMs = append(startMs, durMs(parts[2]))
		if fl.dHat != dHat {
			fl.stop()
			return nil, fmt.Errorf("regenerated topology gives D̂ = %d, want %d", fl.dHat, dHat)
		}
	}
	defer fl.stop()

	// Warm-up, then the timed phase: the same closed loop, the timed part
	// running until the duration has passed and its last query returns.
	var next atomic.Int64
	warm := r.loop(fl, &next, int64(w.warmup), time.Time{}, nil)
	// Let the warm-up queries' last frames and timers drain before timing.
	_, _, hardCap := fl.runtimes[0].AwaitBracket(r.qgen.deadline)
	time.Sleep(hardCap)
	runtime.GC()
	probes := []func() float64{heapInUse}
	if o.trace {
		probes = append(probes, func() float64 {
			var m float64
			for _, reg := range fl.regs {
				m = max(m, gauge(reg.Snapshot(), "node_shard_queue_depth_max"))
			}
			return m
		})
	}
	snap0 := snapshots(fl)
	r.build.ns.Store(0)
	r.build.calls.Store(0)
	r.lay.handlers.reset()
	if r.link != nil {
		r.link.setRecording(true)
	}
	col := newCollector(fl)
	smp := startSampler(5*time.Millisecond, probes...)
	start := readUsage()
	timed := r.loop(fl, &next, 0, start.wall.Add(o.duration), col)
	e.cost = readUsage().since(start)
	peaks := smp.stop()
	e.heapPeak = peaks[0]
	if r.link != nil {
		r.link.setRecording(false)
	}
	snap1 := snapshots(fl)
	sums := col.wait()

	for _, a := range timed {
		if a.err == nil {
			e.latencies = append(e.latencies, durMs(a.latency))
			e.answered++
		}
	}
	if e.answered == 0 {
		return nil, fmt.Errorf("no query answered in the timed phase (%d attempted)", len(timed))
	}
	e.messages = sums.sent

	all := append(warm, timed...)
	rep := &report{Correct: true, Attempted: len(all)}
	failed := make(map[int64]bool)
	for _, a := range all {
		if a.err != nil {
			failed[a.spec.id] = true
			fmt.Fprintf(os.Stderr, "query %d (hq=%d): %v\n", a.spec.id, a.spec.hq, a.err)
			continue
		}
		s := boundSets(fl.g, a.spec.hq, a.spec.churn, r.qgen.deadline)
		if !countValid(a.value, s, countFactor(w.vectors)) {
			failed[a.spec.id] = true
			fmt.Fprintf(os.Stderr, "query %d (hq=%d): COUNT %.2f outside [|H_C|/f, |H_U|·f] = [%d/%.3f, %d·%.3f]\n",
				a.spec.id, a.spec.hq, a.value, s.nHC, countFactor(w.vectors), s.nHU, countFactor(w.vectors))
		}
	}
	if w.static {
		mismatched, err := r.reference(fl, all)
		if err != nil {
			return nil, err
		}
		for id := range mismatched {
			failed[id] = true
		}
	}
	rep.Failed = len(failed)

	if !o.trace {
		rep.Metrics = e.metrics()
		return rep, nil
	}
	lay := r.lay
	lay.topologyMs, lay.diameterMs, lay.startMs = median(topoMs), median(diamMs), median(startMs)
	if c := r.build.calls.Load(); c > 0 {
		lay.instanceBuildUs = float64(r.build.ns.Load()) / 1e3 / float64(c)
	}
	var awaits []float64
	for _, a := range timed {
		if a.err == nil {
			awaits = append(awaits, durMs(a.await))
		}
	}
	lay.awaitP50Ms = quantile(awaits, 0.5)
	early := counterDelta(snap0[:1], snap1[:1], "node_early_reads_total")
	late := counterDelta(snap0[:1], snap1[:1], "node_deadline_reads_total")
	if early+late > 0 {
		lay.earlyReadRatio = float64(early) / float64(early+late)
	}
	q := float64(e.answered)
	lay.deliveredPerQ = float64(sums.delivered) / q
	lay.droppedPerQ = float64(sums.dropped) / q
	lay.timersPerQ = float64(counterDelta(snap0, snap1, "node_timers_fired_total")) / q
	lay.shardDepthMax = peaks[1]
	if n, s := histDelta(snap0, snap1, "transport_frames_per_write"); n > 0 {
		lay.framesPerWrite = s / float64(n)
	}
	lay.link = r.link
	if lay.wire, err = replayWire(r.link.captured); err != nil {
		return nil, fmt.Errorf("wire replay: %w", err)
	}
	// The oracle the validity facade consults on every query, timed on
	// this run's queries after the timed phase: the engine never calls it.
	t0 := time.Now()
	for _, a := range timed {
		if a.err == nil {
			oracle.Compute(fl.g, r.values, a.spec.hq, a.spec.churn, r.qgen.deadline, agg.Count)
		}
	}
	lay.oracleMsPerQ = durMs(time.Since(t0)) / q
	lay.tracedLatencyP50 = quantile(e.latencies, 0.5)
	rep.Metrics = lay.metrics(e.answered, e.cost)
	return rep, nil
}

// bringUp assembles one fleet and returns it with the time spent in
// topology generation, the diameter, and runtime construction plus Start.
func (r *engineRun) bringUp(topoSeed int64) (*fleet, [3]time.Duration, error) {
	var parts [3]time.Duration
	w := r.w
	t0 := time.Now()
	g := topology.Generate(topology.Random, w.hosts, topoSeed)
	t1 := time.Now()
	fl := &fleet{g: g, dHat: g.Diameter(nil) + 2}
	t2 := time.Now()
	parts[0], parts[1] = t1.Sub(t0), t2.Sub(t1)

	var trs []transport.Transport
	var locals [][]graph.HostID
	var roster []int
	if w.procs == 1 {
		// Delivery at δ/2, as validityd configures the channel transport.
		trs = []transport.Transport{transport.NewChannel(w.hosts, w.hop/2)}
		locals = [][]graph.HostID{nil}
	} else {
		addrs, err := loopbackAddrs(w.procs)
		if err != nil {
			return nil, parts, err
		}
		hostAddrs := make([]string, w.hosts)
		roster = make([]int, w.hosts)
		locals = make([][]graph.HostID, w.procs)
		per := w.hosts / w.procs
		for h := range hostAddrs {
			p := min(h/per, w.procs-1)
			hostAddrs[h] = addrs[p]
			roster[h] = p
			locals[p] = append(locals[p], graph.HostID(h))
		}
		for range addrs {
			trs = append(trs, transport.NewTCP(hostAddrs))
		}
	}
	for i, tr := range trs {
		reg := obs.NewRegistry()
		if tcp, ok := tr.(*transport.TCP); ok {
			tcp.Obs = reg
		}
		if r.link != nil {
			tr = newTap(tr, r.link, w.hosts)
		}
		rt, err := node.New(node.Config{
			Graph: g, Values: r.values, Transport: tr, Hop: w.hop, Local: locals[i],
			Quiesce: w.procs > 1, Roster: roster, Obs: reg, Trace: obs.NewTracer(0, 0),
		})
		if err != nil {
			fl.stop()
			return nil, parts, err
		}
		rt.SetQueryFactory(r.factory(rt, fl.dHat, r.o.trace))
		if err := rt.Start(); err != nil {
			rt.Stop()
			fl.stop()
			return nil, parts, err
		}
		fl.runtimes = append(fl.runtimes, rt)
		fl.regs = append(fl.regs, reg)
	}
	parts[2] = time.Since(t2)
	return fl, parts, nil
}

// issuers returns the hosts queries are issued at: among the first n
// hosts (those the issuing runtime serves), the ones of the most common
// eccentricity. A query's answer settles about 2·eccentricity(h_q) hops
// after it is issued, so with h_q drawn from hosts of mixed eccentricity
// the latency median jumps between modes two hops apart from run to run.
func issuers(g *graph.Graph, n int) []graph.HostID {
	byEcc := make(map[int][]graph.HostID)
	best := -1
	for h := 0; h < n; h++ {
		e := g.Eccentricity(graph.HostID(h), nil)
		byEcc[e] = append(byEcc[e], graph.HostID(h))
		if best < 0 || len(byEcc[e]) > len(byEcc[best]) || len(byEcc[e]) == len(byEcc[best]) && e < best {
			best = e
		}
	}
	return byEcc[best]
}

// loopbackAddrs reserves n distinct free loopback ports.
func loopbackAddrs(n int) ([]string, error) {
	var addrs []string
	for len(addrs) < n {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		addrs = append(addrs, l.Addr().String())
		if err := l.Close(); err != nil {
			return nil, err
		}
	}
	return addrs, nil
}

// factory derives a query's protocol instance from its id alone, as
// validityd's factory does; it reads the spec the issuing loop stored.
func (r *engineRun) factory(rt *node.Runtime, dHat int, traced bool) node.QueryFactory {
	return func(id node.QueryID) (*node.QueryInstance, error) {
		v, ok := r.specs.Load(int64(id))
		if !ok {
			return nil, fmt.Errorf("unknown query id %d", id)
		}
		s := v.(querySpec)
		q := protocol.Query{Kind: agg.Count, Hq: s.hq, DHat: dHat, Params: agg.Params{Vectors: r.w.vectors, Bits: 32}}
		t0 := time.Now()
		inst, err := node.BuildInstance(rt, protocol.NewWildfire(q), node.QuerySeed(r.o.seed, id))
		if err != nil {
			return nil, err
		}
		if traced {
			r.build.ns.Add(int64(time.Since(t0)))
			r.build.calls.Add(1)
			wrapHandlers(inst.Handlers, &r.lay.handlers)
		}
		inst.Churn = s.churn
		inst.Origin = s.hq
		return inst, nil
	}
}

// loop runs the closed loop with w.inFlight workers on fl's first
// runtime. It stops issuing after count queries when count > 0, or once
// until has passed, and returns when every issued query has returned.
func (r *engineRun) loop(fl *fleet, next *atomic.Int64, count int64, until time.Time, col *collector) []answer {
	issuer := fl.runtimes[0]
	deadline := r.qgen.deadline
	var mu sync.Mutex
	var out []answer
	var wg sync.WaitGroup
	first := next.Load()
	for k := 0; k < r.w.inFlight; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if count == 0 && !time.Now().Before(until) {
					return
				}
				i := next.Add(1) - 1
				if count > 0 && i-first >= count {
					return
				}
				s := r.qgen.spec(int(i))
				r.specs.Store(s.id, s)
				a := answer{spec: s}
				id := node.QueryID(s.id)
				t0 := time.Now()
				if _, err := issuer.StartQuery(id); err != nil {
					a.err = err
				} else {
					floor, settle, hardCap := issuer.AwaitBracket(deadline)
					t1 := time.Now()
					v, ok, err := issuer.AwaitQueryResult(id, s.hq, floor, settle, hardCap)
					a.await = time.Since(t1)
					a.latency = time.Since(t0)
					switch {
					case err != nil:
						a.err = err
					case !ok:
						a.err = fmt.Errorf("no result declared at h_q")
					default:
						a.value = v
					}
					if col != nil {
						col.add(id, t0.Add(hardCap))
					}
				}
				mu.Lock()
				out = append(out, a)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// collector reads each timed query's §6.3 counters from every runtime
// once the query's hard deadline has passed, when its traffic has ended
// but before its summary can fall off the engine's retired-query ring.
type collector struct {
	fl      *fleet
	mu      sync.Mutex
	pending []pendingRead
	wake    chan struct{}
	closed  bool
	done    chan struct{}
	sums    statSums
}

type pendingRead struct {
	id  node.QueryID
	due time.Time
}

type statSums struct{ sent, delivered, dropped int64 }

func newCollector(fl *fleet) *collector {
	c := &collector{fl: fl, wake: make(chan struct{}, 1), done: make(chan struct{})}
	go c.run()
	return c
}

func (c *collector) add(id node.QueryID, due time.Time) {
	c.mu.Lock()
	c.pending = append(c.pending, pendingRead{id, due})
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

func (c *collector) run() {
	defer close(c.done)
	for {
		c.mu.Lock()
		if len(c.pending) == 0 {
			closed := c.closed
			c.mu.Unlock()
			if closed {
				return
			}
			<-c.wake
			continue
		}
		p := c.pending[0]
		c.pending = c.pending[1:]
		c.mu.Unlock()
		time.Sleep(time.Until(p.due))
		for _, rt := range c.fl.runtimes {
			if st, ok := rt.QueryStats(p.id); ok {
				c.sums.sent += st.MessagesSent
				c.sums.delivered += st.MessagesDelivered
				c.sums.dropped += st.MessagesDropped
			}
		}
	}
}

// wait returns the sums once every added query has been read.
func (c *collector) wait() statSums {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
	<-c.done
	return c.sums
}

// reference answers every query id again, untimed, and returns the ids
// whose answer differs from the one the fleet gave. Each query's handlers
// come from the workload's own factory, as on the fleet, and run on the
// deterministic event loop (sim.Network: one tick per hop, no wall clock),
// so scheduling on this host cannot touch the reference. On a static
// network a query's answer is fixed by the seed and the id: every host's
// FM coins derive from them and the sketches merge by OR, in any order.
func (r *engineRun) reference(fl *fleet, answers []answer) (map[int64]bool, error) {
	// A runtime that is never started serves only as the handler factory's
	// host map: every host is local to it.
	rt, err := node.New(node.Config{
		Graph: fl.g, Values: r.values, Transport: transport.NewChannel(fl.g.Len(), r.w.hop/2), Hop: r.w.hop,
	})
	if err != nil {
		return nil, err
	}
	defer rt.Stop()
	factory := r.factory(rt, fl.dHat, false)
	mismatched := make(map[int64]bool)
	var runTime time.Duration
	var ht handlerTimes
	runs := 0
	for _, a := range answers {
		if a.err != nil {
			continue
		}
		inst, err := factory(node.QueryID(a.spec.id))
		if err != nil {
			return nil, err
		}
		if r.o.trace {
			wrapHandlers(inst.Handlers, &ht)
		}
		nw := sim.NewNetwork(sim.Config{Graph: fl.g, Values: r.values})
		for h, hd := range inst.Handlers {
			nw.SetHandler(graph.HostID(h), hd)
		}
		inst.Churn.Apply(nw)
		t0 := time.Now()
		nw.Run(inst.Deadline)
		runTime += time.Since(t0)
		runs++
		v, ok := inst.Protocol.Result()
		if !ok || v != a.value {
			mismatched[a.spec.id] = true
			fmt.Fprintf(os.Stderr, "query %d (hq=%d): fleet answered %v, event-loop reference %v (ok=%t)\n",
				a.spec.id, a.spec.hq, a.value, v, ok)
		}
	}
	if r.o.trace && runs > 0 {
		// The event loop's own time: Run minus the handlers it called.
		r.lay.simSelfMsPerQ = durMs(runTime-ht.total()) / float64(runs)
	}
	return mismatched, nil
}

// snapshots reads every runtime's registry.
func snapshots(fl *fleet) []obs.RegistrySnapshot {
	out := make([]obs.RegistrySnapshot, len(fl.regs))
	for i, reg := range fl.regs {
		out[i] = reg.Snapshot()
	}
	return out
}

func gauge(s obs.RegistrySnapshot, name string) float64 {
	var v float64
	for _, g := range s.Gauges {
		if g.Name == name {
			v = max(v, g.Value)
		}
	}
	return v
}

// counterDelta sums a counter's growth between two sets of snapshots.
func counterDelta(before, after []obs.RegistrySnapshot, name string) int64 {
	var d int64
	for i := range after {
		for _, c := range after[i].Counters {
			if c.Name == name {
				d += c.Value
			}
		}
		for _, c := range before[i].Counters {
			if c.Name == name {
				d -= c.Value
			}
		}
	}
	return d
}

// histDelta sums a histogram's observation count and sum growth.
func histDelta(before, after []obs.RegistrySnapshot, name string) (int64, float64) {
	var n int64
	var s float64
	for i := range after {
		for _, h := range after[i].Histograms {
			if h.Name == name {
				n += h.Count
				s += h.Sum
			}
		}
		for _, h := range before[i].Histograms {
			if h.Name == name {
				n -= h.Count
				s -= h.Sum
			}
		}
	}
	return n, s
}
