package main

import (
	"sync"
	"sync/atomic"
	"time"

	"validity/internal/graph"
	"validity/internal/sim"
	"validity/internal/transport"
	"validity/internal/wire"
)

// The traced mode measures layers from outside, by timing calls into their
// public functions: a wrapper around every sim.Handler (protocol layer), a
// decorator around transport.Transport (transport layer), timing around
// the QueryFactory (instance build), and an offline replay of captured
// frames through the wire codec. Nothing is added inside the program.

// handlerTimes accumulates the time spent inside protocol handlers.
type handlerTimes struct {
	startNs, recvNs, recvCalls, timerNs atomic.Int64
}

func (t *handlerTimes) reset() {
	for _, c := range []*atomic.Int64{&t.startNs, &t.recvNs, &t.recvCalls, &t.timerNs} {
		c.Store(0)
	}
}

func (t *handlerTimes) total() time.Duration {
	return time.Duration(t.startNs.Load() + t.recvNs.Load() + t.timerNs.Load())
}

// timedHandler wraps one host's handler and charges each callback's
// duration to t.
type timedHandler struct {
	inner sim.Handler
	t     *handlerTimes
}

func (h timedHandler) Start(ctx *sim.Context) {
	t0 := time.Now()
	h.inner.Start(ctx)
	h.t.startNs.Add(int64(time.Since(t0)))
}

func (h timedHandler) Receive(ctx *sim.Context, msg sim.Message) {
	t0 := time.Now()
	h.inner.Receive(ctx, msg)
	h.t.recvNs.Add(int64(time.Since(t0)))
	h.t.recvCalls.Add(1)
}

func (h timedHandler) Timer(ctx *sim.Context, tag int) {
	t0 := time.Now()
	h.inner.Timer(ctx, tag)
	h.t.timerNs.Add(int64(time.Since(t0)))
}

// wrapHandlers replaces every non-nil handler in hs with a timed one.
func wrapHandlers(hs []sim.Handler, t *handlerTimes) {
	for i, h := range hs {
		if h != nil {
			hs[i] = timedHandler{inner: h, t: t}
		}
	}
}

// linkTrace is shared by the transport taps of one fleet: it matches each
// delivery to its send per (from, to) host pair — both transports deliver
// one pair's frames in send order — and keeps the frames that cross a
// process boundary for the wire replay. On a fleet of several runtimes
// only crossing frames give hop lags: frames between two hosts of one
// runtime are handed over inside Send.
type linkTrace struct {
	mu        sync.Mutex
	inflight  map[uint64][]sentAt
	crossOnly bool
	// Recorded only while the timed phase runs.
	recording  bool
	lags       []float64 // ms
	sends      int64
	sendNs     int64
	crossBytes int64
	captured   []wire.Frame
}

// maxCaptured bounds the frames kept for the wire replay.
const maxCaptured = 50_000

type sentAt struct {
	t        time.Time
	crossing bool
}

func newLinkTrace(crossOnly bool) *linkTrace {
	return &linkTrace{inflight: make(map[uint64][]sentAt), crossOnly: crossOnly}
}

func pairKey(from, to graph.HostID) uint64 { return uint64(uint32(from))<<32 | uint64(uint32(to)) }

func (l *linkTrace) setRecording(on bool) {
	l.mu.Lock()
	l.recording = on
	l.mu.Unlock()
}

func (l *linkTrace) sent(msg transport.Message, at time.Time, crossing bool) {
	l.mu.Lock()
	k := pairKey(msg.From, msg.To)
	l.inflight[k] = append(l.inflight[k], sentAt{at, crossing})
	if l.recording && crossing {
		if n, err := wire.FrameSize(msg.Payload); err == nil {
			l.crossBytes += int64(n)
		}
		if len(l.captured) < maxCaptured {
			l.captured = append(l.captured, wire.Frame{
				From: msg.From, To: msg.To, Query: int64(msg.Query), Chain: msg.Chain, Payload: msg.Payload,
			})
		}
	}
	l.mu.Unlock()
}

func (l *linkTrace) sendDone(d time.Duration) {
	l.mu.Lock()
	if l.recording {
		l.sends++
		l.sendNs += int64(d)
	}
	l.mu.Unlock()
}

func (l *linkTrace) received(msg transport.Message) {
	now := time.Now()
	l.mu.Lock()
	k := pairKey(msg.From, msg.To)
	if q := l.inflight[k]; len(q) > 0 {
		if l.recording && (q[0].crossing || !l.crossOnly) {
			l.lags = append(l.lags, durMs(now.Sub(q[0].t)))
		}
		if len(q) == 1 {
			delete(l.inflight, k)
		} else {
			l.inflight[k] = q[1:]
		}
	}
	l.mu.Unlock()
}

// tap decorates one runtime's transport.
type tap struct {
	inner transport.Transport
	link  *linkTrace
	local []bool // hosts bound here; written by Bind before Open
}

func newTap(inner transport.Transport, link *linkTrace, hosts int) *tap {
	return &tap{inner: inner, link: link, local: make([]bool, hosts)}
}

func (t *tap) Bind(h graph.HostID, recv transport.RecvFunc) error {
	t.local[h] = true
	return t.inner.Bind(h, func(msg transport.Message) {
		t.link.received(msg)
		recv(msg)
	})
}

func (t *tap) Open() error { return t.inner.Open() }

func (t *tap) Send(msg transport.Message) error {
	t0 := time.Now()
	t.link.sent(msg, t0, !t.local[msg.To])
	t1 := time.Now()
	err := t.inner.Send(msg)
	t.link.sendDone(time.Since(t1))
	return err
}

func (t *tap) Kill(h graph.HostID)       { t.inner.Kill(h) }
func (t *tap) Alive(h graph.HostID) bool { return t.inner.Alive(h) }
func (t *tap) Close() error              { return t.inner.Close() }

// Warm forwards the runtime's warm-up dial to transports that have one.
func (t *tap) Warm() {
	if w, ok := t.inner.(transport.Warmer); ok {
		w.Warm()
	}
}

// wireReplay encodes the captured frames with wire.AppendFrame and decodes
// them back with wire.DecodeFrameBody, timing each pass over all frames.
type wireReplay struct {
	encodeNs, decodeNs float64 // per frame
	bytesPerFrame      float64
}

func replayWire(frames []wire.Frame) (wireReplay, error) {
	var r wireReplay
	if len(frames) == 0 {
		return r, nil
	}
	var buf []byte
	offs := make([]int, 0, len(frames)+1)
	t0 := time.Now()
	for _, f := range frames {
		offs = append(offs, len(buf))
		var err error
		if buf, err = wire.AppendFrame(buf, f); err != nil {
			return r, err
		}
	}
	enc := time.Since(t0)
	offs = append(offs, len(buf))
	t1 := time.Now()
	for i := range frames {
		// Skip the 4-byte length prefix the transport consumes itself.
		if _, err := wire.DecodeFrameBody(buf[offs[i]+4 : offs[i+1]]); err != nil {
			return r, err
		}
	}
	dec := time.Since(t1)
	n := float64(len(frames))
	r.encodeNs = float64(enc.Nanoseconds()) / n
	r.decodeNs = float64(dec.Nanoseconds()) / n
	r.bytesPerFrame = float64(len(buf)) / n
	return r, nil
}
