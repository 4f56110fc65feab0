package main

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"time"

	"ipsa/internal/netio"
)

// idLen is the packet id stamped into the last bytes of every frame's
// payload: the upper 48 bits are a sequence number, the lower 16 the
// in-flight slot. The switch never parses the payload, so the id rides
// through unchanged and names the slot an egress frame completes.
const idLen = 8

// grace is how long a window may go without any completion before its
// outstanding frames are declared lost (and how long a phase waits for
// stragglers after its deadline).
const grace = 200 * time.Millisecond

// expect is the reference result for one flow: the egress port and the
// egress frame (with the id bytes zero) the pisa switch produced.
type expect struct {
	port int
	data []byte
}

// slot is one in-flight frame of the closed-loop window.
type slot struct {
	buf  []byte
	seq  uint64
	flow int32
	sent int64
	busy bool
}

// traffic is the frame source both the closed loop and the ladder draw
// from: per-flow templates, their reference results, and the seeded
// flow schedule.
type traffic struct {
	tmpl  [][]byte
	exp   []expect
	sched []int32
	pos   int
}

// next returns the next flow index of the schedule.
func (t *traffic) next() int32 {
	f := t.sched[t.pos]
	t.pos++
	if t.pos == len(t.sched) {
		t.pos = 0
	}
	return f
}

// stamp copies flow f's template into buf and writes id into its tail.
func (t *traffic) stamp(buf []byte, f int32, id uint64) []byte {
	src := t.tmpl[f]
	buf = append(buf[:0], src...)
	binary.BigEndian.PutUint64(buf[len(buf)-idLen:], id)
	return buf
}

// check reports whether frame d, seen on egress port, is flow f's
// expected output carrying id.
func (t *traffic) check(f int32, port int, d []byte, id uint64) bool {
	e := &t.exp[f]
	n := len(e.data)
	if port != e.port || len(d) != n || n < idLen {
		return false
	}
	return bytes.Equal(d[:n-idLen], e.data[:n-idLen]) &&
		binary.BigEndian.Uint64(d[n-idLen:]) == id
}

// loopStats is what one closed-loop phase measured.
type loopStats struct {
	injected uint64 // frames offered to the ingress port
	good     uint64 // frames back on the right port with the right bytes
	bad      uint64 // frames back wrong: port, bytes, or an unknown id
	lost     uint64 // frames never seen again (or refused at ingress)
	elapsed  time.Duration
	lat      []int64 // inject→egress, ns (when recording)
}

// add folds another phase's counts into s (latency samples are not kept).
func (s *loopStats) add(o *loopStats) {
	s.injected += o.injected
	s.good += o.good
	s.bad += o.bad
	s.lost += o.lost
	s.elapsed += o.elapsed
}

// failed is the phase's failure count: lost plus wrongly forwarded.
func (s *loopStats) failed() uint64 { return s.bad + s.lost }

// loop is the single generator goroutine's closed loop: it keeps window
// frames in flight, injecting a new frame the moment one returns. It
// drives any frame path that takes frames on inject and hands them back
// on a set of drain ports — the switch's ChanPorts, or a wired pair with
// no switch (the harness ceiling).
type loop struct {
	tr     *traffic
	inject func([]byte) bool
	drain  []func() ([]byte, bool)
	slots  []slot
	seq    uint64

	spans           *spanLog // per-frame spans when tracing, else nil
	lFrame, lInject layer

	lat   []int64 // latency buffer reused across recording runs
	limit uint64  // when > 0, a run injects no more frames than this
}

func newLoop(tr *traffic, inject func([]byte) bool, drain []func() ([]byte, bool), maxWindow int) *loop {
	l := &loop{tr: tr, inject: inject, drain: drain, lat: make([]int64, 0, 1<<17)}
	maxLen := 0
	for _, f := range tr.tmpl {
		maxLen = max(maxLen, len(f))
	}
	l.slots = make([]slot, maxWindow)
	for i := range l.slots {
		l.slots[i].buf = make([]byte, 0, maxLen)
	}
	return l
}

// chanPortLoop drives frames into port in and out of every port of outs
// (so a frame on the wrong port is seen and counted).
func chanPortLoop(tr *traffic, in *netio.ChanPort, outs []*netio.ChanPort, maxWindow int) *loop {
	drains := make([]func() ([]byte, bool), len(outs))
	for i, p := range outs {
		drains[i] = p.Drain
	}
	return newLoop(tr, in.Inject, drains, maxWindow)
}

// trace turns per-frame spans on (sl != nil) or off: each frame gets a
// root span from inject to egress and a child span around its Inject.
func (l *loop) trace(sl *spanLog) {
	l.spans = sl
	if sl != nil {
		l.lFrame, l.lInject = sl.layerOf("frame"), sl.layerOf("netio.inject")
	}
}

// issue fills slot i with the next frame and injects it.
func (l *loop) issue(i int, st *loopStats) {
	s := &l.slots[i]
	l.seq++
	s.seq = l.seq
	s.flow = l.tr.next()
	id := s.seq<<16 | uint64(i)
	s.buf = l.tr.stamp(s.buf, s.flow, id)
	s.sent = monoNanos()
	st.injected++
	ok := l.inject(s.buf)
	if l.spans != nil {
		l.spans.record(span{ID: id, Layer: l.lInject, Parent: l.lFrame, Start: s.sent, End: monoNanos(), N: 1})
	}
	if !ok {
		st.lost++
		return
	}
	s.busy = true
}

// complete retires the frame d that appeared on drain port port at time
// now and reports the slot it freed (-1 for a frame no slot owns).
func (l *loop) complete(port int, d []byte, now int64, st *loopStats, record bool) int {
	if len(d) < idLen {
		st.bad++
		return -1
	}
	id := binary.BigEndian.Uint64(d[len(d)-idLen:])
	i := int(id & 0xffff)
	if i >= len(l.slots) || !l.slots[i].busy || l.slots[i].seq != id>>16 {
		st.bad++
		return -1
	}
	s := &l.slots[i]
	s.busy = false
	if l.tr.check(s.flow, port, d, id) {
		st.good++
	} else {
		st.bad++
	}
	if record {
		st.lat = append(st.lat, now-s.sent)
	}
	if l.spans != nil {
		l.spans.record(span{ID: id, Layer: l.lFrame, Parent: -1, Start: s.sent, End: now, N: 1})
	}
	return i
}

// run keeps window frames in flight for dur, then waits up to grace for
// the last ones. With record set it keeps every inject→egress latency, in
// a buffer the next recording run reuses (so phases do not feed the
// garbage collector while they measure).
func (l *loop) run(window int, dur time.Duration, record bool) loopStats {
	if window > len(l.slots) {
		window = len(l.slots)
	}
	st := loopStats{}
	if record {
		st.lat = l.lat[:0]
		defer func() { l.lat = st.lat }()
	}
	start := monoNanos()
	deadline := start + int64(dur)
	for i := 0; i < window; i++ {
		l.issue(i, &st)
	}
	outstanding := func() int {
		n := 0
		for i := 0; i < window; i++ {
			if l.slots[i].busy {
				n++
			}
		}
		return n
	}
	issuing := true
	lastProgress := start
	idle := 0
	for {
		got := false
		var now int64
		for p, drain := range l.drain {
			// At most a window per port per sweep, so a path that hands
			// frames back instantly still lets the sweep end.
			for k := 0; k < window; k++ {
				d, ok := drain()
				if !ok {
					break
				}
				if !got {
					now = monoNanos()
					got = true
				}
				if i := l.complete(p, d, now, &st, record); i >= 0 && issuing {
					if l.limit > 0 && st.injected >= l.limit {
						issuing = false
						st.elapsed = time.Duration(now - start)
					} else {
						l.issue(i, &st)
					}
				}
			}
		}
		if got {
			lastProgress = now
			idle = 0
			if issuing && now >= deadline {
				issuing = false
				st.elapsed = time.Duration(now - start)
			}
			if !issuing && outstanding() == 0 {
				return st
			}
			continue
		}
		// Nothing came back: yield, so the switch goroutines the injects
		// woke can run on this P too instead of waiting to be stolen (a
		// spinning generator puts tens of µs of wake-up delay into every
		// frame), and look at the clock only now and then.
		idle++
		runtime.Gosched()
		if idle&63 != 0 {
			continue
		}
		now = monoNanos()
		if issuing && now >= deadline {
			issuing = false
			st.elapsed = time.Duration(now - start)
			lastProgress = now
		}
		if now-lastProgress > int64(grace) {
			// The window stalled: whatever is still out is lost. Re-arm
			// the slots so a running phase keeps its window.
			for i := 0; i < window; i++ {
				if l.slots[i].busy {
					l.slots[i].busy = false
					st.lost++
					if issuing {
						l.issue(i, &st)
					}
				}
			}
			lastProgress = now
			if !issuing {
				return st
			}
		}
		if !issuing && outstanding() == 0 {
			return st
		}
	}
}

// pps is the phase's forwarding rate: correctly forwarded frames per
// second of the measured interval.
func (s *loopStats) pps() float64 {
	return ratio(float64(s.good), s.elapsed.Seconds())
}
