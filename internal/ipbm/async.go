package ipbm

import (
	"fmt"
	"runtime"
	"strconv"

	"ipsa/internal/dataplane"
	"ipsa/internal/flowstat"
	"ipsa/internal/health"
	"ipsa/internal/netio"
	"ipsa/internal/pkt"
	"ipsa/internal/telemetry"
)

// egressSpins is how many yield-and-retry rounds an idle egress worker
// makes before parking on the TM's wakeup notification: enough that a
// back-to-back burst never pays a futex round trip, few enough that a
// genuinely idle worker parks within microseconds and costs nothing.
const egressSpins = 4

// egressBatch caps how many packets one egress worker drains from the TM
// per round. Under load the whole run usually pins the same program
// version, so the run executes stage-major through the fused closures
// with one Env bind, one per-batch stat flush and one-ahead bucket
// prefetch — the pipelined analogue of the sharded runner's drain.
const egressBatch = 32

// RunPipelined starts the asynchronous forwarding mode: one ingress worker
// per port runs packets through the ingress half and admits them to the
// traffic manager's queues (tail-dropping under congestion); egressWorkers
// goroutines drain the TM, run the egress half and transmit. Unlike the
// synchronous Run/Forward path, the TM genuinely buffers here, so bursts
// beyond the queue depth are dropped by policy rather than backpressure.
// Idle egress workers park on the TM's admit notification (adaptive
// spin-then-park) instead of sleep-polling. Stop with Shutdown.
func (s *Switch) RunPipelined(egressWorkers int) error {
	if egressWorkers <= 0 {
		return fmt.Errorf("ipbm: need at least one egress worker")
	}
	if s.epochs.current() == nil {
		return errNotConfigured
	}
	for i := 0; i < s.ports.Len(); i++ {
		port, _ := s.ports.Port(i)
		s.runWG.Add(1)
		go func(idx int, p netio.Port) {
			defer s.runWG.Done()
			for {
				data, ok := p.Recv()
				if !ok || s.stopped.Load() {
					return
				}
				s.ingestOne(data, idx)
			}
		}(i, port)
	}
	for w := 0; w < egressWorkers; w++ {
		// Each worker stamps its own heartbeat counter per processed
		// packet; the watchdog flags a worker whose heartbeat freezes
		// while the TM still holds packets.
		beat := s.tel.Reg.Counter("ipsa_egress_heartbeat_total",
			telemetry.L("worker", strconv.Itoa(w)))
		s.health.AddLane(health.Lane{
			Name:     "egress-" + strconv.Itoa(w),
			Progress: beat.Value,
			Pending:  s.pl.TM().DepthSum,
		})
		s.runWG.Add(1)
		go func() {
			defer s.runWG.Done()
			s.egressLoop(beat)
		}()
	}
	s.health.Start()
	s.log.Info("pipelined forwarding started", "egress_workers", egressWorkers)
	return nil
}

// egressLoop drains the TM until shutdown: process batch-at-a-time while
// packets are available, spin briefly when the TM momentarily empties,
// then park on the TM's notification. Shutdown's WakeAll unparks the
// final wait. beat is this worker's watchdog heartbeat, stamped per
// processed packet (one uncontended atomic add per round).
func (s *Switch) egressLoop(beat *telemetry.Counter) {
	scratch := make([]*pkt.Packet, egressBatch)
	for {
		if s.stopped.Load() {
			return
		}
		if n := s.egestBatch(scratch); n > 0 {
			beat.Add(uint64(n))
			continue
		}
		spun := 0
		for i := 0; i < egressSpins; i++ {
			runtime.Gosched()
			if n := s.egestBatch(scratch); n > 0 {
				spun = n
				break
			}
		}
		if spun > 0 {
			beat.Add(uint64(spun))
			continue
		}
		p, ok := s.pl.TM().DequeueWait(s.stopped.Load)
		if !ok {
			return
		}
		s.egestPacket(p)
		beat.Inc()
	}
}

// ingestOne runs the ingress half and admits the survivor to the TM.
// Packets and Envs are pooled; a packet parked in the TM keeps its pooled
// buffers (its Env is returned immediately — egress binds a fresh one),
// and is recycled as soon as it dies. The packet pins the current program
// version at ingress and carries it across the TM in p.Ver, so egress —
// possibly after a reconfiguration — executes the same program
// (per-packet version consistency).
func (s *Switch) ingestOne(data []byte, inPort int) {
	v := s.epochs.pin()
	if v == nil {
		return
	}
	p, err := s.dp.GetPacket(v.design, data, inPort)
	if err != nil {
		v.unpin()
		s.admitFailed(0, inPort, data)
		return
	}
	s.dp.BeginPacket(p)
	if p.Trace != nil {
		p.Trace.Epoch = v.epoch
	}
	// Flow accounting: the per-port ingress workers make the ingress
	// port a single-writer lane for Touch; Finish runs on the (shared)
	// egress workers, which only update an existing entry's atomics.
	fl := s.flows.Lane(inPort)
	var now int64
	if fl != nil {
		p.RSS = pkt.RSSHash(data)
		now = flowstat.Now()
		fl.Touch(p.RSS, data, len(data), now)
		if p.Timed {
			p.FlowNanos = now
		}
	}
	env := s.dp.GetEnv(v.design)
	env.Trace = p.Trace
	env.Timed = p.Timed
	ok := v.runIngress(s.pl, p, env)
	s.dp.PutEnv(env)
	if !ok {
		dv := dataplane.DropVerdict(p)
		s.dp.FinishPacket(p, dv)
		if fl != nil {
			fl.Finish(p.RSS, flowstat.VerdictOf(dv), flowLat(p), now)
		}
		s.dp.PutPacket(p)
		v.unpin()
		return // dropped in ingress
	}
	p.Ver = v // cleared again by egress or PutPacket
	// Tail drop is the TM's policy decision; counted in its stats.
	if !s.pl.TM().Admit(p) {
		s.dp.FinishPacket(p, "tm_drop")
		if fl != nil {
			fl.Finish(p.RSS, flowstat.VerdictTMDrop, flowLat(p), now)
		}
		s.dp.PutPacket(p)
		v.unpin()
	}
}

// egestOne drains one packet from the TM through the egress half and
// transmits it. It reports whether any packet was available.
func (s *Switch) egestOne() bool {
	p, ok := s.pl.TM().DequeueRR()
	if !ok {
		return false
	}
	s.egestPacket(p)
	return true
}

// egestBatch drains up to len(scratch) packets from the TM in one round.
// Consecutive packets pinned to the same program version run stage-major
// through runEgressBatch — one Env bind for the run, Trace/Timed rebound
// per packet inside ExecuteBatch, drops and survivors counted by the
// batch accounting — then finish per-packet. Returns how many packets
// were dequeued this round.
func (s *Switch) egestBatch(scratch []*pkt.Packet) int {
	n := 0
	for n < len(scratch) {
		p, ok := s.pl.TM().DequeueRR()
		if !ok {
			break
		}
		scratch[n] = p
		n++
	}
	if n == 0 {
		return 0
	}
	for i := 0; i < n; {
		v := scratch[i].Ver.(*progVersion)
		j := i + 1
		for j < n && scratch[j].Ver.(*progVersion) == v {
			j++
		}
		group := scratch[i:j]
		env := s.dp.GetEnv(v.design)
		v.runEgressBatch(s.pl, group, env)
		s.dp.PutEnv(env)
		for k, p := range group {
			p.Ver = nil
			s.egestFinish(p, v, !p.Drop)
			v.unpin()
			group[k] = nil
		}
		i = j
	}
	return n
}

// egestPacket runs the egress half on one dequeued packet under the
// program version it pinned at ingress, transmits the survivor and
// releases the pin.
func (s *Switch) egestPacket(p *pkt.Packet) {
	v := p.Ver.(*progVersion)
	p.Ver = nil
	env := s.dp.GetEnv(v.design)
	env.Trace = p.Trace
	env.Timed = p.Timed
	survived := v.runEgress(s.pl, p, env)
	s.dp.PutEnv(env)
	s.egestFinish(p, v, survived)
	v.unpin()
}

// egestFinish is the post-stage half of egress: drop bookkeeping, punt,
// INT sink, transmit, telemetry finish, flow accounting and pool return.
// Shared by the per-packet path and the batched one; releasing the
// packet's pinned version is the caller's job.
func (s *Switch) egestFinish(p *pkt.Packet, v *progVersion, survived bool) {
	fl := s.flows.Peek(p.InPort)
	if !survived {
		dv := dataplane.DropVerdict(p)
		s.dp.FinishPacket(p, dv)
		if fl != nil {
			fl.Finish(p.RSS, flowstat.VerdictOf(dv), flowLat(p), flowstat.Now())
		}
		s.dp.PutPacket(p)
		return // dropped in egress
	}
	if p.ToCPU {
		s.punt(p)
	}
	dataplane.SurfaceOutPort(p)
	// INT sink at the egress boundary (pipelined mode): strip + decode
	// before transmit, with the sink of the program that stamped.
	if v.sink != nil {
		v.sink.process(p)
	}
	if p.OutPort >= 0 && p.OutPort < s.ports.Len() {
		if port, err := s.ports.Port(p.OutPort); err == nil && !port.Send(p.Data) {
			s.txFailed(p)
		}
	} else {
		s.tel.noPortDrops.Inc()
	}
	verdict := dataplane.Verdict(p, true, s.ports.Len())
	s.dp.FinishPacket(p, verdict)
	if fl != nil {
		fl.Finish(p.RSS, flowstat.VerdictOf(verdict), flowLat(p), flowstat.Now())
	}
	s.dp.PutPacket(p)
}
