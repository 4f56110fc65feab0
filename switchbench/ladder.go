package main

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"ipsa/internal/dataplane"
	"ipsa/internal/flowstat"
	"ipsa/internal/ipbm"
	"ipsa/internal/match"
	"ipsa/internal/mem"
	"ipsa/internal/netio"
	"ipsa/internal/pipeline"
	"ipsa/internal/pkt"
	"ipsa/internal/telemetry"
	"ipsa/internal/tsp"
)

// ladderBatch is the frames one ladder or forward step handles, the
// sharded runner's default batch.
const ladderBatch = ipbm.DefaultBatch

// commonStages and commonTables are the base design's stages and tables,
// present in every workload; the use case's own (and nexthop, which C1
// replaces) fold into "other" so every workload reports the same names.
var (
	commonStages = []string{"port_map", "bd_vrf", "l2_l3", "ipv4_host_fib", "ipv4_lpm_fib",
		"ipv6_host_fib", "ipv6_lpm_fib", "l2_l3_rewrite", "dmac"}
	commonTables = []string{"port_map_tbl", "bd_vrf_tbl", "l2_l3_tbl", "ipv4_host", "ipv4_lpm",
		"ipv6_host", "ipv6_lpm", "smac_tbl", "dmac_tbl"}
)

// stageRef is one stage the ladder executes, with its span layer.
type stageRef struct {
	name string
	sr   *tsp.StageRuntime
	l    layer
}

// ladder re-composes the switch's per-packet path from the public call
// of each layer, on the switch's own tables, with a span around every
// call: rx (Inject+RecvBatch), steer (RSSHash), admit (GetPacket), flow
// accounting (Touch+Finish), parse (EnsureAll), each stage
// (ExecuteBatch) with each table lookup inside it (Lookup/Prefetch), TM
// (Admit+DequeueRR), verdict, trace sampling, and tx (XmitBatch+Drain).
// It alternates with ipbm.ForwardBatch on the same frames, so the layer
// self times can be set against the whole path.
type ladder struct {
	b  *bench
	sl *spanLog

	core    *dataplane.Core
	d       *dataplane.Design
	env     *tsp.Env
	want    []pkt.HeaderID
	ingress []stageRef
	egress  []stageRef
	tables  map[string]*timedTable
	sels    map[string]*timedSel
	tm      *pipeline.TrafficManager
	flows   *flowstat.Set
	fl      *flowstat.Table
	tracer  *telemetry.Tracer
	rx      *netio.ChanPort
	tx      []*netio.ChanPort

	lRoot, lRx, lSteer, lAdmit, lFlow, lParse, lTM, lVerdict, lTrace, lTx, lFwd layer

	// per-batch scratch
	bufs    [][]byte
	flowOf  []int32
	idOf    []uint64
	recv    [][]byte
	hash    []uint64
	ps      []*pkt.Packet
	eps     []*pkt.Packet
	verd    []string
	txq     [][][]byte
	outs    [][]byte
	outPort []int
	seq     uint64

	frames, fwdFrames uint64
	good, bad         uint64
	allocs            uint64
	sum               float64 // Σ layer self times per frame, rx excluded
}

func newLadder(b *bench, sl *spanLog) (*ladder, error) {
	cfg := b.sw.Config()
	lg := &ladder{b: b, sl: sl, core: dataplane.NewCore(),
		tables: map[string]*timedTable{}, sels: map[string]*timedSel{}}
	lg.d = lg.core.Install(cfg, tsp.NewRegisterFile(cfg.Registers))
	lg.env = lg.core.GetEnv(lg.d)
	runtimes, err := tsp.BuildStageRuntimes(cfg)
	if err != nil {
		return nil, err
	}
	pl := b.sw.Pipeline()
	sel := pl.Selector()
	seen := map[pkt.HeaderID]bool{}
	for i := 0; i < pl.NumTSPs(); i++ {
		t, _ := pl.TSP(i)
		for _, name := range t.StageNames() {
			sr := runtimes[name]
			if sr == nil {
				return nil, fmt.Errorf("ladder: stage %q not in config", name)
			}
			sr.Bind(lg)
			ref := stageRef{name: name, sr: sr, l: sl.layerOf("tsp.stage." + name)}
			if i <= sel.TMIn {
				lg.ingress = append(lg.ingress, ref)
			} else if i >= sel.TMOut {
				lg.egress = append(lg.egress, ref)
			}
			for _, h := range cfg.Stages[name].Parse {
				if !seen[h] {
					seen[h] = true
					lg.want = append(lg.want, h)
				}
			}
		}
	}
	n := b.sw.Ports().Len()
	lg.tm = pipeline.NewTrafficManager(n, 1024)
	lg.flows = flowstat.NewSet(1, flowstat.Config{})
	lg.fl = lg.flows.Lane(0)
	lg.tracer = telemetry.NewTracer(256, ipbm.DefaultOptions().TraceEvery)
	lg.rx = netio.NewChanPort(1024)
	for i := 0; i < n; i++ {
		lg.tx = append(lg.tx, netio.NewChanPort(1024))
	}
	lg.txq = make([][][]byte, n)
	lg.lRoot, lg.lRx, lg.lSteer, lg.lAdmit = sl.layerOf("ladder.batch"), sl.layerOf("netio.rx"), sl.layerOf("pkt.steer"), sl.layerOf("dataplane.admit")
	lg.lFlow, lg.lParse, lg.lTM = sl.layerOf("flowstat.account"), sl.layerOf("tsp.parse"), sl.layerOf("pipeline.tm")
	lg.lVerdict, lg.lTrace, lg.lTx, lg.lFwd = sl.layerOf("dataplane.verdict"), sl.layerOf("telemetry.trace"), sl.layerOf("netio.tx"), sl.layerOf("ipbm.forward")
	maxLen := 0
	for _, t := range b.tr.tmpl {
		maxLen = max(maxLen, len(t))
	}
	for i := 0; i < ladderBatch; i++ {
		lg.bufs = append(lg.bufs, make([]byte, 0, maxLen))
	}
	lg.flowOf = make([]int32, ladderBatch)
	lg.idOf = make([]uint64, ladderBatch)
	lg.recv = make([][]byte, ladderBatch)
	lg.hash = make([]uint64, ladderBatch)
	lg.ps = make([]*pkt.Packet, 0, ladderBatch)
	lg.eps = make([]*pkt.Packet, 0, ladderBatch)
	lg.verd = make([]string, ladderBatch)
	return lg, nil
}

// stages lists the stages in pipeline order, ingress then egress.
func (lg *ladder) stages() []stageRef {
	return append(append([]stageRef{}, lg.ingress...), lg.egress...)
}

// fill stamps the next batch of scheduled frames into the batch buffers.
func (lg *ladder) fill() {
	tr := lg.b.tr
	for i := range lg.bufs {
		lg.seq++
		f := tr.next()
		id := lg.seq<<16 | uint64(i)
		lg.flowOf[i], lg.idOf[i] = f, id
		lg.bufs[i] = tr.stamp(lg.bufs[i], f, id)
	}
}

// verify checks one egress frame of the current batch; a frame no slot
// of the batch owns counts as bad at once, a wrong one in verifyOuts.
func (lg *ladder) verify(port int, d []byte) {
	if len(d) < idLen {
		lg.bad++
		return
	}
	id := binary.BigEndian.Uint64(d[len(d)-idLen:])
	i := int(id & 0xffff)
	if i >= len(lg.idOf) || lg.idOf[i] != id {
		lg.bad++
		return
	}
	if lg.b.tr.check(lg.flowOf[i], port, d, id) {
		lg.good++
		lg.idOf[i] = 0
	}
}

// step runs one batch through the re-composed path.
func (lg *ladder) step() {
	lg.fill()
	sl := lg.sl
	n := len(lg.bufs)
	sl.frame(lg.idOf[0], n)
	sl.begin(lg.lRoot)

	sl.begin(lg.lRx)
	for _, f := range lg.bufs {
		lg.rx.Inject(f)
	}
	k, _ := lg.rx.RecvBatch(lg.recv)
	sl.end()

	sl.begin(lg.lSteer)
	for i := 0; i < k; i++ {
		lg.hash[i] = pkt.RSSHash(lg.recv[i])
	}
	sl.end()

	sl.begin(lg.lAdmit)
	ps := lg.ps[:0]
	for i := 0; i < k; i++ {
		p, err := lg.core.GetPacket(lg.d, lg.recv[i], inPort)
		if err != nil {
			continue
		}
		p.RSS = lg.hash[i]
		ps = append(ps, p)
	}
	sl.end()

	now := flowstat.Now()
	sl.begin(lg.lFlow)
	for _, p := range ps {
		lg.fl.Touch(p.RSS, p.Data, len(p.Data), now)
	}
	sl.end()

	sl.begin(lg.lParse)
	for _, p := range ps {
		lg.d.Parser.EnsureAll(p, lg.want)
	}
	sl.end()

	for _, st := range lg.ingress {
		sl.begin(st.l)
		st.sr.ExecuteBatch(ps, lg.d.Parser, lg, lg.env)
		sl.end()
	}

	sl.begin(lg.lTM)
	eps := lg.eps[:0]
	for _, p := range ps {
		if !p.Drop && !lg.tm.Admit(p) {
			p.Drop = true
		}
	}
	for {
		p, ok := lg.tm.DequeueRR()
		if !ok {
			break
		}
		eps = append(eps, p)
	}
	sl.end()

	for _, st := range lg.egress {
		sl.begin(st.l)
		st.sr.ExecuteBatch(eps, lg.d.Parser, lg, lg.env)
		sl.end()
	}

	nports := len(lg.tx)
	sl.begin(lg.lVerdict)
	for i, p := range ps {
		ok := !p.Drop
		if ok {
			dataplane.SurfaceOutPort(p)
		}
		lg.verd[i] = dataplane.Verdict(p, ok, nports)
	}
	sl.end()

	sl.begin(lg.lTrace)
	for range ps {
		lg.tracer.Commit(lg.tracer.Sample())
	}
	sl.end()

	sl.begin(lg.lFlow)
	for i, p := range ps {
		lg.fl.Finish(p.RSS, flowstat.VerdictOf(lg.verd[i]), -1, now)
	}
	sl.end()

	sl.begin(lg.lTx)
	for _, p := range ps {
		if !p.Drop && p.OutPort >= 0 && p.OutPort < nports {
			lg.txq[p.OutPort] = append(lg.txq[p.OutPort], p.Data)
		}
	}
	for port, q := range lg.txq {
		if len(q) > 0 {
			lg.tx[port].XmitBatch(q)
		}
	}
	lg.outs, lg.outPort = lg.outs[:0], lg.outPort[:0]
	for port, q := range lg.txq {
		for range q {
			d, _ := lg.tx[port].Drain()
			lg.outs = append(lg.outs, d)
			lg.outPort = append(lg.outPort, port)
		}
		lg.txq[port] = q[:0]
	}
	sl.end()

	sl.end() // root
	lg.verifyOuts()
	for i, p := range ps {
		lg.core.PutPacket(p)
		ps[i] = nil
	}
	lg.frames += uint64(n)
}

// forward runs one batch of the same schedule through ipbm.ForwardBatch
// and drains the switch's ports: the whole path the ladder decomposes,
// minus rx (ForwardBatch takes frames, not a port).
func (lg *ladder) forward() {
	lg.fill()
	sl := lg.sl
	sl.frame(lg.idOf[0], len(lg.bufs))
	lg.outs, lg.outPort = lg.outs[:0], lg.outPort[:0]
	sl.begin(lg.lFwd)
	if _, err := lg.b.sw.ForwardBatch(lg.bufs, inPort); err != nil {
		lg.bad++
	}
	for i, p := range lg.b.port {
		for {
			d, ok := p.Drain()
			if !ok {
				break
			}
			lg.outs = append(lg.outs, d)
			lg.outPort = append(lg.outPort, i)
		}
	}
	sl.end()
	lg.verifyOuts()
	lg.fwdFrames += uint64(len(lg.bufs))
}

// verifyOuts checks the batch's drained frames, outside every span, and
// counts the frames of the batch that did not come back right.
func (lg *ladder) verifyOuts() {
	for i, d := range lg.outs {
		lg.verify(lg.outPort[i], d)
	}
	for i, id := range lg.idOf {
		if id != 0 {
			lg.bad++
			lg.idOf[i] = 0
		}
	}
}

// run alternates chunks of ladder steps and forward steps for dur and
// counts the heap allocations of the forward steps.
func (lg *ladder) run(dur time.Duration) {
	const chunk = 32
	var ms runtime.MemStats
	deadline := monoNanos() + int64(dur)
	for monoNanos() < deadline {
		for i := 0; i < chunk; i++ {
			lg.step()
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for i := 0; i < chunk; i++ {
			lg.forward()
		}
		runtime.ReadMemStats(&ms)
		lg.allocs += ms.Mallocs - before
	}
}

// --- timed table handles ----------------------------------------------------

// timedTable wraps a switch table handle so every lookup and prefetch the
// stage executor makes is a span of the table's mem layer. It keeps the
// handle's optional fast paths (direct lookups, prefetch advice) so the
// fused executor runs the same code it runs inside the switch.
type timedTable struct {
	t            *mem.Table
	sl           *spanLog
	l            layer
	hits, misses uint64
	pfAsk, pfYes uint64
}

func (w *timedTable) count(ok bool) {
	if ok {
		w.hits++
	} else {
		w.misses++
	}
}

func (w *timedTable) Lookup(key []byte) (match.Result, bool) {
	w.sl.begin(w.l)
	r, ok := w.t.LookupNoCount(key)
	w.sl.end()
	w.count(ok)
	return r, ok
}

func (w *timedTable) LookupNoCount(key []byte) (match.Result, bool) { return w.Lookup(key) }

// AddLookupStats is dropped: the ladder counts its own hits so the
// switch's table counters only see the switch's traffic.
func (w *timedTable) AddLookupStats(hits, misses uint64) {}

func (w *timedTable) CanPrefetch() bool { return w.t.CanPrefetch() }

func (w *timedTable) Prefetch(key []byte) uint64 {
	w.sl.begin(w.l)
	v := w.t.Prefetch(key)
	w.sl.end()
	return v
}

func (w *timedTable) PrefetchUseful() bool {
	w.pfAsk++
	u := w.t.PrefetchUseful()
	if u {
		w.pfYes++
	}
	return u
}

// timedSel is the selector (ECMP) counterpart of timedTable.
type timedSel struct {
	rs           tsp.ResolvedSelector
	sl           *spanLog
	l            layer
	hits, misses uint64
}

func (w *timedSel) LookupMember(group []byte, h uint64) (match.Result, bool) {
	w.sl.begin(w.l)
	r, ok := w.rs.LookupMember(group, h)
	w.sl.end()
	if ok {
		w.hits++
	} else {
		w.misses++
	}
	return r, ok
}

// ResolveTable hands stage runtimes a timed handle on the switch table.
func (lg *ladder) ResolveTable(name string) (tsp.ResolvedTable, bool) {
	if w, ok := lg.tables[name]; ok {
		return w, true
	}
	t, ok := lg.b.sw.Storage().Table(name)
	if !ok {
		return nil, false
	}
	w := &timedTable{t: t, sl: lg.sl, l: lg.sl.layerOf("mem.lookup." + name)}
	lg.tables[name] = w
	return w, true
}

// ResolveSelector hands stage runtimes a timed selector handle.
func (lg *ladder) ResolveSelector(name string) (tsp.ResolvedSelector, bool) {
	if w, ok := lg.sels[name]; ok {
		return w, true
	}
	rs, ok := lg.b.sw.ResolveSelector(name)
	if !ok {
		return nil, false
	}
	w := &timedSel{rs: rs, sl: lg.sl, l: lg.sl.layerOf("mem.lookup." + name)}
	lg.sels[name] = w
	return w, true
}

// Lookup is the name-keyed fallback of tsp.TableBackend.
func (lg *ladder) Lookup(table string, key []byte) (match.Result, bool) {
	if w, ok := lg.ResolveTable(table); ok {
		return w.Lookup(key)
	}
	return match.Result{}, false
}

// LookupSelector is the name-keyed selector fallback.
func (lg *ladder) LookupSelector(table string, group []byte, h uint64) (match.Result, bool) {
	if w, ok := lg.ResolveSelector(table); ok {
		return w.LookupMember(group, h)
	}
	return match.Result{}, false
}
