package main

import (
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"ipsa/internal/hwmodel"
	"ipsa/internal/telemetry"
)

// endToEnd lists the untraced run's metrics with their units, in
// BENCHMARK.json's order.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_mb", "MB"},
	{"fwd_pps", "1/s"},
	{"lat_us_mean", "us"},
	{"lat_us_p99", "us"},
	{"compile_ms_p50", "ms"},
	{"load_ms_p50", "ms"},
	{"load_ms_p90", "ms"},
	{"write_us_p50", "us"},
}

// perLayer lists the traced run's metrics with their units.
var perLayer = func() []struct{ name, unit string } {
	m := []struct{ name, unit string }{
		{"netio.rx_ns", "ns"}, {"netio.tx_ns", "ns"}, {"pkt.steer_ns", "ns"},
		{"netio.rx_drops", "count"}, {"netio.tx_drops", "count"},
		{"dataplane.admit_ns", "ns"}, {"tsp.parse_ns", "ns"},
	}
	for _, s := range append(append([]string{}, commonStages...), "other") {
		m = append(m, struct{ name, unit string }{"tsp.stage_ns." + s, "ns"})
	}
	for _, s := range append(append([]string{}, commonStages...), "other") {
		m = append(m, struct{ name, unit string }{"tsp.default_ratio." + s, "ratio"})
	}
	for _, t := range append(append([]string{}, commonTables...), "other") {
		m = append(m, struct{ name, unit string }{"mem.lookup_ns." + t, "ns"})
	}
	for _, t := range append(append([]string{}, commonTables...), "other") {
		m = append(m, struct{ name, unit string }{"mem.hit_ratio." + t, "ratio"})
	}
	return append(m, []struct{ name, unit string }{
		{"mem.prefetch_useful", "ratio"},
		{"pipeline.tm_ns", "ns"}, {"pipeline.tm_depth_max", "count"}, {"pipeline.tm_tail_drops", "count"},
		{"flowstat.account_ns", "ns"}, {"flowstat.evict_ratio", "ratio"}, {"flowstat.live_flows", "count"},
		{"dataplane.verdict_ns", "ns"}, {"telemetry.trace_ns", "ns"},
		{"ipbm.forward_ns", "ns"}, {"ipbm.allocs_per_pkt", "count"}, {"ladder.residual_ratio", "ratio"},
		{"backend.compile_ms", "ms"}, {"backend.stages_recompiled", "count"},
		{"ipbm.load_ms", "ms"}, {"ipbm.stages_recompiled", "count"}, {"ipbm.epochs_retired", "count"},
		{"ctrlplane.rtt_us", "us"}, {"ctrlplane.apply_overhead_ms", "ms"},
		{"loadgen.harness_pps", "1/s"}, {"proc.cpu_s_per_mpkt", "s/Mpkt"},
		{"trace.overhead_lat_us", "us"}, {"trace.overhead_pps_ratio", "ratio"},
	}...)
}()

// runner runs one workload once.
type runner struct {
	wl          workload
	dir         string
	seed        int64
	dur         time.Duration
	traceDir    string
	setupRounds int
	log         io.Writer // human-readable report (stderr)
}

func (r runner) share(f float64) time.Duration { return time.Duration(f * float64(r.dur)) }

// rounds is how many rounds a run of r.dur interleaves: up to most, at
// most one per second of run, so a short run keeps phases long enough for
// an operator step to finish inside one.
func (r runner) rounds(most int) int {
	return min(most, int(r.dur/time.Second)+1)
}

// metrics fills a result's metric map from values keyed by name, taking
// units from the declared list; a declared metric with no value is an
// error, so a run never silently drops one.
func metrics(decl []struct{ name, unit string }, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(decl))
	for _, d := range decl {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	return out, nil
}

// untraced is the end-to-end run: build (several times), then rounds of
// the unloaded phase (window 1), the saturated phase (window W) and the
// operator on the idle switch. On c2_insitu_update the operator also runs
// beside both forwarding phases.
func (r runner) untraced() (*result, error) {
	tr, err := referenceTraffic(r.wl, r.dir, r.seed)
	if err != nil {
		return nil, err
	}
	b, setupS, heapMB, err := timedSetup(r.wl, r.dir, tr, r.setupRounds)
	if err != nil {
		return nil, err
	}
	defer b.close()
	op, err := newOperator(b)
	if err != nil {
		return nil, err
	}
	l := b.loop()
	n := r.rounds(rounds)
	phase, opPhase := r.share(0.35/float64(n)), r.share(0.3/float64(n))
	var un, sat loopStats
	var latMean, p99, pps []float64
	q := &op.samples[quiet]
	var compile50, load50, load90, write50 []float64
	for i := 0; i < n; i++ {
		stopOp := r.beside(op)
		u := unloaded(l, phase)
		s := l.run(window, phase, false)
		stopOp()
		lat := nanosToFloats(u.lat, 1e3)
		c0, a0, w0 := len(q.compile), len(q.apply), len(q.write)
		op.runFor(opPhase)
		compile50 = roundPercentile(compile50, q.compile[c0:], 1e6, 50)
		load50 = roundPercentile(load50, q.apply[a0:], 1e6, 50)
		load90 = roundPercentile(load90, q.apply[a0:], 1e6, 90)
		write50 = roundPercentile(write50, q.write[w0:], 1e3, 50)
		// Collect the idle-switch operator's garbage here, not in the next
		// round's forwarding phases.
		runtime.GC()
		latMean = append(latMean, mean(lat))
		p99 = append(p99, percentile(lat, 99))
		pps = append(pps, s.pps())
		un.add(&u)
		sat.add(&s)
	}
	vals := map[string]float64{
		"setup_s":        setupS,
		"heap_mb":        heapMB,
		"fwd_pps":        iqm(pps),
		"lat_us_mean":    iqm(latMean),
		"lat_us_p99":     iqm(p99),
		"compile_ms_p50": iqm(compile50),
		"load_ms_p50":    iqm(load50),
		"load_ms_p90":    iqm(load90),
		"write_us_p50":   iqm(write50),
	}
	m, err := metrics(endToEnd, vals)
	if err != nil {
		return nil, err
	}
	res := &result{
		Attempted: un.injected + sat.injected + op.attempted(),
		Failed:    un.failed() + sat.failed() + uint64(op.failed),
		Metrics:   m,
	}
	res.Correct = res.Failed == 0 && len(q.compile) > 0
	r.report("unloaded", &un)
	r.report("saturated", &sat)
	r.reportOperator(op)
	return res, nil
}

// roundPercentile appends the p-th percentile of one round's duration
// samples (ns, shown in units of div) to dst; a round without samples
// adds nothing.
func roundPercentile(dst []float64, ns []int64, div, p float64) []float64 {
	if len(ns) == 0 {
		return dst
	}
	return append(dst, percentile(nanosToFloats(ns, div), p))
}

// unloaded runs the window-1 phase on one P: the generator, the shard
// reader and the worker then hand each frame on through one busy thread's
// run queue, so its transit is the forward plus goroutine switches, not
// the time a shared host takes to wake an idle vCPU, which drifts with the
// neighbours' load (p99 on c1 fell from ~18 to ~7 µs).
func unloaded(l *loop, phase time.Duration) loopStats {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return l.run(1, phase, true)
}

// beside starts the operator on its own goroutine, beside the forwarding
// phases, when the workload runs it there, and returns the function that
// stops it and waits for it to end. Its samples land in samples[busy]:
// while no P goes idle, Go polls the CCM socket only from sysmon, every
// ~10 ms, so they time the runtime's polling more than the update.
func (r runner) beside(op *operator) (stop func()) {
	if !r.wl.liveOperator {
		return func() {}
	}
	op.load = busy
	halt, done := make(chan struct{}), make(chan struct{})
	go op.run(halt, done)
	return func() {
		close(halt)
		<-done
		op.load = quiet
	}
}

// traced is the per-layer run: the harness ceiling, the closed loop
// without and then with per-frame spans (their difference is the tracing
// overhead), the operator with spans, and the ladder against
// ipbm.ForwardBatch. Spans are written out when the run ends.
func (r runner) traced() (*result, error) {
	tr, err := referenceTraffic(r.wl, r.dir, r.seed)
	if err != nil {
		return nil, err
	}
	b, err := setup(r.wl, r.dir, tr)
	if err != nil {
		return nil, err
	}
	defer b.close()
	hl, closeHarness := wiredHarness(b.tr)
	harness := hl.run(window, r.share(0.1), false)
	closeHarness()

	op, err := newOperator(b)
	if err != nil {
		return nil, err
	}
	op.spans = newSpanLog(1 << 14)
	stopOp := r.beside(op)
	// Untraced (0) and traced (1) closed loops alternate over rounds, so
	// host drift lands on both sides of the tracing-overhead difference.
	l := b.loop()
	frames := newSpanLog(1 << 14)
	n := r.rounds(traceRounds)
	phase := r.share(0.1 / float64(n))
	var un, sat [2]loopStats
	var latMean, pps [2][]float64
	cpu := 0.0
	for i := 0; i < n; i++ {
		for t, spans := range []*spanLog{nil, frames} {
			l.trace(spans)
			u := unloaded(l, phase)
			latMean[t] = append(latMean[t], mean(nanosToFloats(u.lat, 1e3)))
			cpu0 := cpuSeconds()
			s := l.run(window, phase, false)
			if t == 0 {
				cpu += cpuSeconds() - cpu0
			}
			pps[t] = append(pps[t], s.pps())
			un[t].add(&u)
			sat[t].add(&s)
		}
	}
	l.trace(nil)
	stopOp()
	op.runFor(r.share(0.1))
	_, tailDrops := b.sw.TMStats()
	var rxDrops, txDrops uint64
	for _, p := range b.port {
		st := p.DetailedStats()
		rxDrops += st.RxDrops
		txDrops += st.TxDrops
	}
	depthMax := 0.0
	for _, mp := range b.sw.MetricsDump() {
		if mp.Name == "ipsa_tm_watermark" && mp.Value > depthMax {
			depthMax = mp.Value
		}
	}

	sl := newSpanLog(1 << 14)
	sl.calibrate()
	lg, err := newLadder(b, sl)
	if err != nil {
		return nil, err
	}
	lg.run(r.share(0.4))

	base := filepath.Join(r.traceDir, fmt.Sprintf("%s-seed%d", r.wl.name, r.seed))
	for suffix, log := range map[string]*spanLog{"frames": frames, "ladder": sl, "operator": op.spans} {
		if err := log.write(base + "-" + suffix + ".jsonl"); err != nil {
			return nil, err
		}
	}

	vals := lg.layerValues()
	q := &op.samples[quiet]
	applyOver := make([]float64, len(q.apply))
	for i := range q.apply {
		applyOver[i] = float64(q.apply[i]-q.loadNanos[i]) / 1e6
	}
	for k, v := range map[string]float64{
		"netio.rx_drops":              float64(rxDrops),
		"netio.tx_drops":              float64(txDrops),
		"pipeline.tm_depth_max":       depthMax,
		"pipeline.tm_tail_drops":      float64(tailDrops),
		"backend.compile_ms":          percentile(nanosToFloats(q.compile, 1e6), 50),
		"backend.stages_recompiled":   median(q.backendSR),
		"ipbm.load_ms":                percentile(nanosToFloats(q.loadNanos, 1e6), 50),
		"ipbm.stages_recompiled":      median(q.switchSR),
		"ipbm.epochs_retired":         op.reclaimed(),
		"ctrlplane.rtt_us":            percentile(nanosToFloats(q.rtt, 1e3), 50),
		"ctrlplane.apply_overhead_ms": percentile(applyOver, 50),
		"loadgen.harness_pps":         harness.pps(),
		"proc.cpu_s_per_mpkt":         ratio(cpu, float64(sat[0].good)/1e6),
		"trace.overhead_lat_us":       iqm(latMean[1]) - iqm(latMean[0]),
		"trace.overhead_pps_ratio":    ratio(iqm(pps[0])-iqm(pps[1]), iqm(pps[0])),
	} {
		vals[k] = v
	}
	m, err := metrics(perLayer, vals)
	if err != nil {
		return nil, err
	}
	res := &result{
		Attempted: harness.injected + un[0].injected + sat[0].injected + un[1].injected + sat[1].injected +
			lg.frames + lg.fwdFrames + op.attempted(),
		Failed: harness.failed() + un[0].failed() + sat[0].failed() + un[1].failed() + sat[1].failed() +
			lg.bad + uint64(op.failed),
		Metrics: m,
	}
	res.Correct = res.Failed == 0 && len(q.compile) > 0 && lg.good == lg.frames+lg.fwdFrames
	r.report("harness", &harness)
	r.report("unloaded", &un[0])
	r.report("saturated", &sat[0])
	r.reportOperator(op)
	lg.report(r.log, r.wl.uc, vals)
	return res, nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func (r runner) report(name string, st *loopStats) {
	if r.log == nil {
		return
	}
	lat := nanosToFloats(st.lat, 1e3)
	fmt.Fprintf(r.log, "%-10s injected=%d good=%d bad=%d lost=%d pps=%.0f", name, st.injected, st.good, st.bad, st.lost, st.pps())
	if len(lat) > 0 {
		fmt.Fprintf(r.log, " lat_us p50=%.2f p99=%.2f (n=%d)", percentile(lat, 50), percentile(lat, 99), len(lat))
	}
	fmt.Fprintln(r.log)
}

func (r runner) reportOperator(op *operator) {
	if r.log == nil {
		return
	}
	fmt.Fprintf(r.log, "operator   cycles=%d failed=%d", op.cycles, op.failed)
	if op.err != nil {
		fmt.Fprintf(r.log, " last error: %v", op.err)
	}
	fmt.Fprintln(r.log)
	for load, name := range []string{"quiet", "busy"} {
		s := &op.samples[load]
		if len(s.apply) == 0 {
			continue
		}
		apply, ld := nanosToFloats(s.apply, 1e6), nanosToFloats(s.loadNanos, 1e6)
		fmt.Fprintf(r.log, "  %-9s compile_ms p50=%.3f apply_ms p50=%.3f p90=%.3f (n=%d) load_ms p50=%.3f p90=%.3f write_us p50=%.1f p90=%.1f\n",
			name, percentile(nanosToFloats(s.compile, 1e6), 50), percentile(apply, 50), percentile(apply, 90), len(apply),
			percentile(ld, 50), percentile(ld, 90), percentile(nanosToFloats(s.write, 1e3), 50), percentile(nanosToFloats(s.write, 1e3), 90))
	}
}

// layerValues turns the ladder's self times and counters into the
// per-layer metrics: ns per frame for time, ratios for outcomes.
func (lg *ladder) layerValues() map[string]float64 {
	sl := lg.sl
	per := func(name string) float64 { return ratio(float64(sl.selfNanos(name)), float64(lg.frames)) }
	vals := map[string]float64{
		"netio.rx_ns":          per("netio.rx"),
		"netio.tx_ns":          per("netio.tx"),
		"pkt.steer_ns":         per("pkt.steer"),
		"dataplane.admit_ns":   per("dataplane.admit"),
		"tsp.parse_ns":         per("tsp.parse"),
		"pipeline.tm_ns":       per("pipeline.tm"),
		"flowstat.account_ns":  per("flowstat.account"),
		"dataplane.verdict_ns": per("dataplane.verdict"),
		"telemetry.trace_ns":   per("telemetry.trace"),
		"ipbm.forward_ns":      ratio(float64(sl.selfNanos("ipbm.forward")), float64(lg.fwdFrames)),
		"ipbm.allocs_per_pkt":  ratio(float64(lg.allocs), float64(lg.fwdFrames)),
	}
	// Stages and tables a workload does not have read as zero.
	for _, s := range commonStages {
		vals["tsp.stage_ns."+s], vals["tsp.default_ratio."+s] = 0, 0
	}
	for _, t := range commonTables {
		vals["mem.lookup_ns."+t], vals["mem.hit_ratio."+t] = 0, 0
	}
	// The switch-side sum: every layer ForwardBatch also runs (rx aside).
	sum := 0.0
	for _, n := range []string{"netio.tx_ns", "pkt.steer_ns", "dataplane.admit_ns", "tsp.parse_ns",
		"pipeline.tm_ns", "flowstat.account_ns", "dataplane.verdict_ns", "telemetry.trace_ns"} {
		sum += vals[n]
	}
	var otherNs, otherPk, otherDef float64
	for _, st := range lg.stages() {
		ns := per("tsp.stage." + st.name)
		sum += ns
		pk, _, _ := st.sr.Stats()
		def := float64(st.sr.Defaults())
		if slices.Contains(commonStages, st.name) {
			vals["tsp.stage_ns."+st.name] = ns
			vals["tsp.default_ratio."+st.name] = ratio(def, float64(pk))
		} else {
			otherNs += ns
			otherPk += float64(pk)
			otherDef += def
		}
	}
	vals["tsp.stage_ns.other"] = otherNs
	vals["tsp.default_ratio.other"] = ratio(otherDef, otherPk)
	var tOtherNs, tOtherHit, tOtherAll, pfAsk, pfYes float64
	addTable := func(name string, hits, misses uint64) {
		ns := per("mem.lookup." + name)
		sum += ns
		if slices.Contains(commonTables, name) {
			vals["mem.lookup_ns."+name] = ns
			vals["mem.hit_ratio."+name] = ratio(float64(hits), float64(hits+misses))
			return
		}
		tOtherNs += ns
		tOtherHit += float64(hits)
		tOtherAll += float64(hits + misses)
	}
	for name, t := range lg.tables {
		addTable(name, t.hits, t.misses)
		pfAsk += float64(t.pfAsk)
		pfYes += float64(t.pfYes)
	}
	for name, t := range lg.sels {
		addTable(name, t.hits, t.misses)
	}
	vals["mem.lookup_ns.other"] = tOtherNs
	vals["mem.hit_ratio.other"] = ratio(tOtherHit, tOtherAll)
	vals["mem.prefetch_useful"] = ratio(pfYes, pfAsk)
	var evictions float64
	lg.flows.Collect(func(mp telemetry.MetricPoint) {
		if mp.Name == "ipsa_flow_evictions_total" {
			evictions += mp.Value
		}
	})
	vals["flowstat.evict_ratio"] = ratio(evictions, float64(lg.frames))
	vals["flowstat.live_flows"] = float64(lg.flows.ActiveFlows())
	vals["ladder.residual_ratio"] = ratio(vals["ipbm.forward_ns"]-sum, vals["ipbm.forward_ns"])
	lg.sum = sum
	return vals
}

// report prints the cost ladder beside the hardware model's per-component
// cycle accounting for the same use case (paper Sec. 5).
func (lg *ladder) report(w io.Writer, uc string, vals map[string]float64) {
	if w == nil {
		return
	}
	fmt.Fprintf(w, "\ncost ladder (%s, ns per frame, self time; %d ladder + %d forward frames)\n", lg.b.wl.name, lg.frames, lg.fwdFrames)
	for _, n := range []string{"netio.rx_ns", "pkt.steer_ns", "dataplane.admit_ns", "flowstat.account_ns", "tsp.parse_ns"} {
		fmt.Fprintf(w, "  %-34s %8.1f\n", n, vals[n])
	}
	for _, st := range lg.stages() {
		fmt.Fprintf(w, "  %-34s %8.1f\n", "tsp.stage."+st.name, ratio(float64(lg.sl.selfNanos("tsp.stage."+st.name)), float64(lg.frames)))
	}
	for _, name := range lg.sl.names {
		if strings.HasPrefix(name, "mem.lookup.") {
			fmt.Fprintf(w, "  %-34s %8.1f\n", name, ratio(float64(lg.sl.selfNanos(name)), float64(lg.frames)))
		}
	}
	for _, n := range []string{"pipeline.tm_ns", "dataplane.verdict_ns", "telemetry.trace_ns", "netio.tx_ns"} {
		fmt.Fprintf(w, "  %-34s %8.1f\n", n, vals[n])
	}
	fmt.Fprintf(w, "  %-34s %8.1f\n  %-34s %8.1f\n  %-34s %8.3f\n", "sum (rx excluded)", lg.sum,
		"ipbm.forward_ns", vals["ipbm.forward_ns"], "ladder.residual_ratio", vals["ladder.residual_ratio"])
	p := hwmodel.DefaultCycleParams()
	fmt.Fprintf(w, "\nhwmodel %s cycles per packet at %.0f MHz (template load | bus accesses | varlen parse | II)\n", uc, p.ClockMHz)
	var tl, acc, vl, ii, wsum float64
	for _, c := range hwmodel.UseCaseClasses(uc) {
		maxAcc := 0
		for _, tspTables := range c.Applied {
			a := 0
			for _, t := range tspTables {
				a += t.Accesses(p.IPSABusBits)
			}
			maxAcc = max(maxAcc, a)
		}
		v := 0
		if c.ParsesVarLen {
			v = p.VarLenPenaltyCycles
		}
		fmt.Fprintf(w, "  %-12s w=%.2f  %d | %d | %d | %.0f\n", c.Name, c.Weight, p.TemplateLoadCycles, maxAcc, v, p.IPSAII(c))
		tl += c.Weight * float64(p.TemplateLoadCycles)
		acc += c.Weight * float64(maxAcc)
		vl += c.Weight * float64(v)
		ii += c.Weight * p.IPSAII(c)
		wsum += c.Weight
	}
	fmt.Fprintf(w, "  %-12s         %.2f | %.2f | %.2f | %.2f  (%.1f ns/pkt at the model clock)\n", "weighted",
		tl/wsum, acc/wsum, vl/wsum, ii/wsum, ii/wsum*1e3/p.ClockMHz)
}
