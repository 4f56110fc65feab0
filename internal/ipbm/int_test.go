package ipbm

import (
	"sync/atomic"
	"testing"
	"time"

	"ipsa/internal/intmd"
	"ipsa/internal/tsp"
)

// counterClock is a deterministic monotonic clock for differential INT
// tests: every read advances 100ns.
func counterClock() func() int64 {
	var n int64
	return func() int64 {
		n += 100
		return n
	}
}

// TestIntEndToEnd: enable INT in situ, route a packet, and check the
// whole arc — stamps accumulate per stage, the sink strips the trailer
// before the packet leaves, the decoded report names the stages in
// pipeline order, and the audit trail records the toggle.
func TestIntEndToEnd(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	sw.intNow = counterClock()
	sw.intDepth = func(port int) int { return 3 }

	// Before enabling: no stamping, no reports.
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, routerMAC, 64), inPort)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := intmd.Parse(p.Data); ok {
		t.Fatal("INT-disabled switch emitted a trailer")
	}
	if got := sw.IntReport(0); got != nil {
		t.Fatalf("reports while disabled: %v", got)
	}

	if err := sw.SetInt(true); err != nil {
		t.Fatal(err)
	}
	if !sw.IntEnabled() {
		t.Fatal("SetInt(true) did not stick")
	}
	plainLen := len(p.Data)
	p, err = sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, routerMAC, 64), inPort)
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop {
		t.Fatal("routed packet dropped with INT on")
	}
	// The sink stripped the trailer: the wire packet is byte-identical in
	// length to the INT-off run.
	if _, _, ok := intmd.Parse(p.Data); ok {
		t.Error("trailer left the switch")
	}
	if len(p.Data) != plainLen {
		t.Errorf("stripped length %d != plain length %d", len(p.Data), plainLen)
	}

	reports := sw.IntReport(0)
	if len(reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(reports))
	}
	rep := reports[0]
	if len(rep.Hops) < 3 {
		t.Fatalf("hop records = %d, want >= 3 (path %s)", len(rep.Hops), rep.Path())
	}
	if rep.InPort != inPort || rep.OutPort != outPort {
		t.Errorf("report ports in=%d out=%d", rep.InPort, rep.OutPort)
	}
	for i, h := range rep.Hops {
		if h.SwitchID != DefaultOptions().IntSwitchID {
			t.Errorf("hop %d switch id = %d", i, h.SwitchID)
		}
		if h.Stage == "" {
			t.Errorf("hop %d stage id %#x unresolved", i, h.StageID)
		}
		if h.QDepth != 3 {
			t.Errorf("hop %d qdepth = %d, want injected 3", i, h.QDepth)
		}
		if h.OutNanos < h.InNanos {
			t.Errorf("hop %d time runs backwards: in=%d out=%d", i, h.InNanos, h.OutNanos)
		}
		// In-band latency chaining: each hop starts where the previous
		// one ended.
		if i > 0 && h.InNanos != rep.Hops[i-1].OutNanos {
			t.Errorf("hop %d in=%d != hop %d out=%d", i, h.InNanos, i-1, rep.Hops[i-1].OutNanos)
		}
	}

	// Sink fed the per-stage series and counters.
	if v := sw.tel.Reg.Counter("ipsa_int_stamps_total").Value(); v != uint64(len(rep.Hops)) {
		t.Errorf("stamps counter = %d, want %d", v, len(rep.Hops))
	}
	if v := sw.tel.Reg.Counter("ipsa_int_reports_total").Value(); v != 1 {
		t.Errorf("reports counter = %d", v)
	}

	// Disable in situ: stamping stops, and both toggles left audit events.
	if err := sw.SetInt(false); err != nil {
		t.Fatal(err)
	}
	p, err = sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, routerMAC, 64), inPort)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := intmd.Parse(p.Data); ok {
		t.Error("trailer present after disable")
	}
	events := sw.EventsDump(0)
	kinds := make(map[string]int)
	for _, ev := range events {
		kinds[ev.Kind]++
	}
	if kinds["int_enable"] != 1 || kinds["int_disable"] != 1 {
		t.Errorf("audit kinds: %v", kinds)
	}
	for _, ev := range events {
		if (ev.Kind == "int_enable" || ev.Kind == "int_disable") &&
			(ev.TSPsWritten == 0 || ev.ConfigHash == "") {
			t.Errorf("INT toggle event lacks audit detail: %+v", ev)
		}
	}
}

// TestIntDifferentialCompiledVsInterp: with a deterministic clock and
// queue-depth source injected into both switches, the fused IntStamp
// closure and the interpreter epilogue must produce byte-identical
// packets and hop-identical sink reports.
func TestIntDifferentialCompiledVsInterp(t *testing.T) {
	interpOpts := DefaultOptions()
	interpOpts.Exec = tsp.ExecInterp
	a := switchFromOpts(t, compilerOpts(), DefaultOptions())
	b := switchFromOpts(t, compilerOpts(), interpOpts)
	for _, sw := range []*Switch{a, b} {
		sw.intNow = counterClock()
		sw.intDepth = func(port int) int { return port }
		if err := sw.SetInt(true); err != nil {
			t.Fatal(err)
		}
	}
	runDiff(t, a, b, diffTraffic(t, 48), "INT fused vs interp")

	ra, rb := a.IntReport(0), b.IntReport(0)
	if len(ra) == 0 || len(ra) != len(rb) {
		t.Fatalf("report counts diverged: fused=%d interp=%d", len(ra), len(rb))
	}
	for i := range ra {
		ha, hb := ra[i].Hops, rb[i].Hops
		if len(ha) != len(hb) {
			t.Fatalf("report %d hop counts diverged: %d vs %d", i, len(ha), len(hb))
		}
		for j := range ha {
			if ha[j] != hb[j] {
				t.Fatalf("report %d hop %d diverged:\nfused:  %+v\ninterp: %+v",
					i, j, ha[j], hb[j])
			}
		}
	}
}

// TestIntSoakPipelinedConservation: INT toggled both ways under live
// pipelined traffic must lose no packets — every injected frame ends in
// exactly one verdict counter — and must leave no executor faults.
func TestIntSoakPipelinedConservation(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	if err := sw.RunPipelined(2); err != nil {
		t.Fatal(err)
	}
	defer sw.Shutdown()
	in, err := sw.Ports().Port(inPort)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sw.Ports().Port(outPort)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the egress ring from filling: packets sent to a full ring are
	// tx-dropped at the port, which is fine, but drain keeps it moving.
	var stopDrain atomic.Bool
	go func() {
		for !stopDrain.Load() {
			if _, ok := out.Drain(); !ok {
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()

	// waitFor spins until cond() or the deadline; injection outpaces the
	// workers, so the toggle points synchronize on observed effects
	// rather than injection counts.
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	stamps := func() uint64 { return sw.tel.Reg.Counter("ipsa_int_stamps_total").Value() }
	reports := func() uint64 { return sw.tel.Reg.Counter("ipsa_int_reports_total").Value() }

	const n = 600
	injected := 0
	for i := 0; i < n; i++ {
		switch i {
		case n / 3:
			if err := sw.SetInt(true); err != nil {
				t.Fatal(err)
			}
		case 2 * n / 3:
			// Only flip back once the INT window demonstrably carried
			// traffic end to end (stamped AND sunk).
			waitFor("stamped reports", func() bool { return stamps() > 0 && reports() > 0 })
			if err := sw.SetInt(false); err != nil {
				t.Fatal(err)
			}
		}
		for !in.Inject(v4Packet(t, [4]byte{10, 1, 0, byte(i)}, routerMAC, 64)) {
			time.Sleep(time.Millisecond)
		}
		injected++
	}

	// Conservation: wait for every injected packet to reach a verdict.
	finished := func() uint64 {
		var sum uint64
		for _, c := range sw.tel.verdictCounters() {
			sum += c.Value()
		}
		return sum
	}
	deadline := time.Now().Add(5 * time.Second)
	for finished() < uint64(injected) {
		if time.Now().After(deadline) {
			t.Fatalf("conservation: %d/%d packets reached a verdict (tm depth %d)",
				finished(), injected, sw.Pipeline().TM().DepthSum())
		}
		time.Sleep(time.Millisecond)
	}
	stopDrain.Store(true)
	if got := finished(); got != uint64(injected) {
		t.Errorf("verdicts %d != injected %d", got, injected)
	}
	if f := sw.Faults(); f.BadTemplate.Load() != 0 || f.InvalidHeaderAccess.Load() != 0 {
		t.Errorf("faults after INT soak: bad=%d invalid=%d",
			f.BadTemplate.Load(), f.InvalidHeaderAccess.Load())
	}
	// The INT window actually stamped and sank reports.
	if stamps() == 0 {
		t.Error("no stamps during the INT window")
	}
	if reports() == 0 {
		t.Error("no sink reports during the INT window")
	}
	// The toggles are on the audit trail as epoch publishes.
	var toggles int
	for _, ev := range sw.EventsDump(0) {
		if ev.Kind == "int_enable" || ev.Kind == "int_disable" {
			toggles++
			if ev.Epoch == 0 {
				t.Errorf("toggle event without an epoch: %+v", ev)
			}
		}
	}
	if toggles != 2 {
		t.Errorf("toggle events = %d, want 2", toggles)
	}
}

// TestIntDisabledZeroAlloc pins the tentpole's overhead contract: with
// INT off (the default), the steady-state forwarding path still performs
// zero heap allocations per packet. `make bench-int` runs this.
func TestIntDisabledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	sw, _ := newBaseSwitch(t)
	raw := v4Packet(t, [4]byte{10, 0, 0, 2}, routerMAC, 64)
	data := make([]byte, len(raw))
	fwd := func() {
		copy(data, raw) // Forward rewrites headers in place; reset each run
		if _, err := sw.Forward(data, inPort); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 64; i++ {
		fwd() // warm pools
	}
	if avg := testing.AllocsPerRun(200, fwd); avg != 0 {
		t.Errorf("INT-disabled hot path allocates: %.2f allocs/op", avg)
	}
	// Sanity: after an enable/disable round trip the path is allocation-
	// free again (the swap must not leave stamping residue behind).
	if err := sw.SetInt(true); err != nil {
		t.Fatal(err)
	}
	if err := sw.SetInt(false); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		fwd()
	}
	if avg := testing.AllocsPerRun(200, fwd); avg != 0 {
		t.Errorf("hot path allocates after INT round trip: %.2f allocs/op", avg)
	}
}

// TestIntUpstreamTrailerExtended: a packet arriving with upstream hop
// records (transit mode) gets this switch's hops appended after them,
// and the sink report carries the full path.
func TestIntUpstreamTrailerExtended(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	sw.intNow = counterClock()
	if err := sw.SetInt(true); err != nil {
		t.Fatal(err)
	}
	raw := v4Packet(t, [4]byte{10, 0, 0, 2}, routerMAC, 64)
	raw = intmd.AppendHop(raw, intmd.HopRecord{
		SwitchID: 99, StageID: 0xF000, InNanos: 10, OutNanos: 20, LatencyNanos: 10,
	})
	p, err := sw.ProcessPacket(raw, inPort)
	if err != nil {
		t.Fatal(err)
	}
	if p.Drop {
		t.Fatal("transit packet dropped")
	}
	reports := sw.IntReport(1)
	if len(reports) != 1 {
		t.Fatalf("reports = %d", len(reports))
	}
	hops := reports[0].Hops
	if len(hops) < 4 {
		t.Fatalf("hops = %d, want upstream + >=3 local", len(hops))
	}
	if hops[0].SwitchID != 99 {
		t.Errorf("first hop switch = %d, want upstream 99", hops[0].SwitchID)
	}
	if hops[0].Stage != "" {
		t.Errorf("foreign stage resolved to %q", hops[0].Stage)
	}
	// The first local hop chains off the upstream egress timestamp.
	if hops[1].InNanos != hops[0].OutNanos {
		t.Errorf("local chain start %d != upstream out %d", hops[1].InNanos, hops[0].OutNanos)
	}
}
