package main

import (
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ipsa/internal/compiler/backend"
	"ipsa/internal/ctrlplane"
	"ipsa/internal/experiments"
	"ipsa/internal/ipbm"
	"ipsa/internal/netio"
	"ipsa/internal/pisa"
	"ipsa/internal/rp4/parser"
	"ipsa/internal/template"
	"ipsa/internal/trafficgen"
)

// Fixed load-model parameters (recorded in BENCHMARK.json and README.md).
const (
	// window is the saturated phase's in-flight frame count W.
	window = 64
	// inPort is where every frame enters the switch.
	inPort = 1
	// thinkTime is the operator's pause between update cycles.
	thinkTime = 40 * time.Millisecond
	// rounds is how many unloaded/saturated/operator rounds an
	// untraced run interleaves at most; each forwarding and update metric
	// is the interquartile mean over rounds of that round's value, so a
	// slow patch of the host moves a few rounds, not the result.
	rounds = 24
	// traceRounds is the traced run's most untraced/traced round pairs.
	traceRounds = 8
	// setupRounds is how many times a run builds the switch at least;
	// cheap builds repeat up to maxSetups times while they take less than
	// setupBudget in all. setup_s is the median; only the last build is
	// measured.
	setupRounds = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
	// warmFrames run through the window before any phase is timed.
	warmFrames = 20000
	// schedLen is the length of the seeded flow schedule (cycled).
	schedLen = 1 << 16
)

// workload is one named benchmark input.
type workload struct {
	name string
	// uc is the paper use case installed on the base design.
	uc string
	// flows and sizes shape the traffic; each flow gets one frame size.
	flows int
	sizes []int
	// bigTables fills ipv4_host, ipv4_lpm and flow_probe near their
	// declared sizes.
	bigTables bool
	// liveOperator also runs the update operator beside the forwarding
	// phases; every workload runs it after them, on the idle switch.
	liveOperator bool
	// fillerTable is the table (one the traffic reads) the operator's
	// filler entries go to.
	fillerTable string
}

var workloads = []workload{
	{name: "c1_ecmp_hot", uc: "C1", flows: 256, sizes: []int{64}, fillerTable: "ipv4_host"},
	{name: "c3_bigtable_churn", uc: "C3", flows: 16384, sizes: []int{64, 576, 1500}, bigTables: true, fillerTable: "ipv4_host"},
	{name: "c2_insitu_update", uc: "C2", flows: 256, sizes: []int{64}, liveOperator: true, fillerTable: "ipv6_lpm"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// useCaseScript is the in-situ update script that installs a use case.
var useCaseScript = map[string]string{"C1": "ecmp.script", "C2": "srv6.script", "C3": "flowprobe.script"}

// bench is one built switch under test with everything a run drives.
type bench struct {
	wl   workload
	dir  string
	sw   *ipbm.Switch
	srv  *ctrlplane.Server
	cli  *ctrlplane.Client
	tr   *traffic
	port []*netio.ChanPort
	// installed is the use case's compiled config, the one the operator
	// applies back after each excursion.
	installed *template.Config
}

// quietLogger keeps the switch's info logs off the result stream.
var quietLogger = slog.New(slog.NewTextHandler(io.Discard, nil))

// prepare builds the workload's ipbm and pisa switches the way
// experiments.PrepareUseCase does; a caller fills the big tables of the
// one it uses.
func prepare(wl workload, dir string) (*ipbm.Switch, *pisa.Switch, error) {
	slog.SetDefault(quietLogger)
	prep, err := experiments.PrepareUseCase(experiments.Default(dir), wl.uc)
	if err != nil {
		return nil, nil, err
	}
	return prep.IPSA(), prep.PISA(), nil
}

// referenceTraffic renders the seeded traffic and takes every flow's
// expected output from a pisa reference switch holding the same entries.
// A run computes it once; it is not part of the timed set-up.
func referenceTraffic(wl workload, dir string, seed int64) (*traffic, error) {
	sw, ref, err := prepare(wl, dir)
	if err != nil {
		return nil, err
	}
	sw.Shutdown()
	if wl.bigTables {
		if err := fillBigTables(ref); err != nil {
			return nil, err
		}
	}
	tr, err := buildTraffic(wl, seed)
	if err != nil {
		return nil, err
	}
	return tr, tr.reference(ref, sw.Ports().Len())
}

// setup builds the switch under test (as prepare does, without the
// reference), starts sharded forwarding and the CCM, and warms the frame
// path with tr's frames.
func setup(wl workload, dir string, tr *traffic) (*bench, error) {
	sw, _, err := prepare(wl, dir)
	if err != nil {
		return nil, err
	}
	b := &bench{wl: wl, dir: dir, sw: sw, tr: tr}
	if err := b.start(); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// start fills, starts and warms up a freshly prepared switch.
func (b *bench) start() error {
	if b.wl.bigTables {
		if err := fillBigTables(b.sw); err != nil {
			return err
		}
	}
	ws, err := useCaseWorkspace(b.dir, b.wl.uc)
	if err != nil {
		return err
	}
	b.installed = ws.Current().Config
	for i := 0; i < b.sw.Ports().Len(); i++ {
		p, _ := b.sw.Ports().Port(i)
		b.port = append(b.port, p)
	}
	if err := b.sw.RunSharded(1, ipbm.DefaultBatch); err != nil {
		return err
	}
	b.srv = ctrlplane.NewServer(b.sw, quietLogger)
	addr, err := b.srv.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	if b.cli, err = ctrlplane.Dial(addr, 5*time.Second); err != nil {
		return err
	}
	// Warm up on a frame count, not a time, so set-up time measures work.
	l := b.loop()
	l.limit = warmFrames
	if st := l.run(window, time.Minute, false); st.good != warmFrames {
		return fmt.Errorf("warm-up: %d of %d frames forwarded right", st.good, warmFrames)
	}
	b.tr.pos = 0 // measured traffic starts at the head of the schedule
	return nil
}

// loop returns a closed loop over the switch's ports.
func (b *bench) loop() *loop {
	return chanPortLoop(b.tr, b.port[inPort], b.port, window)
}

// close stops the CCM and the switch and waits for their goroutines.
func (b *bench) close() {
	if b.cli != nil {
		b.cli.Close()
	}
	if b.srv != nil {
		b.srv.Close()
	}
	b.sw.Shutdown()
}

// entryTarget is what both switches offer for table population.
type entryTarget interface {
	InsertEntry(req ctrlplane.EntryReq) (int, error)
}

// fillBigTables brings the C3 lookup tables near their declared sizes:
// ipv4_host (8192) gets a /32 host route for each of the first 8000
// destinations, ipv4_lpm (16384) a /32 for each of the next 8192 plus
// 8000 /24s elsewhere, and flow_probe (1024) an entry for each of the
// first 1000 destinations (PrepareUseCase already installed 8).
func fillBigTables(t entryTarget) error {
	type e = ctrlplane.EntryReq
	type fv = ctrlplane.FieldValue
	ins := func(req e) error {
		if _, err := t.InsertEntry(req); err != nil {
			return fmt.Errorf("fill %s: %w", req.Table, err)
		}
		return nil
	}
	for i := 0; i < 8000; i++ {
		if err := ins(e{Table: "ipv4_host", Keys: []fv{{Value: 1}, {Value: uint64(0x0A010000 + i)}}, Tag: 1, Params: []uint64{7}}); err != nil {
			return err
		}
	}
	for i := 0; i < 8192; i++ {
		if err := ins(e{Table: "ipv4_lpm", Keys: []fv{{Value: uint64(0x0A012000 + i)}}, PrefixLen: 32, Tag: 1, Params: []uint64{7}}); err != nil {
			return err
		}
	}
	for i := 0; i < 8000; i++ {
		if err := ins(e{Table: "ipv4_lpm", Keys: []fv{{Value: uint64(0x0D000000 + i<<8)}}, PrefixLen: 24, Tag: 1, Params: []uint64{7}}); err != nil {
			return err
		}
	}
	for i := 8; i < 1000; i++ {
		if err := ins(e{Table: "flow_probe", Keys: []fv{{Value: 0x0A000001}, {Value: uint64(0x0A010000 + i)}}, Tag: 1, Params: []uint64{uint64(i % 1024), 1 << 30}}); err != nil {
			return err
		}
	}
	return nil
}

// genConfig is the trafficgen configuration PrepareUseCase pairs with a
// use case, at the given payload length.
func genConfig(uc string, flows, payload int, seed int64) trafficgen.Config {
	c := trafficgen.DefaultConfig()
	c.RouterMAC, c.HostMAC = experiments.RouterMAC, experiments.HostMAC
	c.Flows, c.PayloadLen, c.Seed = flows, payload, seed
	switch uc {
	case "C1":
		c.Profile = trafficgen.Mixed46
		c.V4Base = [4]byte{10, 2, 0, 0}
	case "C2":
		c.Profile = trafficgen.SRv6
		c.SID[0], c.SID[15] = 0x20, 0xAA
		c.NextSegment[0], c.NextSegment[1] = 0x20, 0x01
	case "C3":
		c.Profile = trafficgen.IPv4Routed
		c.V4Base = [4]byte{10, 1, 0, 0}
	}
	return c
}

// headerBytes is the header length a frame of the use case carries in
// front of its payload (the IPv4 frame for the mixed profile).
var headerBytes = map[string]int{"C1": 14 + 20 + 20, "C2": 14 + 40 + 8 + 32 + 20, "C3": 14 + 20 + 20}

// buildTraffic renders one template per flow — the flow's frame size
// drawn from the seed — and the seeded flow schedule.
func buildTraffic(wl workload, seed int64) (*traffic, error) {
	rng := rand.New(rand.NewSource(seed))
	sizeOf := make([]int, wl.flows)
	for i := range sizeOf {
		sizeOf[i] = rng.Intn(len(wl.sizes))
	}
	tr := &traffic{tmpl: make([][]byte, wl.flows), exp: make([]expect, wl.flows)}
	for si, size := range wl.sizes {
		payload := size - headerBytes[wl.uc]
		if payload < idLen+2 {
			payload = idLen + 2
		}
		g, err := trafficgen.New(genConfig(wl.uc, wl.flows, payload, seed))
		if err != nil {
			return nil, err
		}
		for f := 0; f < wl.flows; f++ {
			frame := g.NextShared()
			if sizeOf[f] != si {
				continue
			}
			t := append([]byte(nil), frame...)
			clear(t[len(t)-idLen:])
			tr.tmpl[f] = t
		}
	}
	tr.sched = make([]int32, schedLen)
	for i := range tr.sched {
		tr.sched[i] = int32(rng.Intn(wl.flows))
	}
	return tr, nil
}

// reference runs every flow template through the pisa switch and keeps
// its egress port and bytes as the expected output. A flow pisa does not
// forward is a set-up error: the workloads are chosen so none drops.
func (tr *traffic) reference(ref *pisa.Switch, ports int) error {
	for f, t := range tr.tmpl {
		p, err := ref.ProcessPacket(append([]byte(nil), t...), inPort)
		if err != nil {
			return fmt.Errorf("reference flow %d: %w", f, err)
		}
		if p.Drop || p.OutPort < 0 || p.OutPort >= ports {
			return fmt.Errorf("reference flow %d: pisa does not forward it (drop=%v port=%d)", f, p.Drop, p.OutPort)
		}
		tr.exp[f] = expect{port: p.OutPort, data: append([]byte(nil), p.Data...)}
	}
	return nil
}

// loader reads rP4 sources and scripts from the testdata directory.
func loader(dir string) backend.Loader {
	return func(name string) (string, error) {
		b, err := os.ReadFile(filepath.Join(dir, name))
		return string(b), err
	}
}

// useCaseWorkspace compiles the base design and applies the use case's
// script, the operator's starting point for every update cycle.
func useCaseWorkspace(dir, uc string) (*backend.Workspace, error) {
	load := loader(dir)
	src, err := load("base_l2l3.rp4")
	if err != nil {
		return nil, err
	}
	prog, err := parser.Parse("base_l2l3.rp4", src)
	if err != nil {
		return nil, err
	}
	opts := backend.DefaultOptions()
	opts.NumTSPs = experiments.Default(dir).NumTSPs
	ws, err := backend.NewWorkspace(prog, opts)
	if err != nil {
		return nil, err
	}
	script, err := load(useCaseScript[uc])
	if err != nil {
		return nil, err
	}
	if _, err := ws.ApplyScript(script, load); err != nil {
		return nil, err
	}
	return ws, nil
}

// timedSetup builds the bench at least n times — more, up to maxSetups,
// while all builds together took under setupBudget — keeps the last build
// and reports the median build time and the live heap after it.
func timedSetup(wl workload, dir string, tr *traffic, n int) (*bench, float64, float64, error) {
	var times []float64
	var b *bench
	total := 0.0
	for r := 0; r < n || (r < maxSetups && total < setupBudget.Seconds()); r++ {
		if b != nil {
			b.close()
			b = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if b, err = setup(wl, dir, tr); err != nil {
			return nil, 0, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		total += times[len(times)-1]
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return b, median(times), float64(ms.HeapAlloc) / (1 << 20), nil
}

// wiredHarness is the closed loop with no switch: frames cross a
// netio.Wire'd ChanPort pair, one hop through one goroutine, so its
// rate is the generator's own ceiling.
func wiredHarness(tr *traffic) (*loop, func()) {
	// Frames come back unchanged on the harness's one drain port.
	exp := make([]expect, len(tr.tmpl))
	for i, t := range tr.tmpl {
		exp[i] = expect{port: 0, data: t}
	}
	a, z := netio.NewChanPort(1024), netio.NewChanPort(1024)
	netio.Wire(a, z)
	l := newLoop(&traffic{tmpl: tr.tmpl, exp: exp, sched: tr.sched}, a.Send, []func() ([]byte, bool){z.TryRecv}, window)
	return l, func() { a.Close(); z.Close() }
}
