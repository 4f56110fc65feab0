// Benchmarks regenerating every table and figure of the paper's evaluation
// (see DESIGN.md's experiment index), plus ablations of rp4bc's design
// choices. Custom metrics carry the quantities the paper reports:
//
//	go test -bench=. -benchmem
//
// For the printed paper-style tables, run `go run ./cmd/experiments`.
package ipsa

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ipsa/internal/compiler/backend"
	"ipsa/internal/compiler/layout"
	"ipsa/internal/compiler/packing"
	"ipsa/internal/experiments"
	"ipsa/internal/flowstat"
	"ipsa/internal/hwmodel"
	"ipsa/internal/ipbm"
	"ipsa/internal/match"
	"ipsa/internal/mem"
	"ipsa/internal/netio"
	"ipsa/internal/pkt"
	"ipsa/internal/rp4/ast"
	"ipsa/internal/rp4/parser"
	"ipsa/internal/tsp"
)

func benchCfg() experiments.Config {
	cfg := experiments.Default("testdata")
	cfg.Packets = 5000
	cfg.Entries = 128
	return cfg
}

func loadBaseProgram(b *testing.B) *ast.Program {
	b.Helper()
	src, err := os.ReadFile("testdata/base_l2l3.rp4")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := parser.Parse("base_l2l3.rp4", string(src))
	if err != nil {
		b.Fatal(err)
	}
	return prog
}

func loader(b *testing.B) backend.Loader {
	b.Helper()
	return func(name string) (string, error) {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		return string(raw), err
	}
}

func scriptSrc(b *testing.B, uc string) string {
	b.Helper()
	name := map[string]string{"C1": "ecmp.script", "C2": "srv6.script", "C3": "flowprobe.script"}[uc]
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		b.Fatal(err)
	}
	return string(raw)
}

// --- Table 1: compile (t_C) and load (t_L) ----------------------------------

// BenchmarkTable1_IPSA_IncrementalCompile measures rp4bc's incremental
// compile (the rP4 flow's t_C) for each use case.
func BenchmarkTable1_IPSA_IncrementalCompile(b *testing.B) {
	for _, uc := range experiments.UseCases {
		b.Run(uc, func(b *testing.B) {
			opts := backend.DefaultOptions()
			opts.NumTSPs = 16
			script := scriptSrc(b, uc)
			ld := loader(b)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ws, err := backend.NewWorkspace(loadBaseProgram(b), opts)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := ws.ApplyScript(script, ld); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1_PISA_FullCompile measures the P4 flow's t_C: parse the
// P4 source, rp4fc, full rp4bc compile of the updated design.
func BenchmarkTable1_PISA_FullCompile(b *testing.B) {
	for _, uc := range experiments.UseCases {
		b.Run(uc, func(b *testing.B) {
			cfg := benchCfg()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.P4FullCompile(cfg, uc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable1_IPSA_Load measures the rP4 flow's t_L: the device patch
// that writes only the manifest's TSP templates. The switch is brought up
// and the update compiled once; each iteration re-applies the patch (the
// device handles it idempotently), so ns/op is the pure patch cost.
// New-table creation and population happen once, untimed.
func BenchmarkTable1_IPSA_Load(b *testing.B) {
	for _, uc := range experiments.UseCases {
		b.Run(uc, func(b *testing.B) {
			cfg := benchCfg()
			opts := backend.DefaultOptions()
			opts.NumTSPs = 16
			ws, err := backend.NewWorkspace(loadBaseProgram(b), opts)
			if err != nil {
				b.Fatal(err)
			}
			sw, err := ipbm.New(ipbm.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sw.ApplyConfig(ws.Current().Config); err != nil {
				b.Fatal(err)
			}
			if err := experiments.PopulateBase(sw, ws.Current().Config, cfg.Entries); err != nil {
				b.Fatal(err)
			}
			rep, err := ws.ApplyScript(scriptSrc(b, uc), loader(b))
			if err != nil {
				b.Fatal(err)
			}
			st, err := sw.ApplyConfig(rep.Config)
			if err != nil {
				b.Fatal(err)
			}
			if err := experiments.PopulateUseCase(sw, uc, cfg.Entries); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sw.ApplyConfig(rep.Config); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.TSPsWritten), "tsps_written")
		})
	}
}

// BenchmarkTable1_PISA_Load measures the P4 flow's t_L: full pipeline
// reload plus full table repopulation (the bmv2 behaviour).
func BenchmarkTable1_PISA_Load(b *testing.B) {
	for _, uc := range experiments.UseCases {
		b.Run(uc, func(b *testing.B) {
			cfg := benchCfg()
			fullCfg, err := experiments.P4FullCompile(cfg, uc)
			if err != nil {
				b.Fatal(err)
			}
			psw, err := experiments.NewPISASwitch()
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := psw.ApplyConfig(fullCfg); err != nil {
					b.Fatal(err)
				}
				if err := experiments.PopulateBase(psw, fullCfg, cfg.Entries); err != nil {
					b.Fatal(err)
				}
				if err := experiments.PopulateUseCase(psw, uc, cfg.Entries); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Sec. 5 throughput -------------------------------------------------------

// BenchmarkThroughput_IPSA pushes each use case's workload through the
// ipbm data plane; ns/op is the per-packet cost, pps is reported as a
// custom metric alongside the FPGA model's Mpps.
func BenchmarkThroughput_IPSA(b *testing.B) {
	for _, uc := range experiments.UseCases {
		b.Run(uc, func(b *testing.B) {
			prep, err := experiments.PrepareUseCase(benchCfg(), uc)
			if err != nil {
				b.Fatal(err)
			}
			sw, gen := prep.IPSA(), prep.Gen()
			modeled, err := hwmodel.DefaultCycleParams().Model(uc, hwmodel.UseCaseClasses(uc))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sw.ProcessPacket(gen.NextShared(), 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pps")
			b.ReportMetric(modeled.IPSAMpps, "model_Mpps")
		})
	}
}

// BenchmarkThroughput_PISA is the baseline counterpart.
func BenchmarkThroughput_PISA(b *testing.B) {
	for _, uc := range experiments.UseCases {
		b.Run(uc, func(b *testing.B) {
			prep, err := experiments.PrepareUseCase(benchCfg(), uc)
			if err != nil {
				b.Fatal(err)
			}
			sw, gen := prep.PISA(), prep.Gen()
			modeled, err := hwmodel.DefaultCycleParams().Model(uc, hwmodel.UseCaseClasses(uc))
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sw.ProcessPacket(gen.NextShared(), 1); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pps")
			b.ReportMetric(modeled.PISAMpps, "model_Mpps")
		})
	}
}

// --- Table 2: resource model --------------------------------------------------

// BenchmarkTable2_Resources evaluates the resource model and reports the
// headline overheads as metrics.
func BenchmarkTable2_Resources(b *testing.B) {
	p := hwmodel.DefaultResourceParams()
	var lut, ff float64
	for i := 0; i < b.N; i++ {
		pisa := p.PISAResources(8, 912)
		ipsa := p.IPSAResources(8, 64)
		lut = (ipsa.TotalLUT - pisa.TotalLUT) / pisa.TotalLUT * 100
		ff = (ipsa.TotalFF - pisa.TotalFF) / pisa.TotalFF * 100
	}
	b.ReportMetric(lut, "lut_overhead_%")
	b.ReportMetric(ff, "ff_overhead_%")
}

// --- Table 3: power model -------------------------------------------------------

// BenchmarkTable3_Power evaluates the power model at the paper's scale.
func BenchmarkTable3_Power(b *testing.B) {
	p := hwmodel.DefaultPowerParams()
	var overhead float64
	for i := 0; i < b.N; i++ {
		overhead = (p.IPSAPower(8, 8) - p.PISAPower(8)) / p.PISAPower(8) * 100
	}
	b.ReportMetric(overhead, "power_overhead_%")
}

// --- Fig. 6: power sweep ---------------------------------------------------------

// BenchmarkFig6_PowerSweep sweeps effective stage counts and reports the
// crossover below which IPSA wins.
func BenchmarkFig6_PowerSweep(b *testing.B) {
	p := hwmodel.DefaultPowerParams()
	cross := 0
	for i := 0; i < b.N; i++ {
		cross = p.PowerCrossover(8)
	}
	b.ReportMetric(float64(cross), "crossover_stages")
}

// --- Ablations (DESIGN.md) -------------------------------------------------------

// BenchmarkAblation_StageMerging compares compile results with predicate
// merging on and off: the TSP count is the paper's resource argument.
func BenchmarkAblation_StageMerging(b *testing.B) {
	for _, merge := range []bool{true, false} {
		name := "off"
		if merge {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			opts := backend.DefaultOptions()
			opts.NumTSPs = 16
			opts.EnableMerge = merge
			var tsps int
			for i := 0; i < b.N; i++ {
				c, err := backend.Compile(loadBaseProgram(b), opts)
				if err != nil {
					b.Fatal(err)
				}
				tsps = c.Stats.TSPsUsed
			}
			b.ReportMetric(float64(tsps), "tsps_used")
		})
	}
}

// BenchmarkAblation_IncrementalLayout compares the DP and greedy placement
// algorithms on a worst-case reorder, reporting template rewrites.
func BenchmarkAblation_IncrementalLayout(b *testing.B) {
	old := &layout.Assignment{
		NumTSP:   16,
		Position: map[string]int{"a": 3, "b": 4, "c": 5, "z": 9},
		Modes:    make([]layout.Mode, 16),
	}
	seq := []string{"z", "a", "b", "c"}
	b.Run("dp", func(b *testing.B) {
		var rewrites int
		for i := 0; i < b.N; i++ {
			res, err := layout.PlaceIncrementalDP(old, seq, nil, 16)
			if err != nil {
				b.Fatal(err)
			}
			rewrites = res.Rewrites
		}
		b.ReportMetric(float64(rewrites), "rewrites")
	})
	b.Run("greedy", func(b *testing.B) {
		var rewrites int
		for i := 0; i < b.N; i++ {
			res, err := layout.PlaceIncrementalGreedy(old, seq, nil, 16)
			if err != nil {
				b.Fatal(err)
			}
			rewrites = res.Rewrites
		}
		b.ReportMetric(float64(rewrites), "rewrites")
	})
}

// BenchmarkAblation_Packing compares the exact set-packing solver against
// the greedy first-fit on a tight instance the greedy cannot place at all
// (items 8,7,6,5,4 over two 15-block clusters need the exact 15/15
// split); the metric is feasibility plus achieved max load.
func BenchmarkAblation_Packing(b *testing.B) {
	items := []packing.Item{
		{Name: "a", Blocks: 8}, {Name: "b", Blocks: 7}, {Name: "c", Blocks: 6},
		{Name: "d", Blocks: 5}, {Name: "e", Blocks: 4},
	}
	caps := []int{15, 15}
	for _, exact := range []bool{true, false} {
		name := "greedy"
		if exact {
			name = "exact"
		}
		b.Run(name, func(b *testing.B) {
			var maxLoad, feasible int
			for i := 0; i < b.N; i++ {
				sol, err := packing.Solve(items, caps, packing.Options{Exact: exact})
				if err != nil {
					maxLoad, feasible = 0, 0
					continue
				}
				maxLoad, feasible = sol.MaxLoad, 1
			}
			b.ReportMetric(float64(maxLoad), "max_load")
			b.ReportMetric(float64(feasible), "feasible")
		})
	}
}

// --- Hot path: fused executor vs reference interpreter ----------------------

// benchmarkHotPath drives the per-frame Forward path (pooled packets and
// envs, no per-packet return value) with one executor mode; allocs/op
// must be 0 in steady state.
func benchmarkHotPath(b *testing.B, mode tsp.ExecMode) {
	for _, uc := range experiments.UseCases {
		b.Run(uc, func(b *testing.B) {
			cfg := benchCfg()
			cfg.Exec = mode
			prep, err := experiments.PrepareUseCase(cfg, uc)
			if err != nil {
				b.Fatal(err)
			}
			sw, gen := prep.IPSA(), prep.Gen()
			// Warm the packet/env pools and the TM rings so the timed
			// region measures steady state.
			for i := 0; i < 64; i++ {
				if _, err := sw.Forward(gen.NextShared(), 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sw.Forward(gen.NextShared(), 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHotPath_Interp is the reference interpreter on the per-frame
// path; bench-fused gates the fused tier's speedup over it.
func BenchmarkHotPath_Interp(b *testing.B) { benchmarkHotPath(b, tsp.ExecInterp) }

// BenchmarkHotPath_FlowOff is BenchmarkHotPath_Fused with flow accounting
// disabled — the ablation quantifying what the always-on accounting
// costs per packet: Fused minus FlowOff within one run (see
// docs/OBSERVABILITY.md and EXPERIMENTS.md).
func BenchmarkHotPath_FlowOff(b *testing.B) {
	benchmarkHotPathBatch(b, tsp.ExecFused, ipbm.DefaultBatch, true)
}

// benchmarkHotPathBatch drives ForwardBatch: one pinned version, one Env
// bind and one stage-major sweep per batch of distinct frame buffers.
// Frames are refreshed from the pristine flow packets before every batch
// (the pipeline rewrites them in place), the same per-op copy the scalar
// path pays inside gen.NextShared.
func benchmarkHotPathBatch(b *testing.B, mode tsp.ExecMode, batch int, flowOff bool) {
	for _, uc := range experiments.UseCases {
		b.Run(uc, func(b *testing.B) {
			cfg := benchCfg()
			cfg.Exec = mode
			cfg.FlowOff = flowOff
			prep, err := experiments.PrepareUseCase(cfg, uc)
			if err != nil {
				b.Fatal(err)
			}
			sw, gen := prep.IPSA(), prep.Gen()
			flows := gen.FlowPackets()
			bufs := make([][]byte, batch)
			for i := range bufs {
				bufs[i] = append([]byte(nil), flows[i%len(flows)]...)
			}
			refresh := func(k int) {
				for i := 0; i < k; i++ {
					copy(bufs[i], flows[i%len(flows)])
				}
			}
			for i := 0; i < 4; i++ {
				refresh(batch)
				if _, err := sw.ForwardBatch(bufs, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; {
				k := batch
				if b.N-n < k {
					k = b.N - n
				}
				refresh(k)
				if _, err := sw.ForwardBatch(bufs[:k], 1); err != nil {
					b.Fatal(err)
				}
				n += k
			}
		})
	}
}

// BenchmarkHotPath_Fused is the gated production hot path: fused
// closures, batch-at-a-time execution and exact-match prefetch at the
// default batch size. CI gates it against the committed baseline with a
// strict zero-alloc requirement and against the interpreter as a
// within-run speedup (make bench-fused).
func BenchmarkHotPath_Fused(b *testing.B) {
	benchmarkHotPathBatch(b, tsp.ExecFused, ipbm.DefaultBatch, false)
}

// BenchmarkHotPath_FusedScalar isolates the closure tier from batching:
// fused execution on the per-frame Forward path.
func BenchmarkHotPath_FusedScalar(b *testing.B) { benchmarkHotPath(b, tsp.ExecFused) }

// BenchmarkFusedBatchSensitivity sweeps the batch size at the fused tier
// (EXPERIMENTS.md's sensitivity table): batch=1 is the degenerate
// per-packet case, larger batches amortize pin/env/clock and let the
// stage-major sweep and prefetch work.
func BenchmarkFusedBatchSensitivity(b *testing.B) {
	for _, batch := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			benchmarkHotPathBatch(b, tsp.ExecFused, batch, false)
		})
	}
}

// --- Flow accounting engine (docs/OBSERVABILITY.md) --------------------------

// BenchmarkFlowAccount isolates the accounting engine: one Touch+Finish
// pair per op — the exact per-packet work the runners add. single_flow
// is the best case (hot entry); flows=64 walks a working set through a
// 1024-slot table. allocs/op must be 0.
func BenchmarkFlowAccount(b *testing.B) {
	frame, err := pkt.Serialize(
		&pkt.Ethernet{Dst: pkt.MAC{2, 0, 0, 0, 0, 1}, Src: pkt.MAC{2, 0, 0, 0, 0, 2}, EtherType: pkt.EtherTypeIPv4},
		&pkt.IPv4{TTL: 64, Protocol: pkt.IPProtoTCP, Src: [4]byte{10, 0, 0, 1}, Dst: [4]byte{10, 1, 0, 1}},
		&pkt.TCP{SrcPort: 1234, DstPort: 80},
	)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("single_flow", func(b *testing.B) {
		tab := flowstat.NewSet(1, flowstat.Config{}).Lane(0)
		h := pkt.RSSHash(frame)
		tab.Touch(h, frame, len(frame), 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now := flowstat.Now()
			tab.Touch(h, frame, len(frame), now)
			tab.Finish(h, flowstat.VerdictForwarded, -1, now)
		}
	})
	b.Run("flows=64", func(b *testing.B) {
		tab := flowstat.NewSet(1, flowstat.Config{}).Lane(0)
		hashes := make([]uint64, 64)
		for i := range hashes {
			hashes[i] = pkt.RSSHash(frame) + uint64(i)*0x9e3779b97f4a7c15
			tab.Touch(hashes[i], frame, len(frame), 0)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h := hashes[i&63]
			now := flowstat.Now()
			tab.Touch(h, frame, len(frame), now)
			tab.Finish(h, flowstat.VerdictForwarded, -1, now)
		}
	})
}

// --- Drop attribution (docs/OBSERVABILITY.md) --------------------------------

// BenchmarkDropPath measures the always-on loss-forensics path: every op
// forwards a frame the switch loses — program_drop rewrites a known-good
// flow's destination to an unrouted address so the design's catch-all
// drop action fires, parse_error truncates the frame below the root
// header. Each op pays full attribution: verdict classification, the
// striped ipsa_drop_total cell and the capture-ring admission check.
// allocs/op must be 0 — attribution is always on, so a drop storm must
// not pressure the collector.
func BenchmarkDropPath(b *testing.B) {
	prep, err := experiments.PrepareUseCase(benchCfg(), "C1")
	if err != nil {
		b.Fatal(err)
	}
	sw := prep.IPSA()
	unrouted := append([]byte(nil), prep.Gen().FlowPackets()[0]...)
	// IPv4 destination lives at Ethernet(14) + dst offset(16).
	copy(unrouted[30:34], []byte{203, 0, 113, 9})
	cases := []struct {
		name  string
		frame []byte
	}{
		{"program_drop", unrouted},
		{"parse_error", unrouted[:10]},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			buf := append([]byte(nil), c.frame...)
			// Warm pools and prove the frame actually drops; the pipeline
			// rewrites buffers in place, so refresh before every send.
			for i := 0; i < 64; i++ {
				copy(buf, c.frame)
				fwd, err := sw.Forward(buf, 1)
				if err != nil {
					b.Fatal(err)
				}
				if fwd {
					b.Fatalf("%s frame was forwarded, not dropped", c.name)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, c.frame)
				if _, err := sw.Forward(buf, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_DistributedParsing compares on-demand parsing (headers
// parsed once, where needed) against PISA-style full front parsing by
// packet cost on the same design.
func BenchmarkAblation_DistributedParsing(b *testing.B) {
	prep, err := experiments.PrepareUseCase(benchCfg(), "C3")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("ipsa_on_demand", func(b *testing.B) {
		sw, gen := prep.IPSA(), prep.Gen()
		for i := 0; i < b.N; i++ {
			if _, err := sw.ProcessPacket(gen.NextShared(), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pisa_front_parse", func(b *testing.B) {
		sw, gen := prep.PISA(), prep.Gen()
		for i := 0; i < b.N; i++ {
			if _, err := sw.ProcessPacket(gen.NextShared(), 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkThroughput_IPSA_Parallel drives the data plane from all cores,
// the software equivalent of a multi-queue NIC feeding the pipeline.
func BenchmarkThroughput_IPSA_Parallel(b *testing.B) {
	prep, err := experiments.PrepareUseCase(benchCfg(), "C1")
	if err != nil {
		b.Fatal(err)
	}
	sw := prep.IPSA()
	packets := prep.Gen().FlowPackets()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := sw.ProcessPacket(packets[i%len(packets)], 1); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pps")
}

// --- Sharded datapath scaling (see EXPERIMENTS.md) ---------------------------

// shardedAccounted sums the verdict sinks readable without allocating:
// port transmissions and tail drops, stage drops and TM tail drops. The
// completion wait polls this on the timed path; the rare no-port sink is
// read separately via the (allocating) registry scrape.
func shardedAccounted(sw *ipbm.Switch) uint64 {
	_, stageDropped := sw.Pipeline().Stats()
	_, tmDrops := sw.TMStats()
	total := stageDropped + tmDrops
	for i := 0; i < sw.Ports().Len(); i++ {
		p, err := sw.Ports().Port(i)
		if err != nil {
			continue
		}
		st := p.DetailedStats()
		total += st.Sent + st.TxDrops
	}
	return total
}

// gatherNoPort reads the no-port drop counter from the registry (one
// scrape allocation; kept off the per-iteration poll).
func gatherNoPort(sw *ipbm.Switch) uint64 {
	for _, pt := range sw.Telemetry().Reg.Gather() {
		if pt.Name == "ipsa_no_port_drops_total" {
			return uint64(pt.Value)
		}
	}
	return 0
}

// benchmarkShardedThroughput drives the full sharded mode end to end:
// frames injected at a port ride the batched reader, the RSS steering,
// the shard workers and the batched transmit. ns/op is the whole-switch
// per-packet cost including I/O; pps is the headline throughput.
func benchmarkShardedThroughput(b *testing.B, shards, batch int) {
	prep, err := experiments.PrepareUseCase(benchCfg(), "C1")
	if err != nil {
		b.Fatal(err)
	}
	sw := prep.IPSA()
	if err := sw.RunSharded(shards, batch); err != nil {
		b.Fatal(err)
	}
	defer sw.Shutdown()
	runShardedBurst(b, sw, prep.Gen().FlowPackets())
}

// runShardedBurst is the shared harness for the sharded and pipelined
// whole-switch benchmarks: inject b.N frames from a refresh ring, drain
// every egress port in the background, and stop the clock only when the
// switch has accounted for the entire burst.
func runShardedBurst(b *testing.B, sw *ipbm.Switch, flows [][]byte) {
	b.Helper()
	// Injection ring: the data plane rewrites frames in place, so each
	// slot is refreshed from its pristine flow packet before reuse. The
	// ring is deep enough that a slot has virtually always completed its
	// lifecycle before it comes around again (and a straggler merely
	// re-parses a half-rewritten frame — accounted either way).
	const ring = 4096
	bufs := make([][]byte, ring)
	for i := range bufs {
		bufs[i] = append([]byte(nil), flows[i%len(flows)]...)
	}
	in, err := sw.Ports().Port(1)
	if err != nil {
		b.Fatal(err)
	}
	stopDrain := make(chan struct{})
	defer close(stopDrain)
	for i := 0; i < sw.Ports().Len(); i++ {
		p, _ := sw.Ports().Port(i)
		go func(p *netio.ChanPort) {
			for {
				select {
				case <-stopDrain:
					return
				default:
					if _, ok := p.Drain(); !ok {
						time.Sleep(50 * time.Microsecond)
					}
				}
			}
		}(p)
	}
	start := shardedAccounted(sw)
	noPortStart := gatherNoPort(sw)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot := i % ring
		buf := bufs[slot]
		copy(buf, flows[slot%len(flows)])
		for !in.Inject(buf) {
			runtime.Gosched()
		}
	}
	// Completion wait: poll the allocation-free sinks every yield, fold in
	// the no-port sink (an allocating registry scrape) only while stalled.
	deadline := time.Now().Add(60 * time.Second)
	lastScrape := time.Now()
	noPort := uint64(0)
	for shardedAccounted(sw)-start+noPort < uint64(b.N) {
		if time.Since(lastScrape) > 200*time.Millisecond {
			noPort = gatherNoPort(sw) - noPortStart
			lastScrape = time.Now()
		}
		if time.Now().After(deadline) {
			b.Fatalf("burst never accounted: %d/%d", shardedAccounted(sw)-start+noPort, b.N)
		}
		runtime.Gosched()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "pps")
}

// BenchmarkShardedThroughput is the scaling sweep: the same multi-flow
// workload at increasing shard counts. On a multi-core host throughput
// scales with shards until cores run out; on fewer cores the curve is
// flat and the sweep measures sharding's overhead instead.
func BenchmarkShardedThroughput(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			benchmarkShardedThroughput(b, n, ipbm.DefaultBatch)
		})
	}
}

// BenchmarkShardedBatchSensitivity sweeps the I/O batch size at a fixed
// shard count: batch=1 degenerates to per-frame wakeups, large batches
// amortize them at the cost of burst latency.
func BenchmarkShardedBatchSensitivity(b *testing.B) {
	for _, batch := range []int{1, 8, 32, 128} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			benchmarkShardedThroughput(b, 2, batch)
		})
	}
}

// BenchmarkPipelinedThroughput is the pre-sharding asynchronous mode on
// the identical harness — the direct baseline for the scaling sweep.
func BenchmarkPipelinedThroughput(b *testing.B) {
	prep, err := experiments.PrepareUseCase(benchCfg(), "C1")
	if err != nil {
		b.Fatal(err)
	}
	sw := prep.IPSA()
	if err := sw.RunPipelined(2); err != nil {
		b.Fatal(err)
	}
	defer sw.Shutdown()
	runShardedBurst(b, sw, prep.Gen().FlowPackets())
}

// BenchmarkAblation_CrossbarMigration measures the cross-cluster table
// migration a clustered crossbar forces when a logical stage moves — the
// cost the paper's Sec. 2.4 warns about.
func BenchmarkAblation_CrossbarMigration(b *testing.B) {
	for _, entries := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("entries=%d", entries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				mgr, err := mem.NewManager(mem.Config{Blocks: 64, BlockWidth: 128, BlockDepth: 16384, Clusters: 2},
					mem.ClusteredCrossbar, 8)
				if err != nil {
					b.Fatal(err)
				}
				tbl, err := mgr.CreateTable("fib", match.LPM, 32, 16384, 0)
				if err != nil {
					b.Fatal(err)
				}
				for e := 0; e < entries; e++ {
					key := []byte{byte(e >> 16), byte(e >> 8), byte(e), 0}
					if _, err := tbl.Engine().Insert(match.Entry{Key: key, PrefixLen: 24, ActionID: 1}); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				moved, err := mgr.Migrate("fib", 7) // TSP 7 lives in cluster 1
				if err != nil {
					b.Fatal(err)
				}
				if moved != entries {
					b.Fatalf("moved %d, want %d", moved, entries)
				}
			}
		})
	}
}
