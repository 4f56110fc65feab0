// ipbm runs the IPSA behavioral-model software switch: an elastic pipeline
// of TSPs, a disaggregated memory pool, and a JSON-over-TCP control
// channel (CCM) that accepts configurations from rp4bc and table writes
// from rp4ctl.
//
// Usage:
//
//	ipbm -listen 127.0.0.1:9901 [-config config.json] [-tsps 16] [-ports 8]
//	     [-metrics-addr 127.0.0.1:9911] [-trace-every 64]
//	     [-log-level info] [-log-format text]
package main

import (
	"flag"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/intmd"
	"ipsa/internal/ipbm"
	"ipsa/internal/netio"
	"ipsa/internal/telemetry"
	"ipsa/internal/template"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:9901", "control channel listen address")
	configFile := flag.String("config", "", "initial device configuration JSON (optional)")
	tsps := flag.Int("tsps", 16, "physical TSP count")
	ports := flag.Int("ports", 8, "data ports")
	pipelined := flag.Bool("pipelined", false, "asynchronous mode: TM buffers between ingress and egress workers")
	egressWorkers := flag.Int("egress-workers", 2, "egress workers in pipelined mode")
	shards := flag.Int("shards", 0, "sharded mode: flow-affine worker lanes (0 disables; overrides -pipelined)")
	batch := flag.Int("batch", 0, "frames per I/O batch in sharded mode (0 = default)")
	pcapIn := flag.String("pcap-in", "", "replay this pcap through port 0 and exit (offline mode)")
	pcapOut := flag.String("pcap-out", "", "with -pcap-in: capture forwarded packets here")
	metricsAddr := flag.String("metrics-addr", "", "HTTP scrape endpoint (/metrics Prometheus text, /traces JSON); empty disables")
	traceEvery := flag.Uint64("trace-every", 0, "record a packet flight trace every N packets; 0 disables")
	traceRing := flag.Int("trace-ring", 256, "flight-recorder ring size")
	latencyEvery := flag.Uint64("latency-every", 128,
		"sample per-TSP latency every N packets; 0 disables")
	intOn := flag.Bool("int", false, "enable in-band telemetry stamping at startup (also togglable at runtime via rp4ctl int enable/disable)")
	intSwitchID := flag.Uint("int-switch-id", 1, "switch ID stamped into INT hop records")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	healthInterval := flag.Duration("health-interval", 0, "health sampler tick (0 = default 1s; negative disables)")
	flowBits := flag.Int("flow-table-bits", 0, "log2 of per-lane flow table slots (0 = default)")
	flowIdle := flag.Duration("flow-idle", 0, "idle timeout before a flow is swept into a record (0 = default)")
	flowTopK := flag.Int("flow-topk", 0, "heavy-hitter summary size per lane (0 = default)")
	flowOff := flag.Bool("flow-off", false, "disable always-on flow accounting")
	dropRing := flag.Int("drop-ring", 0, "sampled drop-capture ring size (0 = default)")
	dropRate := flag.Int64("drop-rate", -1, "max sampled drop captures per second (0 disables capture; -1 = default)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile here for the whole run (pprof format)")
	memProfile := flag.String("memprofile", "", "write a heap profile here at shutdown (pprof format)")
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(logger)

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	opts := ipbm.DefaultOptions()
	opts.Logger = logger
	opts.HealthInterval = *healthInterval
	opts.NumTSPs = *tsps
	opts.NumPorts = *ports
	opts.TraceEvery = *traceEvery
	opts.TraceRing = *traceRing
	opts.LatencyEvery = *latencyEvery
	opts.IntSwitchID = uint32(*intSwitchID)
	opts.FlowTableBits = *flowBits
	opts.FlowIdle = *flowIdle
	opts.FlowTopK = *flowTopK
	opts.FlowDisable = *flowOff
	if *dropRing > 0 {
		opts.DropRing = *dropRing
	}
	if *dropRate >= 0 {
		opts.DropSampleRate = *dropRate
	}
	sw, err := ipbm.New(opts)
	if err != nil {
		fatal(err)
	}
	if *metricsAddr != "" {
		tel := sw.Telemetry()
		mux := telemetry.NewServeMux(tel.Reg, tel.Tracer, tel.Events)
		sw.Health().Register(mux)
		sw.Flows().Register(mux)
		sw.Drops().Register(mux)
		ms, err := telemetry.ServeMux(*metricsAddr, mux)
		if err != nil {
			fatal(err)
		}
		defer ms.Close()
		slog.Info("metrics endpoint up", "addr", ms.Addr(),
			"paths", "/metrics /traces /events /flows /drops /health /healthz /readyz")
	}
	if *configFile != "" {
		b, err := os.ReadFile(*configFile)
		if err != nil {
			fatal(err)
		}
		cfg, err := template.Unmarshal(b)
		if err != nil {
			fatal(err)
		}
		st, err := sw.ApplyConfig(cfg)
		if err != nil {
			fatal(err)
		}
		slog.Info("configuration installed", "tsps_written", st.TSPsWritten, "tables", st.TablesCreated)
	}
	if *intOn {
		if err := sw.SetInt(true); err != nil {
			fatal(err)
		}
		slog.Info("INT stamping enabled", "switch_id", *intSwitchID)
	}
	if *pcapIn != "" {
		// Replay drives the sync path, so no forwarding mode starts the
		// health sampler; tick it here so /health shows rates mid-replay.
		sw.Health().Start()
		if err := replay(sw, *pcapIn, *pcapOut); err != nil {
			fatal(err)
		}
		return
	}
	srv := ctrlplane.NewServer(sw, slog.Default())
	addr, err := srv.Listen(*listen)
	if err != nil {
		fatal(err)
	}
	slog.Info("ipbm up", "ccm", addr, "tsps", *tsps, "ports", *ports,
		"pipelined", *pipelined, "shards", *shards)
	switch {
	case *shards > 0:
		if err := sw.RunSharded(*shards, *batch); err != nil {
			fatal(err)
		}
		nsh, nb := sw.Sharded()
		slog.Info("sharded mode up", "shards", nsh, "batch", nb)
	case *pipelined:
		if err := sw.RunPipelined(*egressWorkers); err != nil {
			fatal(err)
		}
	default:
		sw.Run()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	slog.Info("shutting down")
	_ = srv.Close()
	sw.Shutdown()
}

// replay pushes a pcap through port 0 and optionally captures the
// survivors, reporting a summary.
func replay(sw *ipbm.Switch, inPath, outPath string) error {
	in, err := os.Open(inPath)
	if err != nil {
		return err
	}
	defer in.Close()
	rd, err := netio.NewPcapReader(in)
	if err != nil {
		return err
	}
	var wr *netio.PcapWriter
	if outPath != "" {
		out, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer out.Close()
		if wr, err = netio.NewPcapWriter(out); err != nil {
			return err
		}
	}
	forwarded, dropped, punted, intIn := 0, 0, 0, 0
	for {
		ts, data, err := rd.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		// Count frames arriving with an upstream INT trailer (transit mode).
		if _, ok := intmd.Hops(data); ok {
			intIn++
		}
		p, err := sw.ProcessPacket(data, 0)
		if err != nil {
			return err
		}
		if p.ToCPU {
			punted++
		}
		if p.Drop {
			dropped++
			continue
		}
		forwarded++
		if wr != nil {
			if err := wr.WritePacket(ts, p.Data); err != nil {
				return err
			}
		}
	}
	slog.Info("replay complete", "component", "replay",
		"packets", rd.Count(), "int_trailers", intIn,
		"forwarded", forwarded, "dropped", dropped, "punted", punted)
	return nil
}

// startProfiles begins CPU profiling and arranges a heap snapshot, per
// the -cpuprofile/-memprofile flags. The returned stop function is safe
// to call once at shutdown (it is a no-op when both flags are empty);
// together with `make profile-hotpath` this is the workflow for finding
// where the fused hot path spends its cycles on a live switch.
func startProfiles(cpuPath, memPath string) (func(), error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
		slog.Info("cpu profiling started", "path", cpuPath)
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
			slog.Info("cpu profile written", "path", cpuPath)
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				slog.Error("heap profile", "err", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the snapshot reflects live state
			if err := pprof.WriteHeapProfile(f); err != nil {
				slog.Error("heap profile", "err", err)
				return
			}
			slog.Info("heap profile written", "path", memPath)
		}
	}, nil
}

func fatal(err error) {
	slog.Error("fatal", "component", "ipbm", "err", err)
	os.Exit(1)
}
