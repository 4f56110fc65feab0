// pisabm runs the PISA behavioral-model baseline switch (the bmv2
// equivalent): fixed stages, front parser, full-reload-only updates. It
// speaks the same control channel as ipbm so rp4ctl drives both.
//
// Usage:
//
//	pisabm -listen 127.0.0.1:9902 [-config config.json] [-metrics-addr 127.0.0.1:9912]
//	       [-log-level info] [-log-format text]
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/health"
	"ipsa/internal/pisa"
	"ipsa/internal/telemetry"
	"ipsa/internal/template"
)

// device adapts pisa.Switch to the full ctrlplane.Device interface and
// exposes the health layer over the CCM.
type device struct {
	*pisa.Switch
	h *health.Health
}

func (d device) DeleteEntry(table string, handle int) error {
	return fmt.Errorf("pisabm: per-entry deletion is not part of the baseline model")
}

func (d device) ListTables() []ctrlplane.TableStatus { return nil }

func (d device) Stats() *ctrlplane.DeviceStats {
	p, drop := d.Switch.Stats()
	return &ctrlplane.DeviceStats{Processed: p, Dropped: drop}
}

func (d device) HealthQuery(window time.Duration) *health.Status {
	return d.h.Status(window)
}

func main() {
	listen := flag.String("listen", "127.0.0.1:9902", "control channel listen address")
	configFile := flag.String("config", "", "initial device configuration JSON (optional)")
	ingress := flag.Int("ingress-stages", 12, "fixed ingress stage count")
	egress := flag.Int("egress-stages", 4, "fixed egress stage count")
	metricsAddr := flag.String("metrics-addr", "", "HTTP scrape endpoint (/metrics Prometheus text, /health JSON); empty disables")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat := flag.String("log-format", "text", "log format: text or json")
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fatal(err)
	}
	slog.SetDefault(logger)

	opts := pisa.DefaultOptions()
	opts.IngressStages = *ingress
	opts.EgressStages = *egress
	opts.Logger = logger
	sw, err := pisa.New(opts)
	if err != nil {
		fatal(err)
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
		if _, err := sw.ApplyConfig(cfg); err != nil {
			fatal(err)
		}
	}

	reg := telemetry.NewRegistry()
	telemetry.RegisterRuntimeMetrics(reg)
	reg.AddCollector(func(emit func(telemetry.MetricPoint)) {
		p, drop := sw.Stats()
		emit(telemetry.MetricPoint{Name: "pisa_pipeline_processed_total", Kind: "counter", Value: float64(p)})
		emit(telemetry.MetricPoint{Name: "pisa_pipeline_dropped_total", Kind: "counter", Value: float64(drop)})
	})
	h := health.New(health.Options{
		Registry: reg,
		Log:      logger.With("component", "health"),
		Packets: func() uint64 {
			p, drop := sw.Stats()
			return p + drop
		},
		Drops: func() uint64 {
			_, drop := sw.Stats()
			return drop
		},
		Ready: func() bool { return sw.Config() != nil },
		// The baseline has neither the per-verdict counters nor the
		// per-TSP latency histograms; silence those breakdowns.
		VerdictSeries: "pisa_packets_total",
		LatencySeries: "pisa_tsp_latency_seconds",
	})
	// Collector-only series are invisible to the ring's registry scan;
	// track them explicitly so windowed rates work for the baseline too.
	h.AddColumn(health.Column{Name: "pisa_pipeline_processed_total", Kind: "counter",
		Read: func() float64 { p, _ := sw.Stats(); return float64(p) }})
	h.AddColumn(health.Column{Name: "pisa_pipeline_dropped_total", Kind: "counter",
		Read: func() float64 { _, drop := sw.Stats(); return float64(drop) }})
	h.Start()
	defer h.Stop()

	if *metricsAddr != "" {
		mux := telemetry.NewServeMux(reg, nil, nil)
		h.Register(mux)
		ms, err := telemetry.ServeMux(*metricsAddr, mux)
		if err != nil {
			fatal(err)
		}
		defer ms.Close()
		slog.Info("metrics endpoint up", "addr", ms.Addr(),
			"paths", "/metrics /health /healthz /readyz")
	}
	srv := ctrlplane.NewServer(device{sw, h}, logger)
	addr, err := srv.Listen(*listen)
	if err != nil {
		fatal(err)
	}
	slog.Info("pisabm up", "ccm", addr, "ingress", *ingress, "egress", *egress)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	<-sig
	_ = srv.Close()
}

func fatal(err error) {
	slog.Error("fatal", "component", "pisabm", "err", err)
	os.Exit(1)
}
