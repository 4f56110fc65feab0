package tsp

import (
	"fmt"
	"sync/atomic"
	"time"

	"ipsa/internal/pkt"
	"ipsa/internal/telemetry"
	"ipsa/internal/template"
)

// TSP is one physical Templated Stage Processor slot of the elastic
// pipeline. After stage merging it may host several logical stages, which
// it executes in order. Reprogramming a TSP means swapping its stage
// runtimes — "downloading the template parameters" (paper Sec. 2.2).
type TSP struct {
	index  int
	stages atomic.Pointer[[]*StageRuntime]
	// loads counts template downloads, an input to the update-cost model.
	loads atomic.Uint64
	// lat, when attached, receives this TSP's stage-batch latency for
	// packets marked Timed (sampled, so steady-state cost stays at one
	// branch per TSP per packet).
	lat *telemetry.Histogram
}

// NewTSP creates an empty (bypassed) TSP.
func NewTSP(index int) *TSP {
	t := &TSP{index: index}
	empty := []*StageRuntime{}
	t.stages.Store(&empty)
	return t
}

// Index returns the physical position in the pipeline.
func (t *TSP) Index() int { return t.index }

// Load downloads new stage templates into the TSP, replacing its current
// program in one atomic step (the hardware analogue writes the template
// registers while the pipeline is drained).
func (t *TSP) Load(stages []*StageRuntime) {
	s := append([]*StageRuntime(nil), stages...)
	t.stages.Store(&s)
	t.loads.Add(1)
}

// Unload empties the TSP (bypass mode, low power).
func (t *TSP) Unload() {
	empty := []*StageRuntime{}
	t.stages.Store(&empty)
	t.loads.Add(1)
}

// Active reports whether the TSP hosts any stage.
func (t *TSP) Active() bool { return len(*t.stages.Load()) > 0 }

// SetLatencyHistogram attaches the latency histogram observed for Timed
// packets. Call before traffic starts; handles are resolved once.
func (t *TSP) SetLatencyHistogram(h *telemetry.Histogram) { t.lat = h }

// Stages returns the currently loaded stage runtimes (telemetry
// collectors read their counters at scrape time).
func (t *TSP) Stages() []*StageRuntime { return *t.stages.Load() }

// Loads reports how many template downloads the TSP has received.
func (t *TSP) Loads() uint64 { return t.loads.Load() }

// StageNames lists the hosted logical stages.
func (t *TSP) StageNames() []string {
	cur := *t.stages.Load()
	out := make([]string, len(cur))
	for i, s := range cur {
		out[i] = s.Name()
	}
	return out
}

// ProcessWith runs an explicit stage list on a packet; an empty list
// passes the packet through untouched. The epoch-versioned program store
// uses it to execute the stage set a packet was pinned to at ingress,
// regardless of what has been downloaded into the TSP since; latency
// sampling still lands on this TSP's histogram.
func (t *TSP) ProcessWith(stages []*StageRuntime, p *pkt.Packet, parser *OnDemandParser, backend TableBackend, env *Env) {
	if len(stages) == 0 {
		return
	}
	env.TSPIndex = t.index
	var t0 time.Time
	timed := env.Timed && t.lat != nil
	if timed {
		t0 = time.Now()
	}
	for _, s := range stages {
		if p.Drop {
			break
		}
		s.Execute(p, parser, backend, env)
	}
	if timed {
		t.lat.ObserveNanos(int64(time.Since(t0)))
	}
}

// ProcessBatchWith runs an explicit stage list over a whole batch,
// stage-major: every live packet passes through one stage before any
// packet advances to the next, so per-stage closures, key plans and match
// tables stay cache-hot across the batch. Per-packet semantics (including
// drop short-circuiting — a packet dropped by stage k is skipped by stage
// k+1) match a ProcessWith per packet. Latency sampling is per batch: the
// whole stage sweep is timed once and the mean per live packet is
// observed for each Timed packet, since per-packet boundaries do not
// exist in stage-major order.
func (t *TSP) ProcessBatchWith(stages []*StageRuntime, ps []*pkt.Packet, parser *OnDemandParser, backend TableBackend, env *Env) {
	if len(stages) == 0 {
		return
	}
	env.TSPIndex = t.index
	timed, live := 0, 0
	if t.lat != nil {
		for _, p := range ps {
			if p == nil || p.Drop {
				continue
			}
			live++
			if p.Timed {
				timed++
			}
		}
	}
	var t0 time.Time
	if timed > 0 {
		t0 = time.Now()
	}
	for _, s := range stages {
		s.ExecuteBatch(ps, parser, backend, env)
	}
	if timed > 0 {
		mean := int64(time.Since(t0)) / int64(live)
		for i := 0; i < timed; i++ {
			t.lat.ObserveNanos(mean)
		}
	}
}

// BuildStageRuntimes constructs the runtimes for every stage of a config,
// keyed by stage name, lowering each stage to fused closures (the default
// executor).
func BuildStageRuntimes(cfg *template.Config) (map[string]*StageRuntime, error) {
	return BuildStageRuntimesOpts(cfg, BuildOpts{})
}

// BuildStageRuntimesOpts constructs every stage runtime of a config with
// full build options.
func BuildStageRuntimesOpts(cfg *template.Config, opts BuildOpts) (map[string]*StageRuntime, error) {
	out := make(map[string]*StageRuntime, len(cfg.Stages))
	for name := range cfg.Stages {
		sr, err := NewStageRuntimeOpts(cfg, name, opts)
		if err != nil {
			return nil, err
		}
		out[name] = sr
	}
	return out, nil
}

// ResolveSRv6IDs finds the header instances the SRv6 primitives act on.
func ResolveSRv6IDs(cfg *template.Config) (srh, ipv6 pkt.HeaderID) {
	srh, ipv6 = pkt.InvalidHeader, pkt.InvalidHeader
	if h := cfg.HeaderByName("srh"); h != nil {
		srh = h.ID
	}
	if h := cfg.HeaderByName("ipv6"); h != nil {
		ipv6 = h.ID
	}
	return srh, ipv6
}

// String renders the TSP for debugging.
func (t *TSP) String() string {
	return fmt.Sprintf("TSP%d%v", t.index, t.StageNames())
}
