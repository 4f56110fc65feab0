// Package ipbm is the IPSA behavioral model: a software switch conforming
// to the IPSA architecture (paper Sec. 4.1). It assembles four modules:
// the Communication Module (netio ports), the Pipeline Module (elastic
// pipeline of TSPs), the Control Channel Module (ctrlplane server) and the
// Storage Module (disaggregated memory pool). Its defining property is
// that ApplyConfig patches only what changed: TSP templates are rewritten
// individually, existing tables and registers keep their contents, and the
// new program is published as an epoch packets pick up without stalling.
package ipbm

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/dataplane"
	"ipsa/internal/flowstat"
	"ipsa/internal/health"
	"ipsa/internal/match"
	"ipsa/internal/mem"
	"ipsa/internal/netio"
	"ipsa/internal/pipeline"
	"ipsa/internal/pkt"
	"ipsa/internal/template"
	"ipsa/internal/tsp"
)

// Options sizes a switch.
type Options struct {
	NumTSPs    int
	NumPorts   int
	QueueDepth int
	Mem        mem.Config
	Crossbar   mem.CrossbarKind
	// PuntDepth bounds the to-CPU queue.
	PuntDepth int
	// TraceRing sizes the telemetry flight recorder (records retained).
	TraceRing int
	// TraceEvery samples every Nth packet into the flight recorder
	// (0 disables tracing until enabled via the control channel).
	TraceEvery uint64
	// LatencyEvery samples every Nth packet for the per-TSP latency
	// histograms (0 disables latency timing, the default — embedding
	// library users opt in). A sampled packet pays two clock reads plus
	// a histogram update per active TSP; at the ipbm daemon's 1-in-128
	// default that amortizes to well under a percent of a ~2µs forward.
	LatencyEvery uint64
	// Exec selects the stage executor: fused closures (default) or the
	// tree-walking reference interpreter.
	Exec tsp.ExecMode

	// IntSwitchID identifies this switch in INT hop records.
	IntSwitchID uint32
	// IntMaxHops caps the hop records one packet accumulates
	// (0 = the wire format's limit of 255).
	IntMaxHops int
	// IntReportRing sizes the sink's ring of decoded reports.
	IntReportRing int
	// EventRing sizes the reconfiguration audit-event log.
	EventRing int
	// DropRing sizes the sampled drop-capture ring (records retained;
	// 0 = 256). The attributed drop counters are always on regardless.
	DropRing int
	// DropSampleRate bounds drop captures per second (token bucket;
	// 0 disables capture until raised via DropRing.SetRate).
	DropSampleRate int64
	// DropSampleBurst is the capture token bucket's capacity
	// (0 = DropSampleRate).
	DropSampleBurst int64

	// Logger receives the switch's structured logs (nil = slog.Default();
	// the switch adds component attributes).
	Logger *slog.Logger
	// HealthInterval is the health sampler/monitor cadence (0 = 1s;
	// negative disables the background ticker so tests can drive
	// Health().Check with synthetic clocks).
	HealthInterval time.Duration
	// HealthWindow is the default rate window (0 = 10s).
	HealthWindow time.Duration
	// HealthRing is the number of retained rate samples (0 = 120).
	HealthRing int
	// ReconfigDeadline bounds a retired program version's quiescence (its
	// last pinned packet finishing) before the health monitor reports the
	// reconfiguration wedged (0 = 2s).
	ReconfigDeadline time.Duration

	// FlowTableBits sizes each flow-accounting lane table to 2^bits slots
	// (0 = flowstat's default of 1024).
	FlowTableBits int
	// FlowIdle is the idle bound past which the sweeper exports a flow as
	// a record (0 = flowstat's default of 2s).
	FlowIdle time.Duration
	// FlowTopK sizes each lane's space-saving heavy-hitter summary
	// (0 = default 16).
	FlowTopK int
	// FlowSketchWidth/FlowSketchDepth size each lane's count-min sketch
	// of evicted flow mass (0 = defaults 1024x4; width rounds up to a
	// power of two, point-estimate error ε = e/width).
	FlowSketchWidth int
	FlowSketchDepth int
	// FlowRecordRing sizes the shared exported-flow-record ring
	// (0 = default 2048).
	FlowRecordRing int
	// FlowDisable turns flow accounting off entirely (it is on by
	// default; the overhead benchmarks use this for the comparison).
	FlowDisable bool
}

// DefaultOptions returns a software-scale switch: more TSPs than the
// paper's 8-processor FPGA so that every use case fits even when header
// linkage defeats predicate merging.
func DefaultOptions() Options {
	return Options{
		NumTSPs:    16,
		NumPorts:   8,
		QueueDepth: 1024,
		Mem:        mem.DefaultConfig(),
		Crossbar:   mem.FullCrossbar,
		PuntDepth:  256,

		TraceRing:    256,
		TraceEvery:   0,
		LatencyEvery: 0,

		IntSwitchID:   1,
		IntReportRing: 256,
		EventRing:     256,

		DropRing:       256,
		DropSampleRate: 64,
	}
}

// Switch is one ipbm instance.
type Switch struct {
	opts Options

	pl    *pipeline.Pipeline
	mm    *mem.Manager
	ports *netio.PortSet
	regs  *tsp.RegisterFile

	// dp holds the per-packet execution state: the installed design as an
	// atomic snapshot (the hot path never takes s.mu), fault counters and
	// the packet/Env pools.
	dp *dataplane.Core

	// mu serializes configuration changes and guards the selector map.
	mu        sync.RWMutex
	selectors map[string]*selectorTable

	// lookups is the hot path's view of the table store: resolved
	// handles keyed by name, swapped atomically whenever a config apply
	// or patch creates, drops or migrates tables. Per-packet lookups
	// never touch the memory manager's mutex.
	lookups atomic.Pointer[lookupSnapshot]

	// epochs is the versioned program store: the only way a program
	// reaches the packet path. Its current pointer is nil only before the
	// first successful ApplyConfig.
	epochs epochStore

	// edit is the open edit-script session, if any (guarded by s.mu).
	edit *editSession

	toCPU  chan *pkt.Packet
	punted atomic.Uint64

	tel    *Telemetry
	log    *slog.Logger
	health *health.Health

	// intOn is the configured INT state (guarded by s.mu); the hot path
	// reads the derived atomic state instead: the stamping context lives
	// in the dataplane core, the sink behind intSinkP.
	intOn    bool
	intSinkP atomic.Pointer[intSink]
	// intNow/intDepth override the stamper's clock and queue-depth
	// sources (tests inject deterministic ones); nil = real sources.
	intNow   func() int64
	intDepth func(port int) int

	// flows is the always-on flow accounting engine (nil only with
	// Options.FlowDisable): per-lane flow tables riding the shard workers
	// in sharded mode and the per-port runners in synchronous mode, plus
	// the shared flow-record ring. Orthogonal to the program store, so
	// flow state survives hitless edit commits and config applies.
	flows *flowstat.Set

	// shardsP is the sharded mode's published state (nil unless
	// RunSharded is active): scrape-time aggregation, the INT queue-depth
	// source and the in-flight audit all read it lock-free.
	shardsP atomic.Pointer[shardSet]

	runWG   sync.WaitGroup
	stopped atomic.Bool
}

// New builds an unconfigured switch.
func New(opts Options) (*Switch, error) {
	if opts.NumTSPs <= 0 || opts.NumPorts <= 0 {
		return nil, fmt.Errorf("ipbm: invalid sizing %+v", opts)
	}
	pl, err := pipeline.New(opts.NumTSPs, opts.NumPorts, opts.QueueDepth)
	if err != nil {
		return nil, err
	}
	mm, err := mem.NewManager(opts.Mem, opts.Crossbar, opts.NumTSPs)
	if err != nil {
		return nil, err
	}
	ports, err := netio.NewPortSet(opts.NumPorts, opts.QueueDepth)
	if err != nil {
		return nil, err
	}
	puntDepth := opts.PuntDepth
	if puntDepth <= 0 {
		puntDepth = 256
	}
	s := &Switch{
		opts:      opts,
		pl:        pl,
		mm:        mm,
		ports:     ports,
		regs:      tsp.NewRegisterFile(nil),
		dp:        dataplane.NewCore(),
		selectors: make(map[string]*selectorTable),
		toCPU:     make(chan *pkt.Packet, puntDepth),
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s.log = logger.With("component", "ipbm")
	s.dp.SetLogger(logger.With("component", "dataplane", "switch", "ipbm"))
	if !opts.FlowDisable {
		lanes := opts.NumPorts
		if lanes < MaxShards+1 {
			lanes = MaxShards + 1
		}
		s.flows = flowstat.NewSet(lanes, flowstat.Config{
			TableBits:   opts.FlowTableBits,
			IdleNanos:   int64(opts.FlowIdle),
			TopK:        opts.FlowTopK,
			SketchWidth: opts.FlowSketchWidth,
			SketchDepth: opts.FlowSketchDepth,
			RingSize:    opts.FlowRecordRing,
		})
	}
	s.newTelemetry(opts)
	s.dp.SetHooks(telemetryHooks{s})
	s.initHealth(opts)
	return s, nil
}

// Pipeline exposes the pipeline module (PM).
func (s *Switch) Pipeline() *pipeline.Pipeline { return s.pl }

// Storage exposes the storage module (SM).
func (s *Switch) Storage() *mem.Manager { return s.mm }

// Ports exposes the communication module (CM).
func (s *Switch) Ports() *netio.PortSet { return s.ports }

// Registers exposes the register file.
func (s *Switch) Registers() *tsp.RegisterFile { return s.regs }

// Config returns the installed configuration (nil before the first
// ApplyConfig).
func (s *Switch) Config() *template.Config {
	if d := s.dp.Design(); d != nil {
		return d.Cfg
	}
	return nil
}

// selectorTable backs an ECMP-style selector: groups of members resolved
// by hash. Like the exact-match engine, the per-packet lookup is
// lock-free over an immutable copy-on-write snapshot; member adds (a
// control-plane operation) clone and republish.
type selectorTable struct {
	mu     sync.Mutex // serialises writers; readers never take it
	groups atomic.Pointer[map[string][]match.Result]
}

func newSelectorTable() *selectorTable {
	st := &selectorTable{}
	m := make(map[string][]match.Result)
	st.groups.Store(&m)
	return st
}

func (st *selectorTable) addMember(group []byte, r match.Result) {
	st.mu.Lock()
	defer st.mu.Unlock()
	old := *st.groups.Load()
	m := make(map[string][]match.Result, len(old)+1)
	for k, v := range old {
		m[k] = v
	}
	k := string(group)
	m[k] = append(append([]match.Result(nil), old[k]...), r)
	st.groups.Store(&m)
}

func (st *selectorTable) lookup(group []byte, h uint64) (match.Result, bool) {
	members := (*st.groups.Load())[string(group)]
	if len(members) == 0 {
		return match.Result{}, false
	}
	return members[h%uint64(len(members))], true
}

// LookupMember implements tsp.ResolvedSelector for bound handles.
func (st *selectorTable) LookupMember(group []byte, h uint64) (match.Result, bool) {
	return st.lookup(group, h)
}

func (st *selectorTable) memberCount() int {
	n := 0
	for _, m := range *st.groups.Load() {
		n += len(m)
	}
	return n
}

// tspSignature canonically describes a TSP's required content under cfg.
func tspSignature(cfg *template.Config, tspIdx int) string {
	var stages []string
	for sn, idx := range cfg.TSPAssignment {
		if idx == tspIdx {
			stages = append(stages, sn)
		}
	}
	// Execution order within a TSP follows the chain order.
	rank := make(map[string]int)
	for i, n := range cfg.IngressChain {
		rank[n] = i
	}
	for i, n := range cfg.EgressChain {
		rank[n] = len(cfg.IngressChain) + i
	}
	sort.Slice(stages, func(i, j int) bool { return rank[stages[i]] < rank[stages[j]] })
	var parts []string
	for _, sn := range stages {
		st := cfg.Stages[sn]
		sub := template.Config{
			Stages:  map[string]*template.Stage{sn: st},
			Actions: map[string]*template.Action{},
			Tables:  map[string]*template.Table{},
		}
		for _, arm := range st.Arms {
			sub.Actions[arm.Action] = cfg.Actions[arm.Action]
		}
		for _, tn := range st.Tables {
			sub.Tables[tn] = cfg.Tables[tn]
		}
		b, _ := json.Marshal(&sub)
		parts = append(parts, string(b))
	}
	return strings.Join(parts, "\x00")
}

// orderedStagesOf returns the stage names hosted by tspIdx in chain order.
func orderedStagesOf(cfg *template.Config, tspIdx int) []string {
	var stages []string
	for sn, idx := range cfg.TSPAssignment {
		if idx == tspIdx {
			stages = append(stages, sn)
		}
	}
	rank := make(map[string]int)
	for i, n := range cfg.IngressChain {
		rank[n] = i
	}
	for i, n := range cfg.EgressChain {
		rank[n] = len(cfg.IngressChain) + i
	}
	sort.Slice(stages, func(i, j int) bool { return rank[stages[i]] < rank[stages[j]] })
	return stages
}

// ApplyConfig installs or patches a device configuration. On a patch, only
// TSPs whose template content changed are rewritten, new tables are
// created, vanished tables are recycled, existing table entries and
// register contents are preserved, and tables whose TSP moved across
// crossbar clusters are migrated. The change is published as a new epoch
// of the versioned program store, so packets never wait for it (see
// epoch.go).
func (s *Switch) ApplyConfig(cfg *template.Config) (*ctrlplane.ApplyStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applyHitless(cfg, start)
}

// lookupSnapshot is an immutable name→handle view of the table store.
type lookupSnapshot struct {
	tables    map[string]*mem.Table
	selectors map[string]*selectorTable
}

// rebuildLookups publishes a fresh snapshot of resolved table and
// selector handles. Called with s.mu held after any change to the table
// set (create, drop, migrate); entry inserts and member adds mutate the
// handles' contents and need no republish.
func (s *Switch) rebuildLookups() {
	snap := &lookupSnapshot{
		tables:    make(map[string]*mem.Table),
		selectors: make(map[string]*selectorTable, len(s.selectors)),
	}
	for _, name := range s.mm.Tables() {
		if t, ok := s.mm.Table(name); ok {
			snap.tables[name] = t
		}
	}
	for name, st := range s.selectors {
		snap.selectors[name] = st
	}
	s.lookups.Store(snap)
}

// ResolveTable implements tsp.TableResolver: compiled stage programs
// bind direct *mem.Table handles at apply time and skip the per-packet
// name resolution. The handle survives inserts and migrations (the
// manager mutates the table in place).
func (s *Switch) ResolveTable(name string) (tsp.ResolvedTable, bool) {
	t, ok := s.mm.Table(name)
	if !ok {
		return nil, false
	}
	return t, true
}

// ResolveSelector implements tsp.SelectorResolver; the same lifetime
// contract as ResolveTable applies (member adds mutate the handle's
// contents in place; only a table drop, which rebinds, invalidates it).
func (s *Switch) ResolveSelector(name string) (tsp.ResolvedSelector, bool) {
	st, ok := s.selectors[name]
	if !ok {
		return nil, false
	}
	return st, true
}

// Lookup implements tsp.TableBackend over the storage module.
func (s *Switch) Lookup(table string, key []byte) (match.Result, bool) {
	snap := s.lookups.Load()
	if snap == nil {
		return match.Result{}, false
	}
	t := snap.tables[table]
	if t == nil {
		return match.Result{}, false
	}
	return t.Lookup(key)
}

// LookupSelector implements the ECMP group/member resolution.
func (s *Switch) LookupSelector(table string, groupKey []byte, h uint64) (match.Result, bool) {
	snap := s.lookups.Load()
	if snap == nil {
		return match.Result{}, false
	}
	st := snap.selectors[table]
	if st == nil {
		return match.Result{}, false
	}
	return st.lookup(groupKey, h)
}
