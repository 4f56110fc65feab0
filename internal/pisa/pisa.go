// Package pisa is the comparison baseline: a PISA software switch in the
// style of bmv2 (paper Sec. 4.3 compares bmv2 against ipbm). It executes
// the same compiled stage templates as ipbm but with PISA's architectural
// properties, which are exactly what the paper criticizes:
//
//   - a standalone front-end parser that parses every header up front;
//   - a fixed number of ingress and egress physical stages, traversed by
//     every packet whether programmed or not;
//   - memory prorated per stage: a table bigger than one stage's share
//     combines the memory of consecutive stages, consuming them;
//   - a deparser that reassembles the packet at egress;
//   - and, crucially, no incremental update: ApplyConfig is always a full
//     pipeline rebuild that discards every table entry, so the controller
//     must repopulate all tables afterwards.
package pisa

import (
	"fmt"
	"log/slog"
	"sync"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/dataplane"
	"ipsa/internal/intmd"
	"ipsa/internal/match"
	"ipsa/internal/pkt"
	"ipsa/internal/template"
	"ipsa/internal/tsp"
	"ipsa/internal/verdict"
)

// Options sizes the PISA pipeline.
type Options struct {
	// IngressStages and EgressStages are the fixed physical stage counts.
	IngressStages int
	EgressStages  int
	// StageBlocks is each stage's memory share in pool blocks; a larger
	// table spans consecutive stages.
	StageBlocks int
	// BlockWidth/BlockDepth size one memory block (bits × entries).
	BlockWidth, BlockDepth int
	// Exec selects the stage executor (fused closures by default; the
	// tree-walking interpreter for differential testing).
	Exec tsp.ExecMode
	// IntSwitchID identifies this switch in INT hop records.
	IntSwitchID uint32
	// Logger receives structured diagnostics (nil uses slog.Default).
	Logger *slog.Logger
}

// DefaultOptions mirrors a mid-sized fixed-function budget.
func DefaultOptions() Options {
	return Options{
		IngressStages: 12,
		EgressStages:  4,
		StageBlocks:   8,
		BlockWidth:    128,
		BlockDepth:    4096,
		IntSwitchID:   2, // distinguish from ipbm's default 1 in multi-hop runs
	}
}

// physStage is one fixed physical stage.
type physStage struct {
	runtime *tsp.StageRuntime // nil = unprogrammed, still traversed
}

// Switch is the PISA behavioral model.
type Switch struct {
	opts Options
	log  *slog.Logger

	// dp holds the installed design snapshot (config, parser, registers,
	// SRv6 IDs), fault counters and the Env pool, shared with ipbm so the
	// per-packet lifecycle is identical infrastructure.
	dp *dataplane.Core

	mu        sync.RWMutex
	ingress   []physStage
	egress    []physStage
	tables    map[string]match.Engine
	selectors map[string]map[string][]match.Result
	tstats    map[string]*tableCounters

	processed uint64
	dropped   uint64
	// dropReasons is the per-reason loss ledger (indexed by
	// verdict.DropReason minus one): a stage drop is "acl", a survivor
	// with no egress pick is "no_port" or — when admission flagged the
	// frame unparseable — "parse_error". pisa has no TM or TX path, so
	// the other reasons stay zero.
	dropReasons [verdict.NumReasons]uint64

	// effectiveStagesUsed counts physical stages consumed, including the
	// extra stages spanned by oversized tables.
	effectiveStagesUsed int
	// reloads counts full pipeline rebuilds.
	reloads int

	// INT state: whether stamping is compiled in, the sink's stage-ID
	// name map, the retained reports, and a test-injectable clock.
	intOn      bool
	intNames   map[uint16]string
	intReports *intmd.ReportRing
	intNow     func() int64
}

type tableCounters struct {
	mu           sync.Mutex
	hits, misses uint64
}

// New builds an unprogrammed PISA switch.
func New(opts Options) (*Switch, error) {
	if opts.IngressStages <= 0 || opts.EgressStages <= 0 || opts.StageBlocks <= 0 {
		return nil, fmt.Errorf("pisa: invalid sizing %+v", opts)
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.Default()
	}
	s := &Switch{
		opts:      opts,
		log:       logger.With("component", "pisa"),
		dp:        dataplane.NewCore(),
		ingress:   make([]physStage, opts.IngressStages),
		egress:    make([]physStage, opts.EgressStages),
		tables:    make(map[string]match.Engine),
		selectors: make(map[string]map[string][]match.Result),
		tstats:    make(map[string]*tableCounters),
	}
	s.dp.SetLogger(logger.With("component", "dataplane", "switch", "pisa"))
	return s, nil
}

// Reloads reports how many full rebuilds have happened.
func (s *Switch) Reloads() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.reloads
}

// EffectiveStagesUsed reports physical stages consumed by the installed
// design, counting stages burned by table spanning.
func (s *Switch) EffectiveStagesUsed() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.effectiveStagesUsed
}

// stageSpan computes how many physical stages a table's memory consumes.
func (s *Switch) stageSpan(t *template.Table) int {
	blocks := blocksFor(t, s.opts)
	span := (blocks + s.opts.StageBlocks - 1) / s.opts.StageBlocks
	if span < 1 {
		span = 1
	}
	return span
}

func blocksFor(t *template.Table, o Options) int {
	wc := (t.KeyWidth + o.BlockWidth - 1) / o.BlockWidth
	dc := (t.Size + o.BlockDepth - 1) / o.BlockDepth
	return wc * dc
}

// ApplyConfig performs PISA's only update mode: a full rebuild. Every
// existing table is discarded (entries and all), every stage is
// reprogrammed, registers are reset.
func (s *Switch) ApplyConfig(cfg *template.Config) (*ctrlplane.ApplyStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()

	runtimes, err := tsp.BuildStageRuntimesOpts(cfg, tsp.BuildOpts{Mode: s.opts.Exec, Int: s.intOn})
	if err != nil {
		return nil, err
	}
	// Map logical chains onto fixed stages in order, accounting for table
	// spans.
	newIngress := make([]physStage, s.opts.IngressStages)
	newEgress := make([]physStage, s.opts.EgressStages)
	used := 0
	place := func(chain []string, phys []physStage) error {
		next := 0
		for _, sn := range chain {
			st := cfg.Stages[sn]
			span := 1
			for _, tn := range st.Tables {
				if sp := s.stageSpan(cfg.Tables[tn]); sp > span {
					span = sp
				}
			}
			if next+span > len(phys) {
				return fmt.Errorf("pisa: stage %q needs %d physical stages at position %d, only %d available",
					sn, span, next, len(phys))
			}
			phys[next] = physStage{runtime: runtimes[sn]}
			next += span // spanned stages are consumed (paper Sec. 5)
			used += span
		}
		return nil
	}
	if err := place(cfg.IngressChain, newIngress); err != nil {
		return nil, err
	}
	if err := place(cfg.EgressChain, newEgress); err != nil {
		return nil, err
	}

	// Rebuild all tables empty: the full-reload penalty.
	tables := make(map[string]match.Engine, len(cfg.Tables))
	selectors := make(map[string]map[string][]match.Result)
	tstats := make(map[string]*tableCounters, len(cfg.Tables))
	for name, t := range cfg.Tables {
		kind, err := match.ParseKind(t.Kind)
		if err != nil {
			return nil, err
		}
		eng, err := match.New(kind, t.KeyWidth, t.Size)
		if err != nil {
			return nil, err
		}
		tables[name] = eng
		if t.IsSelector {
			selectors[name] = make(map[string][]match.Result)
		}
		tstats[name] = &tableCounters{}
	}

	s.ingress = newIngress
	s.egress = newEgress
	s.tables = tables
	s.selectors = selectors
	s.tstats = tstats
	// Registers reset on every rebuild, unlike ipbm's additive update.
	s.dp.Install(cfg, tsp.NewRegisterFile(cfg.Registers))
	s.publishIntState(cfg)
	s.effectiveStagesUsed = used
	s.reloads++
	s.log.Debug("full pipeline rebuild (PISA has no incremental update)",
		"tables_rebuilt", len(cfg.Tables), "stages_used", used,
		"reloads", s.reloads, "load", time.Since(start))

	return &ctrlplane.ApplyStats{
		Full:          true,
		TSPsWritten:   s.opts.IngressStages + s.opts.EgressStages,
		TablesCreated: len(cfg.Tables),
		LoadNanos:     int64(time.Since(start)),
	}, nil
}

// Lookup implements tsp.TableBackend over per-stage memory.
func (s *Switch) Lookup(table string, key []byte) (match.Result, bool) {
	s.mu.RLock()
	eng := s.tables[table]
	tc := s.tstats[table]
	s.mu.RUnlock()
	if eng == nil {
		return match.Result{}, false
	}
	r, ok := eng.Lookup(key)
	if tc != nil {
		tc.mu.Lock()
		if ok {
			tc.hits++
		} else {
			tc.misses++
		}
		tc.mu.Unlock()
	}
	return r, ok
}

// LookupSelector: PISA models ECMP with action-selector externs; the
// behavioral model resolves group members by hash like ipbm does.
func (s *Switch) LookupSelector(table string, groupKey []byte, h uint64) (match.Result, bool) {
	s.mu.RLock()
	members := s.selectors[table][string(groupKey)]
	s.mu.RUnlock()
	if len(members) == 0 {
		return match.Result{}, false
	}
	return members[h%uint64(len(members))], true
}

// frontParse is PISA's standalone parser: it walks the entire parse graph
// up front regardless of what the stages need (paper Sec. 2.1).
func (s *Switch) frontParse(d *dataplane.Design, p *pkt.Packet) {
	// Parsing "everything" = ensuring every header; the walk stops at the
	// first header the packet doesn't carry, exactly like a front parser
	// reaching an accept state.
	for i := range d.Cfg.Headers {
		d.Parser.Ensure(p, d.Cfg.Headers[i].ID)
	}
}

// deparse models PISA's egress deparser: the packet is reassembled from
// the parsed representation into a fresh buffer.
func (s *Switch) deparse(p *pkt.Packet) {
	out := make([]byte, len(p.Data))
	copy(out, p.Data)
	p.Data = out
}

// ProcessPacket pushes a frame through the fixed pipeline. The returned
// packet is caller-owned; the per-packet Env comes from the shared
// dataplane pool.
func (s *Switch) ProcessPacket(data []byte, inPort int) (*pkt.Packet, error) {
	d := s.dp.Design()
	if d == nil {
		return nil, fmt.Errorf("pisa: no configuration installed")
	}
	s.mu.RLock()
	ing := s.ingress
	eg := s.egress
	s.mu.RUnlock()
	p, err := d.NewPacket(data, inPort)
	if err != nil {
		return nil, err
	}
	// pisa skips dataplane.BeginPacket (no telemetry hooks), so the INT
	// ingress timestamp is stamped here.
	if ctx := s.dp.IntCtx(); ctx != nil {
		p.IngressNanos = ctx.NowNanos()
	}
	env := s.dp.GetEnv(d)

	s.frontParse(d, p)
	// Every physical stage is traversed, programmed or not.
	for i := range ing {
		if p.Drop {
			break
		}
		if ing[i].runtime != nil {
			ing[i].runtime.Execute(p, d.Parser, s, env)
		}
	}
	if !p.Drop {
		for i := range eg {
			if p.Drop {
				break
			}
			if eg[i].runtime != nil {
				eg[i].runtime.Execute(p, d.Parser, s, env)
			}
		}
	}
	s.dp.PutEnv(env)
	if !p.Drop {
		dataplane.SurfaceOutPort(p)
	}
	s.mu.Lock()
	if p.Drop {
		s.dropped++
		// An admission parse stamp wins over the program drop, matching
		// dataplane.DropVerdict: a catch-all drop action that disposed of
		// an unparseable frame is a parse loss, not ACL policy.
		if p.DropReason == verdict.ReasonParse {
			s.dropReasons[verdict.ReasonParse-1]++
		} else {
			s.dropReasons[verdict.ReasonACL-1]++
		}
	} else {
		s.processed++
		if p.OutPort < 0 {
			if p.DropReason == verdict.ReasonParse {
				s.dropReasons[verdict.ReasonParse-1]++
			} else {
				s.dropReasons[verdict.ReasonNoPort-1]++
			}
		}
	}
	s.mu.Unlock()
	if p.Drop {
		return p, nil
	}
	// INT sink runs before the deparser so the reassembled packet never
	// carries the trailer off the switch.
	s.intSinkProcess(p)
	s.deparse(p)
	return p, nil
}

// Config returns the installed configuration (nil before the first
// ApplyConfig).
func (s *Switch) Config() *template.Config {
	if d := s.dp.Design(); d != nil {
		return d.Cfg
	}
	return nil
}

// InsertEntry installs one table entry (same encoding as ipbm).
func (s *Switch) InsertEntry(req ctrlplane.EntryReq) (int, error) {
	cfg := s.Config()
	if cfg == nil {
		return 0, fmt.Errorf("pisa: no configuration installed")
	}
	t, ok := cfg.Tables[req.Table]
	if !ok {
		return 0, fmt.Errorf("pisa: unknown table %q", req.Table)
	}
	if t.IsSelector {
		return 0, fmt.Errorf("pisa: table %q is a selector; use AddMember", req.Table)
	}
	entry, err := ctrlplane.EncodeEntry(t, req)
	if err != nil {
		return 0, err
	}
	s.mu.RLock()
	eng := s.tables[req.Table]
	s.mu.RUnlock()
	if eng == nil {
		return 0, fmt.Errorf("pisa: table %q not instantiated", req.Table)
	}
	return eng.Insert(entry)
}

// AddMember adds an ECMP member to a selector table.
func (s *Switch) AddMember(req ctrlplane.MemberReq) error {
	cfg := s.Config()
	if cfg == nil {
		return fmt.Errorf("pisa: no configuration installed")
	}
	t, ok := cfg.Tables[req.Table]
	if !ok || !t.IsSelector {
		return fmt.Errorf("pisa: table %q is not a selector", req.Table)
	}
	group, err := ctrlplane.EncodeGroupKey(t, req.Group)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.selectors[req.Table] == nil {
		return fmt.Errorf("pisa: table %q not instantiated", req.Table)
	}
	s.selectors[req.Table][string(group)] = append(s.selectors[req.Table][string(group)],
		match.Result{ActionID: req.Tag, Params: append([]uint64(nil), req.Params...)})
	return nil
}

// TableStats reads a table's counters.
func (s *Switch) TableStats(table string) (*ctrlplane.TableStats, error) {
	s.mu.RLock()
	tc := s.tstats[table]
	s.mu.RUnlock()
	if tc == nil {
		return nil, fmt.Errorf("pisa: unknown table %q", table)
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return &ctrlplane.TableStats{Hits: tc.hits, Misses: tc.misses}, nil
}

// Stats reports processed/dropped packets.
func (s *Switch) Stats() (processed, dropped uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.processed, s.dropped
}

// DropReasons snapshots the per-reason loss ledger, keyed by the shared
// taxonomy's reason strings. Reasons that never fired are omitted.
func (s *Switch) DropReasons() map[string]uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]uint64)
	for i, n := range s.dropReasons {
		if n > 0 {
			out[verdict.DropReason(i+1).String()] = n
		}
	}
	return out
}

// Faults exposes executor fault counters.
func (s *Switch) Faults() *tsp.Faults { return s.dp.Faults() }

// ReadRegister reads one register cell.
func (s *Switch) ReadRegister(name string, index uint64) (uint64, error) {
	d := s.dp.Design()
	if d == nil {
		return 0, fmt.Errorf("pisa: no configuration installed")
	}
	v, ok := d.Regs.Read(name, index)
	if !ok {
		return 0, fmt.Errorf("pisa: register %q[%d] unreadable", name, index)
	}
	return v, nil
}
