package tsp

import (
	"fmt"
	"sync/atomic"

	"ipsa/internal/match"
	"ipsa/internal/pkt"
	"ipsa/internal/telemetry"
	"ipsa/internal/template"
)

// TableBackend is what a TSP's matcher needs from the storage module: a
// lookup per logical table. The ipbm device implements it over the
// disaggregated memory pool; tests implement it directly.
type TableBackend interface {
	// Lookup performs a plain table lookup.
	Lookup(table string, key []byte) (match.Result, bool)
	// LookupSelector resolves a selector (ECMP) table: the group is picked
	// by exact match on groupKey, the member by hash.
	LookupSelector(table string, groupKey []byte, hash uint64) (match.Result, bool)
}

// ResolvedTable is a direct handle to one backend table. Compiled
// programs bind these once at apply time so per-packet applies skip the
// backend's name-keyed resolution; semantics are identical to
// TableBackend.Lookup on the same table.
type ResolvedTable interface {
	Lookup(key []byte) (match.Result, bool)
}

// TableResolver is optionally implemented by backends that can hand out
// direct handles for plain (non-selector) tables.
type TableResolver interface {
	ResolveTable(name string) (ResolvedTable, bool)
}

// ResolvedSelector is the selector-table counterpart of ResolvedTable:
// a direct group/member handle bound at apply time.
type ResolvedSelector interface {
	LookupMember(group []byte, hash uint64) (match.Result, bool)
}

// SelectorResolver is optionally implemented by backends that can hand
// out direct selector handles.
type SelectorResolver interface {
	ResolveSelector(name string) (ResolvedSelector, bool)
}

// Prefetcher is optionally implemented by resolved tables whose engine
// can touch the bucket a key would probe (software prefetch). The return
// value is an arbitrary tag of the touched slot; callers sink it into the
// Env so the load cannot be dead-code-eliminated. CanPrefetch reports
// whether the underlying engine actually supports it — a handle whose
// engine cannot (LPM, ternary) returns false and the stage runs without
// speculative key builds rather than paying them for nothing.
type Prefetcher interface {
	CanPrefetch() bool
	Prefetch(key []byte) uint64
}

// PrefetchAdvisor is optionally implemented by prefetchable handles that
// can also tell whether prefetching is worthwhile *right now*: a table
// whose resident probe array fits in cache gains nothing from a one-ahead
// touch but still pays the speculative key build. The batch executor asks
// once per stage per batch, so the table can grow into (or shrink out of)
// prefetching as entries change without a rebind.
type PrefetchAdvisor interface {
	PrefetchUseful() bool
}

// DirectTable is an optional extension of ResolvedTable: a handle that
// can split the engine probe from hit/miss accounting. The fused tier's
// inline apply path uses it to run lookups engine-direct and batch the
// counter updates on the Env (two register increments per packet, flushed
// to the shared atomics once per batch) — see Env.flushTableStats.
type DirectTable interface {
	LookupNoCount(key []byte) (match.Result, bool)
	AddLookupStats(hits, misses uint64)
}

// StageRuntime executes one logical stage template.
type StageRuntime struct {
	tmpl    *template.Stage
	tables  map[string]*template.Table
	actions map[string]*template.Action

	// prog and fused are the production tier, built at bind time: prog
	// holds the stage's table list, key plans and bind-time handles, and
	// fused the closures lowered from the template that capture them (see
	// fuse.go). Both nil selects the reference tree interpreter
	// (ExecInterp).
	prog  *stageProg
	fused *fusedProg

	// pfTable/pfPlan drive the batch executor's one-packet-ahead software
	// prefetch: set by Bind when the stage applies exactly one plain
	// exact-match table whose resolved handle supports it.
	pfTable Prefetcher
	pfPlan  *keyPlan

	// intStamp/intStageID are the interpreter's INT epilogue (fused
	// stages carry it as fused.post instead); set by NewStageRuntimeOpts.
	intStamp   bool
	intStageID uint16

	// parseMask is the stage's needed-header set as a bitmask (valid when
	// parseMaskOK: every parsed HeaderID < 64). When the packet's header
	// vector already covers it, executeOne skips the parser walk with one
	// AND — the common case for every stage after the first.
	parseMask   uint64
	parseMaskOK bool

	packets  atomic.Uint64
	hits     atomic.Uint64
	misses   atomic.Uint64
	defaults atomic.Uint64
}

// NewStageRuntime binds a stage template to its design's tables/actions,
// lowering it to fused closures (the default executor).
func NewStageRuntime(cfg *template.Config, name string) (*StageRuntime, error) {
	return NewStageRuntimeOpts(cfg, name, BuildOpts{})
}

// BuildOpts selects how stage runtimes are constructed: which executor,
// and whether each stage gets the INT stamping epilogue. The zero value
// is the default build (fused closures, INT off).
type BuildOpts struct {
	Mode ExecMode
	// Int gives every stage the IntStamp epilogue: a fused post closure,
	// or the equivalent interpreter flag. Enabling or disabling it is
	// therefore an in-situ rewrite of the stage programs, not a runtime
	// branch flip.
	Int bool
}

// NewStageRuntimeOpts binds a stage template to its design's
// tables/actions with full build options; Mode ExecInterp keeps the
// tree-walking reference interpreter.
func NewStageRuntimeOpts(cfg *template.Config, name string, opts BuildOpts) (*StageRuntime, error) {
	st, ok := cfg.Stages[name]
	if !ok {
		return nil, fmt.Errorf("tsp: no stage %q in config", name)
	}
	sr := &StageRuntime{
		tmpl:    st,
		tables:  make(map[string]*template.Table),
		actions: make(map[string]*template.Action),
	}
	for _, tn := range st.Tables {
		t, ok := cfg.Tables[tn]
		if !ok {
			return nil, fmt.Errorf("tsp: stage %q uses unknown table %q", name, tn)
		}
		sr.tables[tn] = t
	}
	for _, arm := range st.Arms {
		a, ok := cfg.Actions[arm.Action]
		if !ok {
			return nil, fmt.Errorf("tsp: stage %q arm uses unknown action %q", name, arm.Action)
		}
		sr.actions[arm.Action] = a
	}
	sr.parseMaskOK = true
	for _, id := range st.Parse {
		if id < 0 || id >= 64 {
			sr.parseMask, sr.parseMaskOK = 0, false
			break
		}
		sr.parseMask |= 1 << uint(id)
	}
	if opts.Mode == ExecFused {
		sr.prog = compileStage(sr)
		sr.fused = fuseStage(sr)
	}
	if opts.Int {
		id := IntStageID(name)
		if sr.fused != nil {
			sr.fused.post = func(e *Env) { e.intStamp(id) }
		} else {
			sr.intStamp = true
			sr.intStageID = id
		}
	}
	return sr, nil
}

// Bind resolves the fused program's table references against the
// backend, if it supports direct handles. Called at apply time after the
// backend's tables exist; a no-op for the interpreter (whose applies stay
// name-keyed) and for backends without a resolver. Handles stay valid
// across entry inserts and migrations — only a table drop invalidates
// them, and a drop always comes with new runtimes for the stages that
// referenced it.
func (sr *StageRuntime) Bind(backend TableBackend) {
	if sr.prog == nil {
		return
	}
	res, rok := backend.(TableResolver)
	sel, sok := backend.(SelectorResolver)
	if rok {
		sr.prog.resolved = make([]ResolvedTable, len(sr.prog.tables))
		sr.prog.direct = make([]DirectTable, len(sr.prog.tables))
	}
	if sok {
		sr.prog.resolvedSels = make([]ResolvedSelector, len(sr.prog.tables))
	}
	for i, t := range sr.prog.tables {
		if t.IsSelector {
			if sok {
				if rs, found := sel.ResolveSelector(t.Name); found {
					sr.prog.resolvedSels[i] = rs
				}
			}
			continue
		}
		if rok {
			if rt, found := res.ResolveTable(t.Name); found {
				sr.prog.resolved[i] = rt
				if dt, ok := rt.(DirectTable); ok {
					sr.prog.direct[i] = dt
				}
			}
		}
	}
	// Arm the batch executor's one-ahead prefetch for the common stage
	// shape: exactly one plain table with a compiled key plan, resolved to
	// a handle that can touch its bucket. Advisory only — batches run
	// identically without it.
	sr.pfTable, sr.pfPlan = nil, nil
	if sr.fused != nil && len(sr.prog.tables) == 1 && !sr.prog.tables[0].IsSelector &&
		sr.prog.keyPlans[0] != nil && sr.prog.resolved != nil {
		if pf, ok := sr.prog.resolved[0].(Prefetcher); ok && pf.CanPrefetch() {
			sr.pfTable = pf
			sr.pfPlan = sr.prog.keyPlans[0]
		}
	}
}

// Name returns the stage name.
func (sr *StageRuntime) Name() string { return sr.tmpl.Name }

// Template returns the underlying template.
func (sr *StageRuntime) Template() *template.Stage { return sr.tmpl }

// Stats reports packets seen, table hits and misses.
func (sr *StageRuntime) Stats() (packets, hits, misses uint64) {
	return sr.packets.Load(), sr.hits.Load(), sr.misses.Load()
}

// Defaults reports how often the default arm ran (miss or no-apply).
func (sr *StageRuntime) Defaults() uint64 { return sr.defaults.Load() }

// matchOutcome is what the matcher hands the executor.
type matchOutcome struct {
	applied bool
	hit     bool
	tag     uint64
	params  []uint64
	table   string // the table the stage applied, for tracing
}

// Execute runs the stage's parse-match-execute triad on one packet.
func (sr *StageRuntime) Execute(p *pkt.Packet, parser *OnDemandParser, backend TableBackend, env *Env) {
	sr.packets.Add(1)
	applied, hit, isDefault := sr.executeOne(p, parser, backend, env)
	env.flushTableStats()
	if applied {
		if hit {
			sr.hits.Add(1)
		} else {
			sr.misses.Add(1)
		}
	}
	if isDefault {
		sr.defaults.Add(1)
	}
}

// ExecuteBatch runs the stage over every live packet of a batch before
// the pipeline advances to the next stage: per-stage state (match tables,
// closures, key plans) stays cache-hot across the batch, and the stage
// counters — four contended atomics per packet on the scalar path — are
// accumulated in registers and flushed once. Packets already dropped by
// an earlier stage are skipped, preserving the scalar path's
// break-on-drop semantics. Trace and Timed are re-pointed per packet from
// the packet itself. When Bind armed a prefetcher, the next live packet's
// table bucket is touched one packet ahead.
func (sr *StageRuntime) ExecuteBatch(ps []*pkt.Packet, parser *OnDemandParser, backend TableBackend, env *Env) {
	var packets, hits, misses, defaults uint64
	n := len(ps)
	// One-ahead prefetch, re-advised once per batch: a table whose probe
	// array is currently cache-resident declines, and the batch skips the
	// speculative key builds entirely.
	pf := sr.pfTable
	if pf != nil {
		if adv, ok := pf.(PrefetchAdvisor); ok && !adv.PrefetchUseful() {
			pf = nil
		}
	}
	for i, p := range ps {
		if p == nil || p.Drop {
			continue
		}
		if pf != nil {
			for j := i + 1; j < n; j++ {
				if nx := ps[j]; nx != nil && !nx.Drop {
					sr.prefetchFor(nx, env)
					break
				}
			}
		}
		packets++
		env.Trace = p.Trace
		env.Timed = p.Timed
		applied, hit, isDefault := sr.executeOne(p, parser, backend, env)
		if applied {
			if hit {
				hits++
			} else {
				misses++
			}
		}
		if isDefault {
			defaults++
		}
	}
	env.flushTableStats()
	if packets != 0 {
		sr.packets.Add(packets)
		if hits != 0 {
			sr.hits.Add(hits)
		}
		if misses != 0 {
			sr.misses.Add(misses)
		}
		if defaults != 0 {
			sr.defaults.Add(defaults)
		}
	}
}

// prefetchFor speculatively builds nx's lookup key for the stage's single
// table and touches the bucket it would probe, so the real lookup one
// packet later finds the line resident. Strictly advisory and free of
// side effects: no fault counters, a separate scratch buffer, and any
// unreadable field aborts silently (the real lookup faults properly).
func (sr *StageRuntime) prefetchFor(nx *pkt.Packet, env *Env) {
	kp := sr.pfPlan
	if cap(env.specBuf) < kp.nBytes {
		env.specBuf = make([]byte, kp.nBytes)
	}
	key := env.specBuf[:kp.nBytes]
	for i := range key {
		key[i] = 0
	}
	for si := range kp.steps {
		s := &kp.steps[si]
		if s.width > 64 {
			return
		}
		var v uint64
		var err error
		switch s.kind {
		case keyMeta:
			v, err = pkt.GetBits(nx.Meta, s.bitOff, s.width)
		case keyHdr:
			loc, ok := nx.HV.Loc(s.hdr)
			if !ok {
				return
			}
			v, err = pkt.GetBits(nx.Data, loc.Off*8+s.bitOff, s.width)
		default: // keyValue: params are not bound during match, consts only.
			if s.op == nil || s.op.Kind != template.OpdConst {
				return
			}
			v = s.op.Const
		}
		if err != nil {
			return
		}
		if pkt.SetBits(key, s.dstOff, s.width, v) != nil {
			return
		}
	}
	env.prefetched += sr.pfTable.Prefetch(key)
}

// executeOne is the per-packet core shared by Execute and ExecuteBatch.
// Callers own the stage counters (batches flush them once per batch).
func (sr *StageRuntime) executeOne(p *pkt.Packet, parser *OnDemandParser, backend TableBackend, env *Env) (applied, hit, isDefault bool) {
	env.Pkt = p
	// Parser submodule: just-in-time parsing of the declared headers. The
	// mask compare short-circuits the per-header walk when everything the
	// stage needs is already in the packet's header vector — Ensure on an
	// already-valid header is a no-op, so skipping it changes nothing.
	if !(sr.parseMaskOK && p.HV.HasAll(sr.parseMask)) {
		parser.EnsureAll(p, sr.tmpl.Parse)
	}
	// Matcher submodule. The outcome lives on the Env, not the stack:
	// its address flows into closure calls on the fused tier, and a
	// stack-local would escape (one allocation per stage per packet).
	out := &env.matchOut
	*out = matchOutcome{}
	if sr.fused != nil {
		if sr.fused.match != nil {
			sr.fused.match(env, backend, out)
		}
	} else {
		sr.runMatch(sr.tmpl.Match, env, backend, out)
	}
	// Executor submodule: select the arm by the matched entry's tag;
	// misses and no-apply paths take the default arm. The fused tier
	// carries a precomputed dispatch table; the interpreter scans the
	// template's arm list. Both pick the last declaration on a tie.
	armIdx, defIdx := -1, -1
	if sr.fused != nil {
		defIdx = sr.prog.defaultArm
		if out.applied && out.hit {
			// Backwards with early exit: the first match from the end is
			// the interpreter's last-declaration-wins.
			tags := sr.prog.armTags
			for i := len(tags) - 1; i >= 0; i-- {
				if tags[i] == out.tag {
					armIdx = sr.prog.armAt[i]
					break
				}
			}
		}
	} else {
		for i := range sr.tmpl.Arms {
			a := &sr.tmpl.Arms[i]
			if a.Default {
				defIdx = i
				continue
			}
			if out.applied && out.hit && a.Tag == out.tag {
				armIdx = i
			}
		}
	}
	if armIdx == -1 {
		armIdx = defIdx
		isDefault = armIdx != -1
	}
	if env.Trace != nil {
		ev := telemetry.StageEvent{
			TSP: env.TSPIndex, Stage: sr.tmpl.Name, Table: out.table,
			Applied: out.applied, Hit: out.hit, Tag: out.tag, Default: isDefault,
		}
		if armIdx != -1 {
			ev.Action = sr.tmpl.Arms[armIdx].Action
		}
		env.Trace.AddStage(ev)
	}
	if armIdx != -1 {
		if sr.fused != nil {
			if arm := sr.fused.arms[armIdx]; arm != nil {
				env.Params = out.params
				arm(env)
				env.Params = nil
			}
		} else if act := sr.actions[sr.tmpl.Arms[armIdx].Action]; act == nil {
			env.Faults.BadTemplate.Add(1)
		} else {
			env.Params = out.params
			env.ExecInstrs(act.Body)
			env.Params = nil
		}
	}
	// Stage epilogue: the INT stamp, when this runtime was built with it.
	// Runs whether or not an arm matched (the stage still processed the
	// packet) but not for drops — a dropped packet's trailer is never
	// egressed, so stamping it would only distort the flow-path counters.
	if sr.fused != nil {
		if sr.fused.post != nil && !p.Drop {
			sr.fused.post(env)
		}
	} else if sr.intStamp && !p.Drop {
		env.intStamp(sr.intStageID)
	}
	return out.applied, out.hit, isDefault
}

func (sr *StageRuntime) runMatch(stmts []template.MatchStmt, env *Env, backend TableBackend, out *matchOutcome) {
	for i := range stmts {
		st := &stmts[i]
		switch st.Kind {
		case template.MatchIf:
			if env.EvalCond(st.Cond) {
				sr.runMatch(st.Then, env, backend, out)
			} else {
				sr.runMatch(st.Else, env, backend, out)
			}
		case template.MatchApply:
			if out.applied {
				// One table application per stage per packet; extra
				// applies are template bugs.
				env.Faults.BadTemplate.Add(1)
				continue
			}
			t := sr.tables[st.Table]
			if t == nil {
				env.Faults.BadTemplate.Add(1)
				continue
			}
			env.applyTable(t, backend, out)
		}
	}
}

// applyTable performs one table application: key/group construction,
// backend lookup, and outcome recording. Both the interpreter and the
// fused executor funnel through this so lookup semantics (including the
// skip-on-unreadable-key paths) cannot diverge between the two.
func (e *Env) applyTable(t *template.Table, backend TableBackend, out *matchOutcome) {
	e.applyTableWith(t, nil, nil, nil, backend, out)
}

// applyTableWith is applyTable with optional compile/bind-time shortcuts:
// direct table/selector handles (rt/rs) that skip the backend's name
// resolution, and a key plan (kp) that skips the generic key builder's
// per-field operand dispatch. Key bytes, selector handling, fault
// ordering and outcome recording are byte-identical either way.
func (e *Env) applyTableWith(t *template.Table, rt ResolvedTable, rs ResolvedSelector, kp *keyPlan, backend TableBackend, out *matchOutcome) {
	out.applied = true
	out.table = t.Name
	var res match.Result
	var ok bool
	if t.IsSelector {
		group, gok := e.operandBytes(&t.Keys[0].Operand, e.groupBuf)
		if !gok {
			return
		}
		e.groupBuf = group[:0]
		var h uint64
		if kp != nil && kp.sel {
			h = e.hashPlanned(kp)
		} else {
			h = uint64(fnvOffset64)
			for k := 1; k < len(t.Keys); k++ {
				raw, rok := e.operandBytes(&t.Keys[k].Operand, e.fieldBuf)
				if !rok {
					break
				}
				e.fieldBuf = raw[:0]
				for _, b := range raw {
					h ^= uint64(b)
					h *= fnvPrime64
				}
			}
		}
		if rs != nil {
			res, ok = rs.LookupMember(group, finalizeHash(h))
		} else {
			res, ok = backend.LookupSelector(t.Name, group, finalizeHash(h))
		}
	} else {
		var key []byte
		var kok bool
		if kp != nil {
			key, kok = e.buildKeyPlanned(kp)
		} else {
			key, kok = BuildKey(e, t)
		}
		if !kok {
			return
		}
		if rt != nil {
			res, ok = rt.Lookup(key)
		} else {
			res, ok = backend.Lookup(t.Name, key)
		}
	}
	if ok {
		out.hit = true
		out.tag = uint64(res.ActionID)
		out.params = res.Params
	}
}

// keySlot returns the Env's zeroed n-byte key scratch slice.
func (e *Env) keySlot(n int) []byte {
	if cap(e.keyBuf) < n {
		e.keyBuf = make([]byte, n)
	}
	key := e.keyBuf[:n]
	for i := range key {
		key[i] = 0
	}
	return key
}

// flushTableStats credits the hit/miss counts the fused inline-apply path
// accumulated on this Env to their table and clears the batch. Execute
// flushes per packet, ExecuteBatch once per batch; either way the shared
// table counters are exact at every public boundary.
func (e *Env) flushTableStats() {
	if e.statTbl != nil {
		if e.statHits|e.statMisses != 0 {
			e.statTbl.AddLookupStats(e.statHits, e.statMisses)
			e.statHits, e.statMisses = 0, 0
		}
		e.statTbl = nil
	}
}

// buildKeyPlanned is BuildKey over a compiled key plan: field sources,
// widths and key positions were resolved at compile time, so the
// per-packet work is bounds-checked copies. It must produce the same
// bytes and the same fault/abort sequence as BuildKey on the same table.
func (e *Env) buildKeyPlanned(p *keyPlan) ([]byte, bool) {
	key := e.keySlot(p.nBytes)
	for si := range p.steps {
		s := &p.steps[si]
		switch s.kind {
		case keyMeta:
			if s.aligned {
				so, nb := s.bitOff/8, s.width/8
				if so+nb > len(e.Pkt.Meta) {
					e.Faults.BadTemplate.Add(1)
					return nil, false
				}
				copy(key[s.dstOff/8:], e.Pkt.Meta[so:so+nb])
				continue
			}
			if !e.keyCopyBits(key, s, e.Pkt.Meta, s.bitOff) {
				return nil, false
			}
		case keyHdr:
			loc, ok := e.Pkt.HV.Loc(s.hdr)
			if !ok {
				e.Faults.InvalidHeaderAccess.Add(1)
				return nil, false
			}
			src := loc.Off*8 + s.bitOff
			if s.aligned {
				so, nb := src/8, s.width/8
				if so+nb > len(e.Pkt.Data) {
					e.Faults.BadTemplate.Add(1)
					return nil, false
				}
				copy(key[s.dstOff/8:], e.Pkt.Data[so:so+nb])
				continue
			}
			if !e.keyCopyBits(key, s, e.Pkt.Data, src) {
				return nil, false
			}
		default: // keyValue: constants, params — ReadOperand faults inside.
			v := e.ReadOperand(s.op)
			off, w := s.dstOff, s.width
			if w > 64 {
				// Value kinds carry at most 64 significant bits; the
				// high bits of the field stay zero (the key is zeroed).
				off += w - 64
				w = 64
			}
			if err := pkt.SetBits(key, off, w, v); err != nil {
				return nil, false
			}
		}
	}
	return key, true
}

// hashPlanned folds a selector's hashed fields over a compiled plan.
// Every field fits a register (the compiler rejects wider ones), so the
// fold runs load-shift-mix with no scratch buffer. Byte order, fault
// kinds and the stop-hashing-keep-looking-up behaviour on a faulted
// field all mirror the generic operandBytes loop.
func (e *Env) hashPlanned(p *keyPlan) uint64 {
	h := uint64(fnvOffset64)
loop:
	for si := range p.steps {
		s := &p.steps[si]
		var v uint64
		switch s.kind {
		case keyMeta:
			var err error
			v, err = pkt.GetBits(e.Pkt.Meta, s.bitOff, s.width)
			if err != nil {
				e.Faults.BadTemplate.Add(1)
				break loop
			}
		case keyHdr:
			loc, ok := e.Pkt.HV.Loc(s.hdr)
			if !ok {
				e.Faults.InvalidHeaderAccess.Add(1)
				break loop
			}
			var err error
			v, err = pkt.GetBits(e.Pkt.Data, loc.Off*8+s.bitOff, s.width)
			if err != nil {
				e.Faults.BadTemplate.Add(1)
				break loop
			}
		default: // keyValue — ReadOperand faults inside, never aborts.
			v = e.ReadOperand(s.op)
		}
		// Mix the field's bytes MSB-first, exactly the sequence
		// operandBytes lays out: a leading sub-byte fragment, then
		// whole bytes.
		for sh := ((s.width + 7) / 8) * 8; sh > 0; sh -= 8 {
			h ^= uint64(byte(v >> uint(sh-8)))
			h *= fnvPrime64
		}
	}
	return h
}

// keyCopyBits moves one unaligned planned field into the key, mirroring
// the generic path's extract-then-splice (and its BadTemplate fault on an
// out-of-range source). Fields of at most 64 bits move through a single
// register load/store; wider ones go through the Env's scratch buffer.
// Either route produces the bytes GetBytes+SetBytes would.
func (e *Env) keyCopyBits(key []byte, s *keyStep, src []byte, srcBit int) bool {
	if s.width <= 64 {
		v, err := pkt.GetBits(src, srcBit, s.width)
		if err != nil {
			e.Faults.BadTemplate.Add(1)
			return false
		}
		return pkt.SetBits(key, s.dstOff, s.width, v) == nil
	}
	nb := (s.width + 7) / 8
	if cap(e.fieldBuf) < nb {
		e.fieldBuf = make([]byte, nb)
	}
	raw := e.fieldBuf[:nb]
	if err := pkt.GetBytes(src, srcBit, s.width, raw); err != nil {
		e.Faults.BadTemplate.Add(1)
		return false
	}
	e.fieldBuf = raw[:0]
	return pkt.SetBytes(key, s.dstOff, s.width, raw) == nil
}

// BuildKey assembles a table's lookup key by concatenating its key fields
// bit by bit (MSB first), padded to whole bytes at the tail. The control
// plane uses the same layout via ctrlplane.EncodeKey so inserted entries
// and data-plane lookups agree.
//
// The returned slice aliases the Env's scratch buffer and is valid only
// until the next BuildKey call on the same Env; lookup engines never
// retain it (exact engines copy via string conversion).
func BuildKey(env *Env, t *template.Table) ([]byte, bool) {
	n := (t.KeyWidth + 7) / 8
	if cap(env.keyBuf) < n {
		env.keyBuf = make([]byte, n)
	}
	key := env.keyBuf[:n]
	for i := range key {
		key[i] = 0
	}
	bit := 0
	for i := range t.Keys {
		o := &t.Keys[i].Operand
		raw, ok := env.operandBytes(o, env.fieldBuf)
		if !ok {
			return nil, false
		}
		env.fieldBuf = raw[:0]
		if err := appendBits(key, bit, o.Width, raw); err != nil {
			return nil, false
		}
		bit += o.Width
	}
	return key, true
}

// appendBits copies a width-bit field (right-aligned in raw) into dst at
// bit offset.
func appendBits(dst []byte, bitOff, width int, raw []byte) error {
	return pkt.SetBytes(dst, bitOff, width, raw)
}
