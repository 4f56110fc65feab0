package tsp

// compile.go holds the bind-time inputs of the fused executor (fuse.go):
// the stage's table list, compiled key plans, arm dispatch, and the
// handle arrays StageRuntime.Bind fills once the backend's tables exist.
// The tree interpreter in interp.go is kept as the reference oracle
// (ExecInterp); the two are held bit-for-bit equivalent — packet bytes,
// metadata, verdicts and fault counters — by the differential fuzz test
// in internal/ipbm.

import (
	"ipsa/internal/pkt"
	"ipsa/internal/template"
)

// ExecMode selects the per-packet executor implementation.
type ExecMode int

// Executor modes. The zero value is the fused compiler, so a zero-valued
// Options/BuildOpts picks the production tier.
const (
	// ExecFused lowers stage templates to fused native Go closures at
	// bind time (see fuse.go). The default.
	ExecFused ExecMode = iota
	// ExecInterp tree-walks the template IR per packet; kept as the
	// reference oracle for differential testing.
	ExecInterp
)

func (m ExecMode) String() string {
	if m == ExecInterp {
		return "interp"
	}
	return "fused"
}

// stageProg is what the fused tier captures from a bound stage: the
// pre-resolved table list its applies index into, plus per-table key
// plans and bind-time handles parallel to it.
type stageProg struct {
	tables []*template.Table
	// resolved holds bind-time table handles parallel to tables, filled
	// by StageRuntime.Bind when the backend supports resolution. Nil
	// slots (selectors, unresolvable names) take the name-keyed path.
	resolved []ResolvedTable
	// resolvedSels is the selector counterpart of resolved: direct
	// group/member handles, parallel to tables.
	resolvedSels []ResolvedSelector
	// direct holds the DirectTable view of resolved handles that support
	// it, parallel to tables; the fused tier's inline apply path reads it
	// to run lookups engine-direct with batched accounting. Nil slots fall
	// back to the generic applyTableWith funnel.
	direct []DirectTable
	// keyPlans holds pre-resolved key-construction plans parallel to
	// tables; nil slots (selectors, inconsistent layouts) fall back to
	// the generic BuildKey.
	keyPlans []*keyPlan
	// Arm dispatch, precomputed from the template's arm list: armTags[i]
	// selects arm armAt[i] on a hit with that tag (last declaration
	// wins, like the interpreter's scan); defaultArm is the last default
	// arm's index, or -1.
	armTags    []uint64
	armAt      []int
	defaultArm int
}

// Key-plan step kinds.
const (
	keyMeta uint8 = iota
	keyHdr
	keyValue
)

// keyStep is one pre-resolved field of a table key: where the bits come
// from and where in the key they land, decided at compile time so the
// per-packet build is copies only.
type keyStep struct {
	kind    uint8
	op      *template.Operand // keyValue only, read via ReadOperand
	hdr     pkt.HeaderID      // keyHdr only
	bitOff  int               // source bit offset (meta/header)
	width   int
	dstOff  int  // bit offset in the key
	aligned bool // src, dst and width all byte-aligned: plain copy
}

// keyPlan is a table's compiled key layout. For selector tables (sel
// true) the steps are instead the fields hashed for member choice —
// Keys[0], the group, keeps the generic byte path — and every hashed
// field fits a register (width <= 64).
type keyPlan struct {
	nBytes int
	steps  []keyStep
	sel    bool
}

// compileKeyPlan lowers a table's key description; nil when the declared
// KeyWidth can't hold the fields (the generic builder's error path
// handles that) or a selector hashes a field wider than a register.
func compileKeyPlan(t *template.Table) *keyPlan {
	if t.IsSelector {
		p := &keyPlan{sel: true}
		for i := 1; i < len(t.Keys); i++ {
			o := &t.Keys[i].Operand
			if o.Width <= 0 || o.Width > 64 || o.BitOff < 0 {
				return nil
			}
			s := keyStep{op: o, bitOff: o.BitOff, width: o.Width}
			switch o.Kind {
			case template.OpdMeta:
				s.kind = keyMeta
			case template.OpdHeader:
				s.kind = keyHdr
				s.hdr = o.Header
			default:
				s.kind = keyValue
			}
			p.steps = append(p.steps, s)
		}
		return p
	}
	p := &keyPlan{nBytes: (t.KeyWidth + 7) / 8}
	bit := 0
	for i := range t.Keys {
		o := &t.Keys[i].Operand
		if o.Width <= 0 || o.BitOff < 0 || bit+o.Width > p.nBytes*8 {
			return nil
		}
		s := keyStep{op: o, bitOff: o.BitOff, width: o.Width, dstOff: bit,
			aligned: o.BitOff%8 == 0 && o.Width%8 == 0 && bit%8 == 0}
		switch o.Kind {
		case template.OpdMeta:
			s.kind = keyMeta
		case template.OpdHeader:
			s.kind = keyHdr
			s.hdr = o.Header
		default:
			s.kind = keyValue
		}
		p.steps = append(p.steps, s)
		bit += o.Width
	}
	return p
}

// compileStage gathers a bound stage's table list, key plans and arm
// dispatch for the fused tier.
func compileStage(sr *StageRuntime) *stageProg {
	prog := &stageProg{tables: stageTables(sr), defaultArm: -1}
	prog.keyPlans = make([]*keyPlan, len(prog.tables))
	for i, t := range prog.tables {
		prog.keyPlans[i] = compileKeyPlan(t)
	}
	for i := range sr.tmpl.Arms {
		a := &sr.tmpl.Arms[i]
		if a.Default {
			prog.defaultArm = i
			continue
		}
		prog.armTags = append(prog.armTags, a.Tag)
		prog.armAt = append(prog.armAt, i)
	}
	return prog
}

// stageTables lists the tables the matcher applies, each once, in
// first-apply order of a depth-first walk (then before else). Names the
// stage does not own are skipped; their applies fault at runtime like the
// interpreter's.
func stageTables(sr *StageRuntime) []*template.Table {
	var tables []*template.Table
	seen := make(map[string]bool)
	var walk func([]template.MatchStmt)
	walk = func(stmts []template.MatchStmt) {
		for i := range stmts {
			st := &stmts[i]
			switch st.Kind {
			case template.MatchIf:
				walk(st.Then)
				walk(st.Else)
			case template.MatchApply:
				if t := sr.tables[st.Table]; t != nil && !seen[st.Table] {
					seen[st.Table] = true
					tables = append(tables, t)
				}
			}
		}
	}
	walk(sr.tmpl.Match)
	return tables
}
