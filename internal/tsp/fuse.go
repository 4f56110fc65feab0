package tsp

// fuse.go is the production executor: it lowers a stage template into
// fused native Go closures. Where the interpreter re-dispatches on every
// IR node per packet, the fused tier pays one indirect call per template
// *node*, built once at bind time: constant subtrees are folded, field
// offsets are burned into the closure, byte-aligned loads/stores skip the
// generic bit helpers, and table applies capture their slot in the
// stage's handle arrays (compile.go, filled by Bind) so per-packet
// applies are a direct call through the same applyTableWith funnel as the
// interpreter. Fault-counter side effects and evaluation order mirror
// interp.go exactly; the differential fuzz (internal/ipbm) guards drift
// between the two tiers.

import (
	"encoding/binary"

	"ipsa/internal/match"
	"ipsa/internal/pkt"
	"ipsa/internal/template"
)

// The closure kinds. A fusedVal returns the value the interpreter's
// EvalExpr would.
type (
	fusedVal   func(*Env) uint64
	fusedCond  func(*Env) bool
	fusedStmt  func(*Env)
	fusedMatch func(*Env, TableBackend, *matchOutcome)
)

// fusedProg is a stage lowered to closures. arms is parallel to
// template.Stage.Arms (sharing indices with stageProg's dispatch); nil
// entries are empty bodies. post is the INT epilogue, when built with it.
type fusedProg struct {
	match fusedMatch
	arms  []fusedStmt
	post  fusedStmt
}

type fuser struct {
	sr     *StageRuntime
	prog   *stageProg
	tblIdx map[string]int
}

// fuseStage lowers a bound stage to closures. It requires sr.prog: the
// closures index its table list, key plans and bind-time handle arrays
// (they capture the prog pointer, so handles resolved by Bind after
// fusing are visible without a rebuild).
func fuseStage(sr *StageRuntime) *fusedProg {
	f := &fuser{sr: sr, prog: sr.prog, tblIdx: make(map[string]int, len(sr.prog.tables))}
	for i, t := range sr.prog.tables {
		f.tblIdx[t.Name] = i
	}
	fp := &fusedProg{match: f.fuseMatchStmts(sr.tmpl.Match)}
	bodies := make(map[string]fusedStmt, len(sr.actions))
	done := make(map[string]bool, len(sr.actions))
	fp.arms = make([]fusedStmt, len(sr.tmpl.Arms))
	for i := range sr.tmpl.Arms {
		name := sr.tmpl.Arms[i].Action
		if !done[name] {
			if act := sr.actions[name]; act != nil {
				bodies[name] = f.fuseInstrs(act.Body)
			}
			done[name] = true
		}
		fp.arms[i] = bodies[name]
	}
	return fp
}

// faultZeroVal is the lowering of nil/unknown value nodes: fault, yield 0.
func faultZeroVal(e *Env) uint64 {
	e.Faults.BadTemplate.Add(1)
	return 0
}

// faultFalseCond is the lowering of nil/unknown boolean nodes.
func faultFalseCond(e *Env) bool {
	e.Faults.BadTemplate.Add(1)
	return false
}

// beLoadFn returns a big-endian loader for nb bytes (1..8); callers
// guarantee len(b) >= nb.
func beLoadFn(nb int) func(b []byte) uint64 {
	switch nb {
	case 1:
		return func(b []byte) uint64 { return uint64(b[0]) }
	case 2:
		return func(b []byte) uint64 { return uint64(binary.BigEndian.Uint16(b)) }
	case 3:
		return func(b []byte) uint64 {
			return uint64(binary.BigEndian.Uint16(b))<<8 | uint64(b[2])
		}
	case 4:
		return func(b []byte) uint64 { return uint64(binary.BigEndian.Uint32(b)) }
	case 5:
		return func(b []byte) uint64 {
			return uint64(binary.BigEndian.Uint32(b))<<8 | uint64(b[4])
		}
	case 6:
		return func(b []byte) uint64 {
			return uint64(binary.BigEndian.Uint32(b))<<16 | uint64(binary.BigEndian.Uint16(b[4:]))
		}
	case 7:
		return func(b []byte) uint64 {
			return uint64(binary.BigEndian.Uint32(b))<<24 |
				uint64(binary.BigEndian.Uint16(b[4:]))<<8 | uint64(b[6])
		}
	case 8:
		return binary.BigEndian.Uint64
	}
	return func(b []byte) uint64 {
		var v uint64
		for _, x := range b {
			v = v<<8 | uint64(x)
		}
		return v
	}
}

// beStoreFn returns a big-endian store of the low nb bytes of v. Storing
// only nb bytes is the same truncation SetBits applies for width nb*8.
func beStoreFn(nb int) func(b []byte, v uint64) {
	switch nb {
	case 1:
		return func(b []byte, v uint64) { b[0] = byte(v) }
	case 2:
		return func(b []byte, v uint64) { binary.BigEndian.PutUint16(b, uint16(v)) }
	case 3:
		return func(b []byte, v uint64) {
			binary.BigEndian.PutUint16(b, uint16(v>>8))
			b[2] = byte(v)
		}
	case 4:
		return func(b []byte, v uint64) { binary.BigEndian.PutUint32(b, uint32(v)) }
	case 5:
		return func(b []byte, v uint64) {
			binary.BigEndian.PutUint32(b, uint32(v>>8))
			b[4] = byte(v)
		}
	case 6:
		return func(b []byte, v uint64) {
			binary.BigEndian.PutUint32(b, uint32(v>>16))
			binary.BigEndian.PutUint16(b[4:], uint16(v))
		}
	case 7:
		return func(b []byte, v uint64) {
			binary.BigEndian.PutUint32(b, uint32(v>>24))
			binary.BigEndian.PutUint16(b[4:], uint16(v>>8))
			b[6] = byte(v)
		}
	case 8:
		return binary.BigEndian.PutUint64
	}
	return func(b []byte, v uint64) {
		for i := nb - 1; i >= 0; i-- {
			b[i] = byte(v)
			v >>= 8
		}
	}
}

// alignedByteSpan reports whether a clamped (off, w) read/write can use
// the direct byte path: in-range offsets on byte boundaries, whole-byte
// widths within a register.
func alignedByteSpan(off, w int) bool {
	return off >= 0 && w >= 1 && w <= 64 && off%8 == 0 && w%8 == 0
}

// bitSpan is the fuse-time decomposition of a constant (bitOff, width)
// field access into one byte-aligned load: which bytes the field spans,
// the right-shift that lands the field's LSB at bit 0, and the width
// mask. Any constant access of at most 64 bits whose span fits 8 bytes
// lowers this way — alignment no longer matters, which is what makes
// bit-packed metadata layouts cheap on the fused tier. Spans of 9 bytes
// (width > 56 straddling a byte boundary) keep the generic bit helpers.
type bitSpan struct {
	firstByte, nb int
	slack         uint
	mask          uint64
}

func bitSpanOf(off, w int) (bitSpan, bool) {
	if off < 0 || w < 1 || w > 64 {
		return bitSpan{}, false
	}
	first := off / 8
	nb := (off+w-1)/8 - first + 1
	if nb > 8 {
		return bitSpan{}, false
	}
	mask := ^uint64(0)
	if w < 64 {
		mask = 1<<uint(w) - 1
	}
	return bitSpan{firstByte: first, nb: nb, slack: uint(nb*8 - off%8 - w), mask: mask}, true
}

// clamp64 mirrors ReadOperand's wide-field truncation: reads wider than 64
// bits take the low 64 bits.
func clamp64(off, w int) (int, int) {
	if w > 64 {
		off += w - 64
		w = 64
	}
	return off, w
}

// fuseMetaLoad lowers a metadata read (offsets pre-clamped by clamp64).
func fuseMetaLoad(off, w int) fusedVal {
	if sp, ok := bitSpanOf(off, w); ok {
		byteOff, nb, slack, mask := sp.firstByte, sp.nb, sp.slack, sp.mask
		load := beLoadFn(nb)
		return func(e *Env) uint64 {
			m := e.Pkt.Meta
			if uint(byteOff)+uint(nb) > uint(len(m)) {
				e.Faults.BadTemplate.Add(1)
				return 0
			}
			return load(m[byteOff:]) >> slack & mask
		}
	}
	return func(e *Env) uint64 {
		v, err := e.Pkt.MetaBits(off, w)
		if err != nil {
			e.Faults.BadTemplate.Add(1)
			return 0
		}
		return v
	}
}

// fuseHdrLoad lowers a header-field read. The location lookup replaces
// the interpreter's Valid check + FieldBits re-lookup with one Loc call;
// the observable fault sequence is identical. The in-header bit offset is
// constant, so the sub-byte alignment (and hence the shift and mask) is
// known at fuse time even though the header's packet offset is not.
func fuseHdrLoad(id pkt.HeaderID, off, w int) fusedVal {
	if off >= 0 {
		if sp, ok := bitSpanOf(off%8, w); ok {
			relByte := off / 8
			nb, slack, mask := sp.nb, sp.slack, sp.mask
			load := beLoadFn(nb)
			return func(e *Env) uint64 {
				loc, hok := e.Pkt.HV.Loc(id)
				if !hok {
					e.Faults.InvalidHeaderAccess.Add(1)
					return 0
				}
				d := e.Pkt.Data
				o := loc.Off + relByte
				if uint(o)+uint(nb) > uint(len(d)) {
					e.Faults.BadTemplate.Add(1)
					return 0
				}
				return load(d[o:]) >> slack & mask
			}
		}
	}
	return func(e *Env) uint64 {
		if !e.Pkt.HV.Valid(id) {
			e.Faults.InvalidHeaderAccess.Add(1)
			return 0
		}
		v, err := e.Pkt.FieldBits(id, off, w)
		if err != nil {
			e.Faults.BadTemplate.Add(1)
			return 0
		}
		return v
	}
}

// fuseOperand lowers one operand read. konst marks a side-effect-free
// compile-time constant the caller may fold.
func (f *fuser) fuseOperand(o *template.Operand) (fn fusedVal, konst bool, kv uint64) {
	if o == nil {
		return faultZeroVal, false, 0
	}
	switch o.Kind {
	case template.OpdConst:
		v := o.Const
		return func(*Env) uint64 { return v }, true, v
	case template.OpdParam:
		idx := o.ParamIdx
		return func(e *Env) uint64 {
			if idx >= 0 && idx < len(e.Params) {
				return e.Params[idx]
			}
			e.Faults.BadTemplate.Add(1)
			return 0
		}, false, 0
	case template.OpdMeta:
		off, w := clamp64(o.BitOff, o.Width)
		return fuseMetaLoad(off, w), false, 0
	case template.OpdHeader:
		off, w := clamp64(o.BitOff, o.Width)
		return fuseHdrLoad(o.Header, off, w), false, 0
	}
	return faultZeroVal, false, 0
}

// fuseBin lowers one arithmetic node over already-fused children; known
// reports whether the operator exists (unknown operators keep the
// children's side effects and fault, like the interpreter). Division,
// modulo and shift semantics match interp.go: x/0 == x%0 == 0, shifts of
// 64 or more yield 0.
func fuseBin(op template.ArithOp, a, b fusedVal) (fusedVal, bool) {
	switch op {
	case template.OpAdd:
		return func(e *Env) uint64 { x := a(e); return x + b(e) }, true
	case template.OpSub:
		return func(e *Env) uint64 { x := a(e); return x - b(e) }, true
	case template.OpMul:
		return func(e *Env) uint64 { x := a(e); return x * b(e) }, true
	case template.OpDiv:
		return func(e *Env) uint64 {
			x, y := a(e), b(e)
			if y == 0 {
				return 0
			}
			return x / y
		}, true
	case template.OpMod:
		return func(e *Env) uint64 {
			x, y := a(e), b(e)
			if y == 0 {
				return 0
			}
			return x % y
		}, true
	case template.OpAnd:
		return func(e *Env) uint64 { x := a(e); return x & b(e) }, true
	case template.OpOr:
		return func(e *Env) uint64 { x := a(e); return x | b(e) }, true
	case template.OpXor:
		return func(e *Env) uint64 { x := a(e); return x ^ b(e) }, true
	case template.OpShl:
		return func(e *Env) uint64 {
			x, y := a(e), b(e)
			if y >= 64 {
				return 0
			}
			return x << y
		}, true
	case template.OpShr:
		return func(e *Env) uint64 {
			x, y := a(e), b(e)
			if y >= 64 {
				return 0
			}
			return x >> y
		}, true
	}
	return nil, false
}

func fuseCmp(op template.CmpOp, a, b fusedVal) (fusedCond, bool) {
	switch op {
	case template.CmpEq:
		return func(e *Env) bool { x := a(e); return x == b(e) }, true
	case template.CmpNe:
		return func(e *Env) bool { x := a(e); return x != b(e) }, true
	case template.CmpLt:
		return func(e *Env) bool { x := a(e); return x < b(e) }, true
	case template.CmpGt:
		return func(e *Env) bool { x := a(e); return x > b(e) }, true
	case template.CmpLe:
		return func(e *Env) bool { x := a(e); return x <= b(e) }, true
	case template.CmpGe:
		return func(e *Env) bool { x := a(e); return x >= b(e) }, true
	}
	return nil, false
}

// fuseExpr lowers a value expression. Constant subtrees (which by
// construction carry no fault side effects) are folded by evaluating the
// fused closure with a nil Env — constant closures never touch it.
func (f *fuser) fuseExpr(x *template.Expr) (fusedVal, bool, uint64) {
	if x == nil {
		return faultZeroVal, false, 0
	}
	switch x.Kind {
	case template.ExprOperand:
		return f.fuseOperand(x.Operand)
	case template.ExprBin:
		a, ak, _ := f.fuseExpr(x.A)
		b, bk, _ := f.fuseExpr(x.B)
		fn, known := fuseBin(x.Op, a, b)
		if !known {
			return func(e *Env) uint64 {
				a(e)
				b(e)
				e.Faults.BadTemplate.Add(1)
				return 0
			}, false, 0
		}
		if ak && bk {
			v := fn(nil)
			return func(*Env) uint64 { return v }, true, v
		}
		return fn, false, 0
	case template.ExprHash:
		args := make([]fusedVal, len(x.Args))
		allConst := true
		for i, ax := range x.Args {
			var k bool
			args[i], k, _ = f.fuseExpr(ax)
			allConst = allConst && k
		}
		fn := func(e *Env) uint64 {
			h := uint64(fnvOffset64)
			for _, a := range args {
				h = fnvMix(h, a(e))
			}
			return finalizeHash(h)
		}
		if allConst {
			v := fn(nil)
			return func(*Env) uint64 { return v }, true, v
		}
		return fn, false, 0
	case template.ExprRegRead:
		idx, _, _ := f.fuseExpr(x.Index)
		reg := x.Reg
		return func(e *Env) uint64 {
			i := idx(e)
			v, ok := e.Regs.Read(reg, i)
			if !ok {
				e.Faults.RegisterFault.Add(1)
			}
			return v
		}, false, 0
	}
	return faultZeroVal, false, 0
}

// fuseCond lowers a boolean. And/Or compile to Go's own && and ||, which
// is exactly the interpreter's short-circuit order; constant left sides
// fold the whole node (skipping the right side's effects is then correct
// by the same short-circuit rule).
func (f *fuser) fuseCond(c *template.Cond) (fusedCond, bool, bool) {
	if c == nil {
		return faultFalseCond, false, false
	}
	switch c.Kind {
	case template.CondBool:
		v := c.Val
		return func(*Env) bool { return v }, true, v
	case template.CondValid:
		id := c.Header
		return func(e *Env) bool { return e.Pkt.HV.Valid(id) }, false, false
	case template.CondNot:
		x, k, kv := f.fuseCond(c.X)
		if k {
			v := !kv
			return func(*Env) bool { return v }, true, v
		}
		return func(e *Env) bool { return !x(e) }, false, false
	case template.CondAnd:
		x, xk, xv := f.fuseCond(c.X)
		y, yk, yv := f.fuseCond(c.Y)
		if xk {
			if !xv {
				return func(*Env) bool { return false }, true, false
			}
			return y, yk, yv
		}
		return func(e *Env) bool { return x(e) && y(e) }, false, false
	case template.CondOr:
		x, xk, xv := f.fuseCond(c.X)
		y, yk, yv := f.fuseCond(c.Y)
		if xk {
			if xv {
				return func(*Env) bool { return true }, true, true
			}
			return y, yk, yv
		}
		return func(e *Env) bool { return x(e) || y(e) }, false, false
	case template.CondCmp:
		a, ak, _ := f.fuseExpr(c.A)
		b, bk, _ := f.fuseExpr(c.B)
		fn, known := fuseCmp(c.Cmp, a, b)
		if !known {
			return func(e *Env) bool {
				a(e)
				b(e)
				e.Faults.BadTemplate.Add(1)
				return false
			}, false, false
		}
		if ak && bk {
			v := fn(nil)
			return func(*Env) bool { return v }, true, v
		}
		return fn, false, false
	}
	return faultFalseCond, false, false
}

// fuseMetaStore lowers a narrow (<=64-bit) metadata store. The source is
// evaluated before the bounds check, matching the interpreter's
// evaluate-then-store order. Aligned whole-byte stores write directly;
// any other constant span of at most 8 bytes becomes a read-modify-write
// splice with fuse-time masks — the same bytes SetBits produces.
func fuseMetaStore(off, w int, src fusedVal) fusedStmt {
	if alignedByteSpan(off, w) {
		byteOff, nb := off/8, w/8
		store := beStoreFn(nb)
		return func(e *Env) {
			v := src(e)
			m := e.Pkt.Meta
			if uint(byteOff)+uint(nb) > uint(len(m)) {
				e.Faults.BadTemplate.Add(1)
				return
			}
			store(m[byteOff:byteOff+nb], v)
		}
	}
	if sp, ok := bitSpanOf(off, w); ok {
		byteOff, nb, slack, mask := sp.firstByte, sp.nb, sp.slack, sp.mask
		load, store := beLoadFn(nb), beStoreFn(nb)
		clr := ^(mask << slack)
		return func(e *Env) {
			v := src(e)
			m := e.Pkt.Meta
			if uint(byteOff)+uint(nb) > uint(len(m)) {
				e.Faults.BadTemplate.Add(1)
				return
			}
			b := m[byteOff : byteOff+nb]
			store(b, load(b)&clr|(v&mask)<<slack)
		}
	}
	return func(e *Env) {
		if err := e.Pkt.SetMetaBits(off, w, src(e)); err != nil {
			e.Faults.BadTemplate.Add(1)
		}
	}
}

func fuseHdrStore(id pkt.HeaderID, off, w int, src fusedVal) fusedStmt {
	if alignedByteSpan(off, w) {
		byteOff, nb := off/8, w/8
		store := beStoreFn(nb)
		return func(e *Env) {
			v := src(e)
			loc, ok := e.Pkt.HV.Loc(id)
			if !ok {
				e.Faults.InvalidHeaderAccess.Add(1)
				return
			}
			d := e.Pkt.Data
			o := loc.Off + byteOff
			if uint(o)+uint(nb) > uint(len(d)) {
				e.Faults.BadTemplate.Add(1)
				return
			}
			store(d[o:o+nb], v)
		}
	}
	if off >= 0 {
		if sp, ok := bitSpanOf(off%8, w); ok {
			relByte := off / 8
			nb, slack, mask := sp.nb, sp.slack, sp.mask
			load, store := beLoadFn(nb), beStoreFn(nb)
			clr := ^(mask << slack)
			return func(e *Env) {
				v := src(e)
				loc, hok := e.Pkt.HV.Loc(id)
				if !hok {
					e.Faults.InvalidHeaderAccess.Add(1)
					return
				}
				d := e.Pkt.Data
				o := loc.Off + relByte
				if uint(o)+uint(nb) > uint(len(d)) {
					e.Faults.BadTemplate.Add(1)
					return
				}
				b := d[o : o+nb]
				store(b, load(b)&clr|(v&mask)<<slack)
			}
		}
	}
	return func(e *Env) {
		v := src(e)
		if !e.Pkt.HV.Valid(id) {
			e.Faults.InvalidHeaderAccess.Add(1)
			return
		}
		if err := e.Pkt.SetFieldBits(id, off, w, v); err != nil {
			e.Faults.BadTemplate.Add(1)
		}
	}
}

// fuseAssign lowers one assignment: wide field-to-field copies escape to
// the interpreter's byte-granular execAssign, wide numeric stores to the
// storeMetaWide/storeHdrWide helpers, everything else to a direct store
// closure.
func (f *fuser) fuseAssign(in *template.Instr) fusedStmt {
	if in.Dst.Width > 64 && in.Src != nil && in.Src.Kind == template.ExprOperand &&
		in.Src.Operand != nil && in.Src.Operand.Width == in.Dst.Width {
		tree := in
		return func(e *Env) { e.execAssign(tree) }
	}
	src, _, _ := f.fuseExpr(in.Src)
	switch in.Dst.Kind {
	case template.OpdMeta:
		if in.Dst.Width > 64 {
			off, w := in.Dst.BitOff, in.Dst.Width
			return func(e *Env) { e.storeMetaWide(off, w, src(e)) }
		}
		return fuseMetaStore(in.Dst.BitOff, in.Dst.Width, src)
	case template.OpdHeader:
		if in.Dst.Width > 64 {
			id, off, w := in.Dst.Header, in.Dst.BitOff, in.Dst.Width
			return func(e *Env) { e.storeHdrWide(id, off, w, src(e)) }
		}
		return fuseHdrStore(in.Dst.Header, in.Dst.BitOff, in.Dst.Width, src)
	}
	// Unknown destination kind: evaluate the source (for its side
	// effects), then fault, like the interpreter.
	return func(e *Env) {
		src(e)
		e.Faults.BadTemplate.Add(1)
	}
}

// fuseInstrs lowers an action body; nil means empty (the caller skips the
// call entirely).
func (f *fuser) fuseInstrs(body []template.Instr) fusedStmt {
	if len(body) == 0 {
		return nil
	}
	parts := make([]fusedStmt, len(body))
	for i := range body {
		parts[i] = f.fuseInstr(&body[i])
	}
	if len(parts) == 1 {
		return parts[0]
	}
	return func(e *Env) {
		for _, p := range parts {
			p(e)
		}
	}
}

func (f *fuser) fuseInstr(in *template.Instr) fusedStmt {
	switch in.Op {
	case template.IAssign:
		return f.fuseAssign(in)
	case template.IRegWrite:
		idx, _, _ := f.fuseExpr(in.Index)
		val, _, _ := f.fuseExpr(in.Value)
		reg := in.Reg
		return func(e *Env) {
			i := idx(e)
			v := val(e)
			if !e.Regs.Write(reg, i, v) {
				e.Faults.RegisterFault.Add(1)
			}
		}
	case template.IDrop:
		return func(e *Env) { e.markDrop() }
	case template.IToCPU:
		return func(e *Env) {
			e.Pkt.ToCPU = true
			_ = e.Pkt.SetMetaBits(template.IstdToCPUOff, 1, 1)
		}
	case template.ISRHAdvance:
		return func(e *Env) { e.srhAdvance() }
	case template.ISRHPop:
		return func(e *Env) { e.srhPop() }
	case template.IIf:
		c, k, kv := f.fuseCond(in.Cond)
		thenS := f.fuseInstrs(in.Then)
		elseS := f.fuseInstrs(in.Else)
		if k {
			// Constant condition (CondBool has no side effects): the dead
			// branch folds away entirely.
			br := elseS
			if kv {
				br = thenS
			}
			if br == nil {
				return func(*Env) {}
			}
			return br
		}
		return func(e *Env) {
			if c(e) {
				if thenS != nil {
					thenS(e)
				}
			} else if elseS != nil {
				elseS(e)
			}
		}
	}
	return func(e *Env) { e.Faults.BadTemplate.Add(1) }
}

// fusedKey builds a plain table's lookup key into the Env's key buffer.
// The returned slice aliases the buffer, like buildKeyPlanned; false
// means a source field was unreadable and the apply records a no-lookup
// outcome (applied, no hit) — the same abort the generic builder takes.
type fusedKey func(*Env) ([]byte, bool)

// keyStepFn is one fused key field: read the source, splice into key.
type keyStepFn func(e *Env, key []byte) bool

// fuseKeySplice lowers the destination half of a key step: a constant
// (dstOff, width) splice into the zeroed key buffer. The plan guarantees
// the destination range fits the key, so no bounds check is needed; the
// rare 9-byte span stages through SetBits (which cannot fail for the
// same reason). exclusive marks a field whose bytes no other step of the
// plan touches: since the key buffer starts zeroed, such a field can
// store its bytes outright instead of read-modify-writing them — and a
// whole-byte exclusive field is a bare store. Single-field keys (the
// common table shape) always qualify.
func fuseKeySplice(off, w int, exclusive bool) func(key []byte, v uint64) {
	sp, ok := bitSpanOf(off, w)
	if !ok {
		return func(key []byte, v uint64) { _ = pkt.SetBits(key, off, w, v) }
	}
	byteOff, nb, slack, mask := sp.firstByte, sp.nb, sp.slack, sp.mask
	store := beStoreFn(nb)
	if exclusive {
		if slack == 0 && w == nb*8 {
			return func(key []byte, v uint64) {
				store(key[byteOff:byteOff+nb], v)
			}
		}
		return func(key []byte, v uint64) {
			store(key[byteOff:byteOff+nb], (v&mask)<<slack)
		}
	}
	load := beLoadFn(nb)
	clr := ^(mask << slack)
	return func(key []byte, v uint64) {
		b := key[byteOff : byteOff+nb]
		store(b, load(b)&clr|(v&mask)<<slack)
	}
}

// keyStepExclusive reports whether step i's destination bytes are
// untouched by every other step of the plan.
func keyStepExclusive(kp *keyPlan, i int) bool {
	lo, hi := kp.steps[i].dstOff/8, (kp.steps[i].dstOff+kp.steps[i].width-1)/8
	for j := range kp.steps {
		if j == i {
			continue
		}
		jlo, jhi := kp.steps[j].dstOff/8, (kp.steps[j].dstOff+kp.steps[j].width-1)/8
		if lo <= jhi && jlo <= hi {
			return false
		}
	}
	return true
}

// fuseKeyPlan lowers a compiled plain-table key plan to a closure chain:
// per-field source offsets, spans and key positions are burned in, so the
// per-packet build is constant loads and splices. Key bytes and the
// fault/abort sequence mirror buildKeyPlanned exactly (the differential
// fuzz holds them together). Selector plans keep the generic hash path.
func fuseKeyPlan(kp *keyPlan) fusedKey {
	if kp == nil || kp.sel {
		return nil
	}
	steps := make([]keyStepFn, len(kp.steps))
	for i := range kp.steps {
		steps[i] = fuseKeyStep(&kp.steps[i], keyStepExclusive(kp, i))
	}
	nBytes := kp.nBytes
	if len(steps) == 1 {
		st := steps[0]
		return func(e *Env) ([]byte, bool) {
			key := e.keySlot(nBytes)
			if !st(e, key) {
				return nil, false
			}
			return key, true
		}
	}
	return func(e *Env) ([]byte, bool) {
		key := e.keySlot(nBytes)
		for _, st := range steps {
			if !st(e, key) {
				return nil, false
			}
		}
		return key, true
	}
}

func fuseKeyStep(s *keyStep, exclusive bool) keyStepFn {
	switch s.kind {
	case keyMeta:
		return fuseKeyMeta(s, exclusive)
	case keyHdr:
		return fuseKeyHdr(s, exclusive)
	}
	return fuseKeyValue(s, exclusive)
}

func fuseKeyMeta(s *keyStep, exclusive bool) keyStepFn {
	if s.width > 64 {
		if s.aligned {
			so, nb, dst := s.bitOff/8, s.width/8, s.dstOff/8
			return func(e *Env, key []byte) bool {
				m := e.Pkt.Meta
				if so+nb > len(m) {
					e.Faults.BadTemplate.Add(1)
					return false
				}
				copy(key[dst:], m[so:so+nb])
				return true
			}
		}
		sref := s
		return func(e *Env, key []byte) bool {
			return e.keyCopyBits(key, sref, e.Pkt.Meta, sref.bitOff)
		}
	}
	sp, ok := bitSpanOf(s.bitOff, s.width)
	if !ok {
		sref := s
		return func(e *Env, key []byte) bool {
			return e.keyCopyBits(key, sref, e.Pkt.Meta, sref.bitOff)
		}
	}
	byteOff, nb, slack, mask := sp.firstByte, sp.nb, sp.slack, sp.mask
	load := beLoadFn(nb)
	splice := fuseKeySplice(s.dstOff, s.width, exclusive)
	return func(e *Env, key []byte) bool {
		m := e.Pkt.Meta
		if uint(byteOff)+uint(nb) > uint(len(m)) {
			e.Faults.BadTemplate.Add(1)
			return false
		}
		splice(key, load(m[byteOff:])>>slack&mask)
		return true
	}
}

func fuseKeyHdr(s *keyStep, exclusive bool) keyStepFn {
	id := s.hdr
	if s.width <= 64 && s.bitOff >= 0 {
		if sp, ok := bitSpanOf(s.bitOff%8, s.width); ok {
			relByte := s.bitOff / 8
			nb, slack, mask := sp.nb, sp.slack, sp.mask
			load := beLoadFn(nb)
			splice := fuseKeySplice(s.dstOff, s.width, exclusive)
			return func(e *Env, key []byte) bool {
				loc, hok := e.Pkt.HV.Loc(id)
				if !hok {
					e.Faults.InvalidHeaderAccess.Add(1)
					return false
				}
				d := e.Pkt.Data
				o := loc.Off + relByte
				if uint(o)+uint(nb) > uint(len(d)) {
					e.Faults.BadTemplate.Add(1)
					return false
				}
				splice(key, load(d[o:])>>slack&mask)
				return true
			}
		}
	}
	sref := s
	return func(e *Env, key []byte) bool {
		loc, hok := e.Pkt.HV.Loc(id)
		if !hok {
			e.Faults.InvalidHeaderAccess.Add(1)
			return false
		}
		src := loc.Off*8 + sref.bitOff
		if sref.aligned {
			so, nb := src/8, sref.width/8
			if so+nb > len(e.Pkt.Data) {
				e.Faults.BadTemplate.Add(1)
				return false
			}
			copy(key[sref.dstOff/8:], e.Pkt.Data[so:so+nb])
			return true
		}
		return e.keyCopyBits(key, sref, e.Pkt.Data, src)
	}
}

func fuseKeyValue(s *keyStep, exclusive bool) keyStepFn {
	op := s.op
	off, w := s.dstOff, s.width
	if w > 64 {
		// Value kinds carry at most 64 significant bits; the high bits of
		// the field stay zero (the key is zeroed) — buildKeyPlanned's clamp.
		off += w - 64
		w = 64
	}
	splice := fuseKeySplice(off, w, exclusive)
	return func(e *Env, key []byte) bool {
		splice(key, e.ReadOperand(op))
		return true
	}
}

// fusedGroup builds a selector's group-id bytes into the Env's group
// buffer. It mirrors operandBytes on Keys[0]: same byte layout (the
// field's value big-endian in (width+7)/8 bytes), same fault kinds, same
// abort-the-apply on an unreadable source.
type fusedGroup func(*Env) ([]byte, bool)

// groupSlot returns the Env's n-byte group scratch slice, managed the way
// operandBytes manages it (handed out full, retained empty). Not zeroed:
// callers overwrite every byte.
func (e *Env) groupSlot(n int) []byte {
	if cap(e.groupBuf) < n {
		e.groupBuf = make([]byte, n)
	}
	g := e.groupBuf[:n]
	e.groupBuf = g[:0]
	return g
}

// fuseGroupOperand lowers the group-id operand of a selector apply. nil
// means the operand is not fusible (wide or irregular) and the apply keeps
// the generic funnel.
func (f *fuser) fuseGroupOperand(o *template.Operand) fusedGroup {
	if o == nil || o.Width < 1 || o.Width > 64 {
		return nil
	}
	n := (o.Width + 7) / 8
	store := beStoreFn(n)
	switch o.Kind {
	case template.OpdMeta:
		sp, ok := bitSpanOf(o.BitOff, o.Width)
		if !ok {
			return nil
		}
		byteOff, nb, slack, mask := sp.firstByte, sp.nb, sp.slack, sp.mask
		load := beLoadFn(nb)
		return func(e *Env) ([]byte, bool) {
			m := e.Pkt.Meta
			if uint(byteOff)+uint(nb) > uint(len(m)) {
				e.Faults.BadTemplate.Add(1)
				return nil, false
			}
			g := e.groupSlot(n)
			store(g, load(m[byteOff:])>>slack&mask)
			return g, true
		}
	case template.OpdHeader:
		if o.BitOff < 0 {
			return nil
		}
		sp, ok := bitSpanOf(o.BitOff%8, o.Width)
		if !ok {
			return nil
		}
		id, relByte := o.Header, o.BitOff/8
		nb, slack, mask := sp.nb, sp.slack, sp.mask
		load := beLoadFn(nb)
		return func(e *Env) ([]byte, bool) {
			loc, hok := e.Pkt.HV.Loc(id)
			if !hok {
				e.Faults.InvalidHeaderAccess.Add(1)
				return nil, false
			}
			d := e.Pkt.Data
			o := loc.Off + relByte
			if uint(o)+uint(nb) > uint(len(d)) {
				e.Faults.BadTemplate.Add(1)
				return nil, false
			}
			g := e.groupSlot(n)
			store(g, load(d[o:])>>slack&mask)
			return g, true
		}
	default:
		// Constants and params: operandBytes stores the low n bytes of
		// ReadOperand's value, unmasked — beStoreFn truncates identically.
		op := o
		return func(e *Env) ([]byte, bool) {
			g := e.groupSlot(n)
			store(g, e.ReadOperand(op))
			return g, true
		}
	}
}

// fusedHashStep reads one selector hash field. ok == false stops the hash
// fold but not the lookup — hashPlanned's stop-hashing-keep-looking-up
// rule. bits is the mix span, ((width+7)/8)*8, burned in at fuse time.
type fusedHashStep struct {
	bits int
	read func(*Env) (uint64, bool)
}

// fuseHashSteps lowers a selector key plan's hashed fields (Keys[1:]) to
// constant-offset readers. Fault kinds per step mirror hashPlanned.
func fuseHashSteps(kp *keyPlan) []fusedHashStep {
	steps := make([]fusedHashStep, len(kp.steps))
	for i := range kp.steps {
		s := &kp.steps[i]
		hs := fusedHashStep{bits: ((s.width + 7) / 8) * 8}
		switch s.kind {
		case keyMeta:
			off, w := s.bitOff, s.width
			if sp, ok := bitSpanOf(off, w); ok {
				byteOff, nb, slack, mask := sp.firstByte, sp.nb, sp.slack, sp.mask
				load := beLoadFn(nb)
				hs.read = func(e *Env) (uint64, bool) {
					m := e.Pkt.Meta
					if uint(byteOff)+uint(nb) > uint(len(m)) {
						e.Faults.BadTemplate.Add(1)
						return 0, false
					}
					return load(m[byteOff:]) >> slack & mask, true
				}
			} else {
				hs.read = func(e *Env) (uint64, bool) {
					v, err := pkt.GetBits(e.Pkt.Meta, off, w)
					if err != nil {
						e.Faults.BadTemplate.Add(1)
						return 0, false
					}
					return v, true
				}
			}
		case keyHdr:
			id, off, w := s.hdr, s.bitOff, s.width
			if off >= 0 {
				if sp, ok := bitSpanOf(off%8, w); ok {
					relByte := off / 8
					nb, slack, mask := sp.nb, sp.slack, sp.mask
					load := beLoadFn(nb)
					hs.read = func(e *Env) (uint64, bool) {
						loc, hok := e.Pkt.HV.Loc(id)
						if !hok {
							e.Faults.InvalidHeaderAccess.Add(1)
							return 0, false
						}
						d := e.Pkt.Data
						o := loc.Off + relByte
						if uint(o)+uint(nb) > uint(len(d)) {
							e.Faults.BadTemplate.Add(1)
							return 0, false
						}
						return load(d[o:]) >> slack & mask, true
					}
				}
			}
			if hs.read == nil {
				hs.read = func(e *Env) (uint64, bool) {
					loc, hok := e.Pkt.HV.Loc(id)
					if !hok {
						e.Faults.InvalidHeaderAccess.Add(1)
						return 0, false
					}
					v, err := pkt.GetBits(e.Pkt.Data, loc.Off*8+off, w)
					if err != nil {
						e.Faults.BadTemplate.Add(1)
						return 0, false
					}
					return v, true
				}
			}
		default: // keyValue — ReadOperand faults inside, never aborts.
			op := s.op
			hs.read = func(e *Env) (uint64, bool) { return e.ReadOperand(op), true }
		}
		steps[i] = hs
	}
	return steps
}

// fuseMatchStmts lowers the matcher. Applies funnel through the same
// applyTableWith as the interpreter, reading the handle slots of the
// captured stageProg — Bind fills those after fusing, so
// closures see bind-time handles with no rebuild.
func (f *fuser) fuseMatchStmts(stmts []template.MatchStmt) fusedMatch {
	if len(stmts) == 0 {
		return nil
	}
	parts := make([]fusedMatch, 0, len(stmts))
	for i := range stmts {
		st := &stmts[i]
		switch st.Kind {
		case template.MatchIf:
			c, k, kv := f.fuseCond(st.Cond)
			thenM := f.fuseMatchStmts(st.Then)
			elseM := f.fuseMatchStmts(st.Else)
			if k {
				br := elseM
				if kv {
					br = thenM
				}
				if br != nil {
					parts = append(parts, br)
				}
				continue
			}
			cc, tm, em := c, thenM, elseM
			parts = append(parts, func(e *Env, b TableBackend, out *matchOutcome) {
				if cc(e) {
					if tm != nil {
						tm(e, b, out)
					}
				} else if em != nil {
					em(e, b, out)
				}
			})
		case template.MatchApply:
			idx := -1
			if t := f.sr.tables[st.Table]; t != nil {
				idx = f.tblIdx[st.Table]
			}
			if idx < 0 {
				// Unknown table: one BadTemplate per attempt, whether or
				// not a table already applied — the interpreter's double
				// check collapses to a single fault either way.
				parts = append(parts, func(e *Env, _ TableBackend, _ *matchOutcome) {
					e.Faults.BadTemplate.Add(1)
				})
				continue
			}
			prog, ti := f.prog, idx
			t := prog.tables[ti]
			if kp := prog.keyPlans[ti]; t.IsSelector && kp != nil && kp.sel && len(t.Keys) > 0 {
				if fg := f.fuseGroupOperand(&t.Keys[0].Operand); fg != nil {
					// Selector with a fusible group operand: group build and
					// hash fold run over fuse-time constant offsets; the member
					// lookup goes through the bind-time selector handle exactly
					// as the generic funnel would. Group bytes, hash sequence,
					// fault ordering and outcome recording are byte-identical
					// to applyTableWith's selector arm.
					hsteps := fuseHashSteps(kp)
					tname := t.Name
					parts = append(parts, func(e *Env, backend TableBackend, out *matchOutcome) {
						if out.applied {
							e.Faults.BadTemplate.Add(1)
							return
						}
						out.applied = true
						out.table = tname
						group, gok := fg(e)
						if !gok {
							return
						}
						h := uint64(fnvOffset64)
						for i := range hsteps {
							v, vok := hsteps[i].read(e)
							if !vok {
								break
							}
							for sh := hsteps[i].bits; sh > 0; sh -= 8 {
								h ^= uint64(byte(v >> uint(sh-8)))
								h *= fnvPrime64
							}
						}
						var res match.Result
						var ok bool
						var rs ResolvedSelector
						if prog.resolvedSels != nil {
							rs = prog.resolvedSels[ti]
						}
						if rs != nil {
							res, ok = rs.LookupMember(group, finalizeHash(h))
						} else {
							res, ok = backend.LookupSelector(tname, group, finalizeHash(h))
						}
						if ok {
							out.hit = true
							out.tag = uint64(res.ActionID)
							out.params = res.Params
						}
					})
					continue
				}
			}
			if fk := fuseKeyPlan(prog.keyPlans[ti]); fk != nil && !t.IsSelector {
				// Plain table with a fused key builder: when Bind resolved a
				// direct handle that splits lookup from accounting, run the
				// engine probe inline — fused key splices, no name funnel, and
				// hit/miss counts batched on the Env instead of two shared
				// atomics per packet. Outcome recording is byte-identical to
				// applyTableWith; anything less than a full direct handle
				// falls through to the generic funnel.
				tname, kp := t.Name, prog.keyPlans[ti]
				parts = append(parts, func(e *Env, backend TableBackend, out *matchOutcome) {
					if out.applied {
						// One table application per stage per packet; extra
						// applies are template bugs.
						e.Faults.BadTemplate.Add(1)
						return
					}
					var dt DirectTable
					if prog.direct != nil {
						dt = prog.direct[ti]
					}
					if dt == nil {
						var rt ResolvedTable
						if prog.resolved != nil {
							rt = prog.resolved[ti]
						}
						e.applyTableWith(t, rt, nil, kp, backend, out)
						return
					}
					out.applied = true
					out.table = tname
					key, kok := fk(e)
					if !kok {
						return
					}
					if e.statTbl != dt {
						e.flushTableStats()
						e.statTbl = dt
					}
					if res, ok := dt.LookupNoCount(key); ok {
						e.statHits++
						out.hit = true
						out.tag = uint64(res.ActionID)
						out.params = res.Params
					} else {
						e.statMisses++
					}
				})
				continue
			}
			parts = append(parts, func(e *Env, backend TableBackend, out *matchOutcome) {
				if out.applied {
					// One table application per stage per packet; extra
					// applies are template bugs.
					e.Faults.BadTemplate.Add(1)
					return
				}
				var rt ResolvedTable
				if prog.resolved != nil {
					rt = prog.resolved[ti]
				}
				var rs ResolvedSelector
				if prog.resolvedSels != nil {
					rs = prog.resolvedSels[ti]
				}
				e.applyTableWith(prog.tables[ti], rt, rs, prog.keyPlans[ti], backend, out)
			})
		}
	}
	switch len(parts) {
	case 0:
		return nil
	case 1:
		return parts[0]
	}
	return func(e *Env, b TableBackend, out *matchOutcome) {
		for _, p := range parts {
			p(e, b, out)
		}
	}
}

// storeMetaWide mirrors WriteOperand's >64-bit metadata path: zero the
// high part, store the low 64 bits.
func (e *Env) storeMetaWide(off, w int, v uint64) {
	for rem, ro := w-64, off; rem > 0; {
		chunk := rem
		if chunk > 64 {
			chunk = 64
		}
		_ = e.Pkt.SetMetaBits(ro, chunk, 0)
		ro += chunk
		rem -= chunk
	}
	off += w - 64
	if err := e.Pkt.SetMetaBits(off, 64, v); err != nil {
		e.Faults.BadTemplate.Add(1)
	}
}

// storeHdrWide mirrors WriteOperand's >64-bit header path.
func (e *Env) storeHdrWide(hdr pkt.HeaderID, off, w int, v uint64) {
	if !e.Pkt.HV.Valid(hdr) {
		e.Faults.InvalidHeaderAccess.Add(1)
		return
	}
	for rem, ro := w-64, off; rem > 0; {
		chunk := rem
		if chunk > 64 {
			chunk = 64
		}
		_ = e.Pkt.SetFieldBits(hdr, ro, chunk, 0)
		ro += chunk
		rem -= chunk
	}
	off += w - 64
	if err := e.Pkt.SetFieldBits(hdr, off, 64, v); err != nil {
		e.Faults.BadTemplate.Add(1)
	}
}
