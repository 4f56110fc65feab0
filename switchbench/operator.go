package main

import (
	"fmt"
	"runtime"
	"time"

	"ipsa/internal/compiler/backend"
	"ipsa/internal/ctrlplane"
	"ipsa/internal/ipbm"
	"ipsa/internal/template"
)

// fillerPerCycle is how many filler entries one operator cycle inserts
// (and deletes again) in the table the traffic reads.
const fillerPerCycle = 4

// opSamples are the operator's measurements taken under one load.
type opSamples struct {
	compile   []int64 // t_C, ns
	apply     []int64 // CCM apply round trip, ns
	loadNanos []int64 // switch-side LoadNanos of each apply
	write     []int64 // one filler insert round trip, ns
	rtt       []int64 // CCM ping round trip, ns
	backendSR []float64
	switchSR  []float64
}

// Loads the operator's samples are split by.
const (
	quiet = iota // on the idle switch, in the operator's own slot
	busy         // beside the forwarding phases (c2 only)
)

// operator is the in-situ update workflow of the paper, run as a closed
// loop with a fixed think time over one loopback TCP connection to the
// switch's CCM. Each cycle compiles acl.script incrementally onto a fresh
// copy of the use case's workspace (t_C), applies that config and then
// the use case's config back (t_L, twice), and writes filler entries.
type operator struct {
	b    *bench
	acl  string
	sw   *ipbm.Switch
	cli  *ctrlplane.Client
	next *backend.Workspace // the workspace the next cycle compiles onto

	// load is where the operator runs (quiet or busy), and so which
	// samples its steps land in; it changes only while no cycle runs.
	load    int
	samples [2]opSamples

	reclaimed0 uint64
	cycles     int
	failed     int
	err        error

	spans *spanLog // operator spans when tracing (own log: own goroutine)
}

func newOperator(b *bench) (*operator, error) {
	acl, err := loader(b.dir)("acl.script")
	if err != nil {
		return nil, err
	}
	o := &operator{b: b, acl: acl, sw: b.sw, cli: b.cli}
	_, _, o.reclaimed0 = b.sw.EpochStats()
	if o.next, err = useCaseWorkspace(b.dir, b.wl.uc); err != nil {
		return nil, err
	}
	return o, nil
}

// cycle runs one update cycle. Any failing step counts the cycle failed.
func (o *operator) cycle() error {
	o.cycles++
	id := uint64(o.cycles)
	if o.spans != nil {
		o.spans.frame(id, 1)
		o.spans.begin(o.spans.layerOf("operator.cycle"))
		defer o.spans.end()
	}
	ws := o.next
	o.next = nil

	s := &o.samples[o.load]
	t0 := monoNanos()
	o.begin("backend.compile")
	rep, err := ws.ApplyScript(o.acl, loader(o.b.dir))
	o.end()
	if err != nil {
		return fmt.Errorf("compile acl.script: %w", err)
	}
	s.compile = append(s.compile, monoNanos()-t0)
	s.backendSR = append(s.backendSR, float64(stagesOnTSPs(rep)))

	// The next cycle's starting workspace is rebuilt outside the timed
	// compile: the update script mutates the workspace it runs on. The
	// compiler's garbage is then collected before the CCM steps: a real
	// controller compiles in its own process, so its garbage must not
	// land in the switch's heap while the switch applies.
	o.begin("operator.rebuild")
	o.next, err = useCaseWorkspace(o.b.dir, o.b.wl.uc)
	runtime.GC()
	o.end()
	if err != nil {
		return err
	}

	for i, c := range []*template.Config{rep.Config, o.b.installed} {
		t1 := monoNanos()
		o.begin("ctrlplane.apply")
		st, err := o.cli.ApplyConfig(c)
		t2 := monoNanos()
		if err == nil && o.spans != nil && st != nil {
			// The server-reported switch-side load time, placed inside the
			// apply round trip.
			mid := t1 + (t2-t1-st.LoadNanos)/2
			o.spans.add(id, "ipbm.load", "ctrlplane.apply", mid, mid+st.LoadNanos)
		}
		o.end()
		if err != nil {
			return fmt.Errorf("apply: %w", err)
		}
		s.apply = append(s.apply, t2-t1)
		s.loadNanos = append(s.loadNanos, st.LoadNanos)
		if i == 0 {
			s.switchSR = append(s.switchSR, float64(st.StagesRecompiled))
		}
	}

	t3 := monoNanos()
	o.begin("ctrlplane.ping")
	err = o.cli.Ping()
	o.end()
	if err != nil {
		return err
	}
	s.rtt = append(s.rtt, monoNanos()-t3)

	table := o.b.wl.fillerTable
	var handles [fillerPerCycle]int
	for k := 0; k < fillerPerCycle; k++ {
		req := filler(table, o.cycles, k)
		t4 := monoNanos()
		o.begin("ctrlplane.insert")
		h, err := o.cli.InsertEntry(req)
		o.end()
		if err != nil {
			return fmt.Errorf("insert %s: %w", table, err)
		}
		s.write = append(s.write, monoNanos()-t4)
		handles[k] = h
	}
	for k := 0; k < fillerPerCycle; k++ {
		o.begin("ctrlplane.delete")
		err := o.cli.DeleteEntry(table, handles[k])
		o.end()
		if err != nil {
			return fmt.Errorf("delete: %w", err)
		}
	}
	return nil
}

func (o *operator) begin(name string) {
	if o.spans != nil {
		o.spans.begin(o.spans.layerOf(name))
	}
}

func (o *operator) end() {
	if o.spans != nil {
		o.spans.end()
	}
}

// run cycles with the think time until stop closes, then reports on done.
func (o *operator) run(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	for {
		select {
		case <-stop:
			return
		default:
		}
		if err := o.cycle(); err != nil {
			o.failed++
			o.err = err
			if o.next == nil {
				if o.next, err = useCaseWorkspace(o.b.dir, o.b.wl.uc); err != nil {
					return
				}
			}
		}
		select {
		case <-stop:
			return
		case <-time.After(thinkTime):
		}
	}
}

// runFor cycles on the calling goroutine for d (the idle-switch case).
func (o *operator) runFor(d time.Duration) {
	stop := make(chan struct{})
	done := make(chan struct{})
	time.AfterFunc(d, func() { close(stop) })
	o.run(stop, done)
}

// attempted counts the operator's operations: per cycle one compile, two
// applies, a ping and the filler inserts and deletes.
func (o *operator) attempted() uint64 {
	return uint64(o.cycles) * (1 + 2 + 1 + 2*fillerPerCycle)
}

// filler is the k-th filler entry of cycle c in table: a host route in
// ipv4_host or an IPv6 /48 in ipv6_lpm, outside the destinations the
// traffic uses, so forwarding must not change while they come and go.
func filler(table string, c, k int) ctrlplane.EntryReq {
	type fv = ctrlplane.FieldValue
	if table == "ipv4_host" {
		return ctrlplane.EntryReq{Table: table,
			Keys: []fv{{Value: 1}, {Value: uint64(0x0B100000 + (c*fillerPerCycle+k)&0xfffff)}},
			Tag:  1, Params: []uint64{7}}
	}
	v6 := make([]byte, 16)
	v6[0], v6[1] = 0x20, 0x02
	v6[2], v6[3] = byte(c>>8), byte(c)
	v6[4], v6[5] = 0, byte(k)
	return ctrlplane.EntryReq{Table: table, Keys: []fv{{Bytes: v6}}, PrefixLen: 48, Tag: 1, Params: []uint64{7}}
}

// stagesOnTSPs counts the stages the backend placed on TSPs whose
// templates it rewrote: the stages an incremental compile regenerated.
func stagesOnTSPs(rep *backend.UpdateReport) int {
	rewritten := map[int]bool{}
	for _, t := range rep.RewrittenTSPs {
		rewritten[t] = true
	}
	n := 0
	for _, t := range rep.Config.TSPAssignment {
		if rewritten[t] {
			n++
		}
	}
	return n
}

// reclaimed is how many retired epochs the switch reclaimed since the
// operator started.
func (o *operator) reclaimed() float64 {
	_, _, r := o.sw.EpochStats()
	return float64(r - o.reclaimed0)
}
