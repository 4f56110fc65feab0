package ipbm

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"ipsa/internal/ctrlplane"
	"ipsa/internal/pipeline"
	"ipsa/internal/template"
	"ipsa/internal/tsp"
)

// scratchTableOps returns the two-op edit scripts that create and drop
// an otherwise-unreferenced scratch table — the smallest possible
// partial reconfiguration, but one that still forces a full epoch
// publish (snapshot swap, table create/drop safety, maximal stage
// reuse).
func scratchTable(name string) *template.Table {
	return &template.Table{
		Name: name, Kind: "exact",
		Keys:     []template.KeySel{{Name: "scratch.key", Kind: "exact"}},
		KeyWidth: 4, Size: 8,
	}
}

// TestEpochStoreBasics: each apply publishes a new epoch; with no
// packets in flight the previous version is reclaimed immediately.
func TestEpochStoreBasics(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	e0, retired, _ := sw.EpochStats()
	if e0 != 1 || retired != 0 {
		t.Fatalf("after install: epoch=%d retired=%d", e0, retired)
	}
	if err := sw.EditBegin(); err != nil {
		t.Fatal(err)
	}
	if err := sw.EditApply(ctrlplane.EditOp{Kind: "set_table", Table: "scratch", TableSpec: scratchTable("scratch")}); err != nil {
		t.Fatal(err)
	}
	st, err := sw.EditCommit()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ops != 1 || st.Apply == nil {
		t.Fatalf("edit stats: %+v", st)
	}
	if st.Apply.TablesCreated != 1 || st.Apply.Epoch != 2 {
		t.Fatalf("apply stats: %+v", st.Apply)
	}
	// No stage references the scratch table, so every compiled stage is
	// reused verbatim across the epoch.
	if st.Apply.StagesRecompiled != 0 || st.Apply.StagesReused == 0 {
		t.Errorf("one-table edit recompiled %d stages (reused %d)",
			st.Apply.StagesRecompiled, st.Apply.StagesReused)
	}
	epoch, retired, reclaimed := sw.EpochStats()
	if epoch != 2 || retired != 0 || reclaimed == 0 {
		t.Errorf("after edit: epoch=%d retired=%d reclaimed=%d", epoch, retired, reclaimed)
	}
}

// TestEditTransactionLifecycle covers the transaction state machine:
// double begin, ops without a transaction, abort, and commit-validation
// failure keeping the transaction open.
func TestEditTransactionLifecycle(t *testing.T) {
	sw, _ := newBaseSwitch(t)
	if err := sw.EditApply(ctrlplane.EditOp{Kind: "set_table"}); err == nil {
		t.Error("op accepted without transaction")
	}
	if _, err := sw.EditCommit(); err == nil {
		t.Error("commit accepted without transaction")
	}
	if err := sw.EditBegin(); err != nil {
		t.Fatal(err)
	}
	if err := sw.EditBegin(); err == nil {
		t.Error("double begin accepted")
	}
	if err := sw.EditApply(ctrlplane.EditOp{Kind: "delete_table", Table: "ghost"}); err == nil {
		t.Error("delete of unknown table accepted")
	}
	// Deleting a table a stage still references validates at commit and
	// keeps the transaction open for a corrective abort.
	if err := sw.EditApply(ctrlplane.EditOp{Kind: "delete_table", Table: "dmac_tbl"}); err != nil {
		t.Fatal(err)
	}
	if _, err := sw.EditCommit(); err == nil {
		t.Error("commit of dangling table reference accepted")
	}
	if err := sw.EditAbort(); err != nil {
		t.Fatal(err)
	}
	if err := sw.EditAbort(); err == nil {
		t.Error("double abort accepted")
	}
	// The device still forwards and the abort is on the audit trail.
	p, err := sw.ProcessPacket(v4Packet(t, [4]byte{10, 0, 0, 2}, routerMAC, 64), inPort)
	if err != nil || p.Drop {
		t.Fatalf("forwarding broken after abort: err=%v drop=%v", err, p.Drop)
	}
	var aborts int
	for _, ev := range sw.EventsDump(0) {
		if ev.Kind == "edit_abort" {
			aborts++
		}
	}
	if aborts != 1 {
		t.Errorf("edit_abort events = %d, want 1", aborts)
	}
}

// TestEpochReclamationSoak is the reclamation soak: 1k live edit
// commits race sharded forwarding; afterwards every retired program
// version must be reclaimed (the store holds only the current epoch —
// no monotonic growth) and packet accounting must conserve: every
// frame the ingress accepted reaches exactly one verdict. Run under
// -race this also exercises the pin/publish/reap memory ordering.
func TestEpochReclamationSoak(t *testing.T) {
	edits := 1000
	if testing.Short() {
		edits = 100
	}
	sw, _ := newBaseSwitch(t)
	if err := sw.RunSharded(2, 4); err != nil {
		t.Fatal(err)
	}
	defer sw.Shutdown()
	in, _ := sw.Ports().Port(inPort)

	// Traffic: inject continuously until told to stop, counting every
	// accepted frame.
	stop := make(chan struct{})
	accepted := make(chan int, 1)
	go func() {
		n := 0
		i := 0
		for {
			select {
			case <-stop:
				accepted <- n
				return
			default:
			}
			if in.Inject(flowPacket(t, uint16(i%64), uint32(i))) {
				n++
			} else {
				time.Sleep(50 * time.Microsecond)
			}
			i++
		}
	}()

	// Edits: alternate create/drop of a scratch table, one transaction
	// per commit — 1k epoch publishes while packets are in flight.
	for i := 0; i < edits; i++ {
		if err := sw.EditBegin(); err != nil {
			t.Fatal(err)
		}
		op := ctrlplane.EditOp{Kind: "set_table", Table: "soak_scratch", TableSpec: scratchTable("soak_scratch")}
		if i%2 == 1 {
			op = ctrlplane.EditOp{Kind: "delete_table", Table: "soak_scratch"}
		}
		if err := sw.EditApply(op); err != nil {
			t.Fatal(err)
		}
		if _, err := sw.EditCommit(); err != nil {
			t.Fatalf("edit %d: %v", i, err)
		}
	}
	close(stop)
	total := <-accepted

	// Conservation: every accepted frame reaches exactly one verdict.
	finished := func() uint64 {
		var sum uint64
		for _, c := range sw.tel.verdictCounters() {
			sum += c.Value()
		}
		return sum
	}
	deadline := time.Now().Add(10 * time.Second)
	for finished() < uint64(total) {
		if time.Now().After(deadline) {
			t.Fatalf("conservation: %d/%d frames reached a verdict", finished(), total)
		}
		time.Sleep(time.Millisecond)
	}
	if got := finished(); got != uint64(total) {
		t.Errorf("verdicts %d != accepted %d (packets double-counted)", got, total)
	}

	// Reclamation: once traffic quiesces, the store holds only the
	// current epoch. EpochStats reaps before reading.
	var epoch uint64
	var retired int
	for time.Now().Before(deadline) {
		if epoch, retired, _ = sw.EpochStats(); retired == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if retired != 0 {
		t.Errorf("%d retired program versions never reclaimed", retired)
	}
	if want := uint64(edits + 1); epoch != want {
		t.Errorf("epoch = %d, want %d", epoch, want)
	}
}

// holdReconfig wedges the reconfiguration path the way a slow apply
// would: it takes the switch's configuration lock and parks a pipeline
// Commit callback on a channel, returning once both are held. The
// returned release lets both go.
func holdReconfig(sw *Switch) (release func()) {
	sw.mu.Lock()
	entered, unblock, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		_ = sw.pl.Commit(func(*pipeline.Selector, []*tsp.TSP) error {
			close(entered)
			<-unblock
			return nil
		})
	}()
	<-entered
	return func() {
		close(unblock)
		<-done
		sw.mu.Unlock()
	}
}

// completesWithin fails the test unless fn returns, without error, before
// the deadline.
func completesWithin(t *testing.T, what string, fn func() error) {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- fn() }()
	select {
	case err := <-errc:
		if err != nil {
			t.Errorf("%s: %v", what, err)
		}
	case <-time.After(5 * time.Second):
		t.Errorf("%s waited on a held reconfiguration", what)
	}
}

// forwardsWithin injects frame at the ingress port of a switch running a
// concurrent forwarding mode and requires it to emerge at the egress port
// before the deadline.
func forwardsWithin(t *testing.T, sw *Switch, what string, frame []byte) {
	t.Helper()
	in, _ := sw.Ports().Port(inPort)
	out, _ := sw.Ports().Port(outPort)
	completesWithin(t, what, func() error {
		if !in.Inject(frame) {
			return errors.New("ingress port refused the frame")
		}
		for end := time.Now().Add(10 * time.Second); time.Now().Before(end); {
			if _, ok := out.Drain(); ok {
				return nil
			}
			time.Sleep(100 * time.Microsecond)
		}
		return errors.New("frame never reached the egress port")
	})
}

// TestForwardingNeverWaitsOnReconfig pins the program store's core
// contract: no forwarding path takes the configuration lock or the
// pipeline's bookkeeping lock, so a reconfiguration that holds both —
// however long it takes — never delays a packet. Every entry point
// (Forward, ForwardBatch, ProcessPacket, the sharded and pipelined
// runners) must forward a frame while both are held.
func TestForwardingNeverWaitsOnReconfig(t *testing.T) {
	frame := func() []byte { return v4Packet(t, [4]byte{10, 0, 0, 2}, routerMAC, 64) }

	t.Run("sync", func(t *testing.T) {
		sw, _ := newBaseSwitch(t)
		f1, f2, f3, f4 := frame(), frame(), frame(), frame()
		release := holdReconfig(sw)
		defer release()
		completesWithin(t, "Forward", func() error {
			if sent, err := sw.Forward(f1, inPort); err != nil || !sent {
				return fmt.Errorf("sent=%v err=%v", sent, err)
			}
			return nil
		})
		completesWithin(t, "ForwardBatch", func() error {
			if sent, err := sw.ForwardBatch([][]byte{f2, f3}, inPort); err != nil || sent != 2 {
				return fmt.Errorf("sent=%d err=%v", sent, err)
			}
			return nil
		})
		completesWithin(t, "ProcessPacket", func() error {
			p, err := sw.ProcessPacket(f4, inPort)
			if err != nil {
				return err
			}
			if p.Drop || p.OutPort != outPort {
				return fmt.Errorf("drop=%v out_port=%d", p.Drop, p.OutPort)
			}
			return nil
		})
	})

	t.Run("sharded", func(t *testing.T) {
		sw, _ := newBaseSwitch(t)
		if err := sw.RunSharded(1, 0); err != nil {
			t.Fatal(err)
		}
		defer sw.Shutdown()
		f := frame()
		release := holdReconfig(sw)
		defer release()
		forwardsWithin(t, sw, "RunSharded", f)
	})

	t.Run("pipelined", func(t *testing.T) {
		sw, _ := newBaseSwitch(t)
		if err := sw.RunPipelined(1); err != nil {
			t.Fatal(err)
		}
		defer sw.Shutdown()
		f := frame()
		release := holdReconfig(sw)
		defer release()
		forwardsWithin(t, sw, "RunPipelined", f)
	})
}
