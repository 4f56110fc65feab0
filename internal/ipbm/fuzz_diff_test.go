package ipbm

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"ipsa/internal/compiler/backend"
	"ipsa/internal/ctrlplane"
	"ipsa/internal/pkt"
	"ipsa/internal/rp4/parser"
	"ipsa/internal/tsp"
)

// The fused closures are an optimization over the reference tree
// interpreter; the two executor tiers must be bit-for-bit equivalent.
// These tests hold that line two ways: a differential fuzz target over
// arbitrary packet bytes, and a deterministic sweep over every shipped
// example design with realistic traffic.

var (
	diffFuzzOnce sync.Once
	diffFuzzF    *Switch // fused closures
	diffFuzzI    *Switch // interpreter oracle
)

// faultSnapshot flattens the executor fault counters for comparison.
func faultSnapshot(sw *Switch) [3]uint64 {
	f := sw.Faults()
	return [3]uint64{
		f.InvalidHeaderAccess.Load(),
		f.RegisterFault.Load(),
		f.BadTemplate.Load(),
	}
}

// diffFuzzBringUp builds a fused/interpreter switch pair running the
// SRv6 design (the largest parsing surface) with populated
// base tables. No testing.T plumbing so it can run inside the fuzz
// engine's worker.
func diffFuzzBringUp() (*Switch, *Switch, error) {
	read := func(name string) (string, error) {
		b, err := os.ReadFile(filepath.Join("../../testdata", name))
		return string(b), err
	}
	src, err := read("base_l2l3.rp4")
	if err != nil {
		return nil, nil, err
	}
	prog, err := parser.Parse("base_l2l3.rp4", src)
	if err != nil {
		return nil, nil, err
	}
	copts := backend.DefaultOptions()
	copts.NumTSPs = 16
	w, err := backend.NewWorkspace(prog, copts)
	if err != nil {
		return nil, nil, err
	}
	scriptSrc, err := read("srv6.script")
	if err != nil {
		return nil, nil, err
	}
	rep, err := w.ApplyScript(scriptSrc, read)
	if err != nil {
		return nil, nil, err
	}
	mk := func(mode tsp.ExecMode) (*Switch, error) {
		o := DefaultOptions()
		o.Exec = mode
		sw, err := New(o)
		if err != nil {
			return nil, err
		}
		if _, err := sw.ApplyConfig(rep.Config); err != nil {
			return nil, err
		}
		if err := populateBaseErr(sw); err != nil {
			return nil, err
		}
		return sw, nil
	}
	fused, err := mk(tsp.ExecFused)
	if err != nil {
		return nil, nil, err
	}
	interp, err := mk(tsp.ExecInterp)
	if err != nil {
		return nil, nil, err
	}
	return fused, interp, nil
}

// comparePacket demands identical observable outcomes from two executor
// tiers: packet bytes, user metadata, verdict bits and egress port. The
// names label the tiers in the failure report.
func comparePacket(aName, bName string, pa, pb *pkt.Packet) error {
	if pa.Drop != pb.Drop || pa.ToCPU != pb.ToCPU || pa.OutPort != pb.OutPort {
		return fmt.Errorf("verdict diverged: %s={drop:%v cpu:%v out:%d} %s={drop:%v cpu:%v out:%d}",
			aName, pa.Drop, pa.ToCPU, pa.OutPort, bName, pb.Drop, pb.ToCPU, pb.OutPort)
	}
	if !bytes.Equal(pa.Data, pb.Data) {
		return fmt.Errorf("packet bytes diverged:\n%s: %x\n%s: %x", aName, pa.Data, bName, pb.Data)
	}
	if !bytes.Equal(pa.Meta, pb.Meta) {
		return fmt.Errorf("metadata diverged:\n%s: %x\n%s: %x", aName, pa.Meta, bName, pb.Meta)
	}
	return nil
}

// FuzzCompiledVsInterp feeds arbitrary packet bytes through the compiled
// (fused-closure) and interpreter executors and demands bit-identical
// outcomes — packet bytes, metadata, verdict and egress port — including
// the fault counters (faults are part of the observable contract). Under
// plain `go test` the seed corpus runs as regression tests.
func FuzzCompiledVsInterp(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x02, 0, 0, 0, 0, 1}, uint8(1))
	srv6, _ := pkt.Serialize(
		&pkt.Ethernet{Dst: routerMAC, Src: hostMAC, EtherType: pkt.EtherTypeIPv6},
		&pkt.IPv6{NextHeader: pkt.IPProtoRouting, HopLimit: 64},
		&pkt.SRH{NextHeader: pkt.IPProtoTCP, SegmentsLeft: 1, Segments: [][16]byte{{1}, {2}}},
		&pkt.TCP{SrcPort: 1, DstPort: 2},
	)
	f.Add(srv6, uint8(1))
	v4 := []byte{
		0x02, 0, 0, 0, 0, 0x01, 0x02, 0, 0, 0, 0, 0x02, 0x08, 0x00,
		0x45, 0, 0, 20, 0, 0, 0, 0, 64, 6, 0, 0, 10, 0, 0, 1, 10, 0, 0, 2,
	}
	f.Add(v4, uint8(1))
	// Truncated v4 header: exercises the invalid-header fault paths.
	f.Add(v4[:16], uint8(1))

	f.Fuzz(func(t *testing.T, data []byte, port uint8) {
		diffFuzzOnce.Do(func() { diffFuzzF, diffFuzzI, _ = diffFuzzBringUp() })
		if diffFuzzF == nil || diffFuzzI == nil {
			t.Skip("switch bring-up failed")
		}
		in := int(port) % 8
		pf, err := diffFuzzF.ProcessPacket(append([]byte(nil), data...), in)
		if err != nil {
			t.Fatalf("fused ProcessPacket: %v", err)
		}
		pi, err := diffFuzzI.ProcessPacket(append([]byte(nil), data...), in)
		if err != nil {
			t.Fatalf("interp ProcessPacket: %v", err)
		}
		if err := comparePacket("fused", "interp", pf, pi); err != nil {
			t.Fatal(err)
		}
		if ff, fi := faultSnapshot(diffFuzzF), faultSnapshot(diffFuzzI); ff != fi {
			t.Fatalf("fault counters diverged: fused=%v interp=%v (invalid_header, register, bad_template)", ff, fi)
		}
	})
}

// TestDifferentialCompiledVsInterp sweeps every shipped design: for
// each, a switch on the compiled (fused-closure) tier and one on the
// reference interpreter process the same realistic traffic mix and must
// agree on every outcome and fault count.
func TestDifferentialCompiledVsInterp(t *testing.T) {
	designs := []struct {
		name   string
		script string // applied on top of the base design; "" = base only
	}{
		{"base", ""},
		{"acl", "acl.script"},
		{"ecmp", "ecmp.script"},
		{"flowprobe", "flowprobe.script"},
		{"srv6", "srv6.script"},
		{"vlan", "vlan.script"},
	}
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			w := newBaseWorkspace(t)
			cfg := w.Current().Config
			if d.script != "" {
				rep, err := w.ApplyScript(script(t, d.script), loader(t))
				if err != nil {
					t.Fatal(err)
				}
				cfg = rep.Config
			}
			mk := func(mode tsp.ExecMode) *Switch {
				o := DefaultOptions()
				o.Exec = mode
				sw, err := New(o)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sw.ApplyConfig(cfg); err != nil {
					t.Fatal(err)
				}
				// Some scripts swap tables out (ecmp replaces
				// nexthop_tbl with a selector); install what the
				// design still has — identically on both switches.
				for _, req := range baseEntries() {
					_, _ = sw.InsertEntry(req)
				}
				if d.name == "ecmp" {
					if err := sw.AddMember(ctrlplane.MemberReq{
						Table: "ecmp_ipv4", Group: ctrlplane.FieldValue{Value: nexthopID},
						Tag: 1, Params: []uint64{bridgeOut, nhMAC.Uint64()},
					}); err != nil {
						t.Fatal(err)
					}
				}
				return sw
			}
			f := mk(tsp.ExecFused)
			i := mk(tsp.ExecInterp)
			runDiff(t, f, i, diffTraffic(t, 48), d.name+" fused vs interp")
			if ff, fi := faultSnapshot(f), faultSnapshot(i); ff != fi {
				t.Fatalf("%s: fault counters diverged: fused=%v interp=%v", d.name, ff, fi)
			}
		})
	}
}
