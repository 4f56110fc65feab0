package main

import (
	"strings"
	"testing"
)

func TestParseFoldsRepeatedRuns(t *testing.T) {
	in := strings.NewReader(`
goos: linux
BenchmarkHotPath_Fused/C1-8   	   40000	      1024 ns/op	       0 B/op	       0 allocs/op
BenchmarkHotPath_Fused/C1-8   	   40000	       961.5 ns/op	      16 B/op	       1 allocs/op
BenchmarkReconfigStormHitless-8
    some mid-benchmark log line
   50000	      2100 ns/op	         0 drops	         0 stall_ms
ok  	ipsa	1.659s
`)
	got, err := parse(in)
	if err != nil {
		t.Fatal(err)
	}
	fused, ok := got["BenchmarkHotPath_Fused/C1"]
	if !ok {
		t.Fatalf("parse missed the fused benchmark: %v", got)
	}
	// Pessimistic fold: min ns/op, max allocs/op.
	if fused.NsOp != 961.5 || fused.AllocsOp != 1 || fused.BytesOp != 16 {
		t.Errorf("fold = %+v, want ns 961.5 allocs 1 bytes 16", fused)
	}
	storm, ok := got["BenchmarkReconfigStormHitless"]
	if !ok {
		t.Fatalf("parse lost the split result line: %v", got)
	}
	if storm.Extra["drops"] != 0 || storm.Extra["stall_ms"] != 0 {
		t.Errorf("custom metrics = %v, want zero drops and stall_ms", storm.Extra)
	}
}

func TestCheckBaselineMissingKeysAggregated(t *testing.T) {
	base := Baseline{Benchmarks: map[string]Result{
		"BenchmarkHotPath_Compiled/C1": {NsOp: 1000},
		"BenchmarkHotPath_Fused/C1":    {NsOp: 900},
		"BenchmarkHotPath_Fused/C2":    {NsOp: 1100},
	}}
	current := map[string]Result{
		"BenchmarkHotPath_Compiled/C1": {NsOp: 1010},
	}
	var out strings.Builder
	failures := checkBaseline(&out, base, current, 2.0)
	if failures != 2 {
		t.Fatalf("failures = %d, want 2 (one per missing key)\n%s", failures, out.String())
	}
	report := out.String()
	// One aggregated line names every missing key, so a narrowed -bench
	// regex is diagnosed in a single run.
	if !strings.Contains(report, "baseline keys missing from this run: BenchmarkHotPath_Fused/C1, BenchmarkHotPath_Fused/C2") {
		t.Errorf("missing-keys report not aggregated:\n%s", report)
	}
	if !strings.Contains(report, "re-record the baseline") {
		t.Errorf("missing-keys report lacks the repair hint:\n%s", report)
	}
}

func TestCheckBaselineThresholds(t *testing.T) {
	base := Baseline{Benchmarks: map[string]Result{
		"BenchmarkA": {NsOp: 1000, AllocsOp: 0, Extra: map[string]float64{"drops": 0}},
	}}
	zeroDrops := map[string]float64{"drops": 0}
	cases := []struct {
		name     string
		current  Result
		failures int
	}{
		{"within-bounds", Result{NsOp: 2500, Extra: zeroDrops}, 0},
		{"ns-over-tol", Result{NsOp: 3500, Extra: zeroDrops}, 1},
		{"alloc-regression", Result{NsOp: 1000, AllocsOp: 1, Extra: zeroDrops}, 1},
		{"zero-invariant", Result{NsOp: 1000, Extra: map[string]float64{"drops": 3}}, 1},
		// A zero-invariant metric the run no longer reports must not
		// pass as an implicit 0.
		{"extra-missing", Result{NsOp: 1000}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			got := checkBaseline(&out, base, map[string]Result{"BenchmarkA": tc.current}, 2.0)
			if got != tc.failures {
				t.Errorf("failures = %d, want %d\n%s", got, tc.failures, out.String())
			}
		})
	}
}

func TestParseSpeedup(t *testing.T) {
	req, err := parseSpeedup("BenchmarkHotPath_Fused=BenchmarkHotPath_Interp:1.25")
	if err != nil {
		t.Fatal(err)
	}
	if req.newName != "BenchmarkHotPath_Fused" || req.oldName != "BenchmarkHotPath_Interp" || req.min != 1.25 {
		t.Errorf("parseSpeedup = %+v", req)
	}
	for _, bad := range []string{"", "A=B", "A:1.5", "=B:1.5", "A=:1.5", "A=B:", "A=B:-1", "A=B:zero"} {
		if _, err := parseSpeedup(bad); err == nil {
			t.Errorf("parseSpeedup(%q) accepted invalid input", bad)
		}
	}
}

func TestCheckSpeedups(t *testing.T) {
	reqs := []speedupReq{{newName: "Fused", oldName: "Interp", min: 1.25}}
	run := func(current map[string]Result) (int, string) {
		var out strings.Builder
		n := checkSpeedups(&out, current, reqs)
		return n, out.String()
	}

	if n, out := run(map[string]Result{
		"Interp/C1": {NsOp: 1500}, "Fused/C1": {NsOp: 1000},
		"Interp/C2": {NsOp: 2000}, "Fused/C2": {NsOp: 1200},
	}); n != 0 {
		t.Errorf("passing ratios reported %d failures:\n%s", n, out)
	}

	if n, out := run(map[string]Result{
		"Interp/C1": {NsOp: 1200}, "Fused/C1": {NsOp: 1000}, // 1.2x < 1.25x
	}); n != 1 || !strings.Contains(out, "need >= 1.25x") {
		t.Errorf("slow ratio not caught (failures=%d):\n%s", n, out)
	}

	// A matched old benchmark with no new counterpart fails.
	if n, out := run(map[string]Result{"Interp/C1": {NsOp: 1500}}); n != 1 || !strings.Contains(out, "not in this run") {
		t.Errorf("missing counterpart not caught (failures=%d):\n%s", n, out)
	}

	// A requirement matching nothing is a broken gate, not a pass.
	if n, out := run(map[string]Result{"Other": {NsOp: 1}}); n != 1 || !strings.Contains(out, "no benchmark named") {
		t.Errorf("no-match requirement not caught (failures=%d):\n%s", n, out)
	}
}
