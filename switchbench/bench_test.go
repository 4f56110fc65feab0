package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	cases := []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 99, 7},
		{[]float64{5, 1, 4, 2, 3}, 50, 3},
		{[]float64{5, 1, 4, 2, 3}, 0, 1},
		{[]float64{5, 1, 4, 2, 3}, 100, 5},
		{[]float64{5, 1, 4, 2, 3}, 90, 4.6},
		// statistics.quantiles([1,2,3,4], n=4, method="inclusive")
		// gives [1.75, 2.5, 3.25].
		{[]float64{4, 3, 2, 1}, 25, 1.75},
		{[]float64{4, 3, 2, 1}, 50, 2.5},
		{[]float64{4, 3, 2, 1}, 75, 3.25},
	}
	for _, c := range cases {
		if got := percentile(append([]float64(nil), c.xs...), c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.xs, c.p, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	if m := median(xs); m != 2 || xs[0] != 3 {
		t.Errorf("median = %v (input now %v), want 2 with the input untouched", m, xs)
	}
}

func TestIQM(t *testing.T) {
	cases := []struct {
		xs   []float64
		want float64
	}{
		{[]float64{9}, 9},
		{[]float64{3, 1, 2}, 2},
		// Sorted 1 2 3 | 4 5 6 7 8 9 | 10 11 1000: the middle half.
		{[]float64{1000, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 6.5},
		// A two-mode sample: the middle half straddles both modes.
		{[]float64{3, 3, 3, 3, 3, 5, 5, 5}, 3.5},
	}
	for _, c := range cases {
		if got := iqm(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("iqm(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	if iqm(xs); xs[0] != 3 {
		t.Errorf("iqm reordered its input: %v", xs)
	}
	if m := mean([]float64{1, 2, 6}); m != 3 {
		t.Errorf("mean = %v, want 3", m)
	}
}

func TestRatio(t *testing.T) {
	if r := ratio(1, 4); r != 0.25 {
		t.Errorf("ratio(1,4) = %v", r)
	}
	if r := ratio(5, 0); r != 0 {
		t.Errorf("ratio(5,0) = %v, want 0", r)
	}
	if got := nanosToFloats([]int64{1500, 2500}, 1e3); got[0] != 1.5 || got[1] != 2.5 {
		t.Errorf("nanosToFloats = %v", got)
	}
}

// TestSelfTime checks the self-time rule: a parent's self time is its
// duration minus its direct children's, with no calibration applied.
func TestSelfTime(t *testing.T) {
	sl := newSpanLog(16)
	a, b := sl.layerOf("a"), sl.layerOf("b")
	sl.begin(a)
	sl.begin(b)
	time.Sleep(time.Millisecond)
	sl.end()
	time.Sleep(time.Millisecond)
	sl.end()
	child, parent := sl.kept[0], sl.kept[1]
	if child.Layer != b || parent.Layer != a || child.Parent != a || parent.Parent != -1 {
		t.Fatalf("spans recorded wrong: %+v %+v", child, parent)
	}
	if got, want := sl.self[b], child.End-child.Start; got != want {
		t.Errorf("child self = %d, want %d", got, want)
	}
	if got, want := sl.self[a], (parent.End-parent.Start)-(child.End-child.Start); got != want {
		t.Errorf("parent self = %d, want %d", got, want)
	}
}

// fakePath is a frame path that hands frames straight back, corrupting
// one byte of every nth frame.
type fakePath struct {
	q   [][]byte
	n   int
	nth int
}

func (f *fakePath) inject(d []byte) bool {
	f.n++
	if f.nth > 0 && f.n%f.nth == 0 {
		d[0] ^= 0xff
	}
	f.q = append(f.q, d)
	return true
}

func (f *fakePath) drain() ([]byte, bool) {
	if len(f.q) == 0 {
		return nil, false
	}
	d := f.q[0]
	f.q = f.q[1:]
	return d, true
}

func fakeTraffic() *traffic {
	tmpl := make([][]byte, 3)
	exp := make([]expect, 3)
	for i := range tmpl {
		tmpl[i] = make([]byte, 24)
		tmpl[i][0] = byte(i + 1)
		exp[i] = expect{port: 0, data: tmpl[i]}
	}
	return &traffic{tmpl: tmpl, exp: exp, sched: []int32{0, 1, 2, 1}}
}

func TestCorruptedFrameIsAFailure(t *testing.T) {
	for _, w := range []int{1, 8} {
		fp := &fakePath{nth: 5}
		l := newLoop(fakeTraffic(), fp.inject, []func() ([]byte, bool){fp.drain}, 8)
		st := l.run(w, 20*time.Millisecond, true)
		if st.injected == 0 || st.bad == 0 {
			t.Fatalf("window %d: injected %d bad %d, want corrupted frames counted", w, st.injected, st.bad)
		}
		if st.bad != uint64(fp.n/5) || st.good+st.bad != st.injected || st.lost != 0 {
			t.Errorf("window %d: injected %d good %d bad %d lost %d, want bad = %d", w, st.injected, st.good, st.bad, st.lost, fp.n/5)
		}
	}
}

func TestWrongPortAndUnknownFrame(t *testing.T) {
	tr := fakeTraffic()
	l := newLoop(tr, func([]byte) bool { return true }, nil, 4)
	var st loopStats
	l.issue(0, &st)
	l.issue(1, &st)
	good := append([]byte(nil), l.slots[0].buf...)
	if l.complete(1, append([]byte(nil), l.slots[1].buf...), 0, &st, false) != 1 || st.bad != 1 {
		t.Errorf("frame on the wrong port: bad = %d, want 1", st.bad)
	}
	if l.complete(0, good, 0, &st, false) != 0 || st.good != 1 {
		t.Errorf("right frame: good = %d, want 1", st.good)
	}
	if l.complete(0, good, 0, &st, false) != -1 || st.bad != 2 {
		t.Errorf("duplicate frame: bad = %d, want 2", st.bad)
	}
}

// declared reads the metric names and units BENCHMARK.json lists.
func declared(t *testing.T) (e2e, layers map[string]string) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

// TestSmoke runs every workload briefly, untraced and traced, and checks
// each result is correct and carries exactly the declared metrics with
// their units.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every workload's switch")
	}
	e2e, layers := declared(t)
	for _, wl := range workloads {
		for _, traced := range []bool{false, true} {
			r := runner{wl: wl, dir: "../testdata", seed: 7, dur: 400 * time.Millisecond,
				traceDir: t.TempDir(), setupRounds: 1}
			want := e2e
			var out *result
			var err error
			if traced {
				want = layers
				out, err = r.traced()
			} else {
				out, err = r.untraced()
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wl.name, traced, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.name, traced, out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", wl.name, traced, len(out.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := out.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", wl.name, traced, name, m, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %v", wl.name, traced, name, m.Value)
				}
			}
		}
	}
}
