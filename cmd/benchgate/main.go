// benchgate is the benchmark regression gate: it parses `go test -bench`
// output from stdin and either records a JSON baseline (-write) or
// compares against a committed one (-check), failing on regression.
//
// Two thresholds with different strictness, because they have different
// portability:
//
//   - allocs/op is machine-independent: any increase over the baseline is
//     a hard failure (the hot path's zero-allocation steady state is a
//     correctness property here, not a tuning detail);
//   - ns/op depends on the host, so the gate only fails when the current
//     number exceeds baseline*(1+tol) — with a tolerance wide enough to
//     absorb machine-to-machine variance while still catching order-of
//     magnitude regressions (a slipped lock, an accidental O(n) scan);
//   - custom metrics (b.ReportMetric) whose baseline value is exactly 0
//     are strict: any nonzero current value is a hard failure. A zero in
//     the baseline records an invariant ("the hitless storm drops no
//     packets and never stalls the pipeline"), not a measurement, so
//     there is no variance to tolerate. Nonzero custom metrics are
//     informational only.
//
// A third check class, -speedup, compares two benchmark families within
// the same run, so it is as machine-independent as allocs/op: the host's
// absolute speed cancels out of the ratio. This is how bench-fused
// asserts that the fused tier is decisively faster than the tree
// interpreter without depending on which box CI happens to land on.
// With repeated runs the ratio is the median over runs paired by
// position (the k-th OLD run against the k-th NEW run): a min-over-runs
// per side would compare one side's luckiest round against the other's
// and fail whenever the host sped up for only one of them.
//
// Repeated runs of one benchmark (-count=N, or several go test rounds
// piped into one benchgate) are folded by taking the minimum ns/op and
// the per-key maximum of allocs/op and custom metrics (the pessimistic
// fold: one bad run out of five still fails a strict gate).
//
// Usage:
//
//	go test -run xxx -bench BenchmarkHotPath -benchmem -count=5 . | benchgate -write BENCH_hotpath.json
//	go test -run xxx -bench BenchmarkHotPath -benchmem -count=5 . | benchgate -check BENCH_hotpath.json -tol 2.0
//	go test -run xxx -bench 'BenchmarkHotPath_(Interp|Fused)$' -benchmem -count=3 . | \
//	  benchgate -check BENCH_hotpath.json -speedup 'BenchmarkHotPath_Fused=BenchmarkHotPath_Interp:1.25'
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark's folded measurement.
type Result struct {
	NsOp     float64            `json:"ns_op"`
	AllocsOp float64            `json:"allocs_op"`
	BytesOp  float64            `json:"bytes_op"`
	Extra    map[string]float64 `json:"extra,omitempty"` // custom b.ReportMetric units
	// Runs is the ns/op of every occurrence in input order, so -speedup
	// can pair the k-th run of two benchmarks (the same round when the
	// input is several go test rounds). Not part of the baseline file.
	Runs []float64 `json:"-"`
}

// Baseline is the committed JSON document.
type Baseline struct {
	Note       string            `json:"note,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// speedupReq is one -speedup requirement: every benchmark named
// old/<case> in the run must have a new/<case> counterpart whose ns/op is
// at least min times lower.
type speedupReq struct {
	newName string
	oldName string
	min     float64
}

// parseSpeedup parses the -speedup flag syntax NEW=OLD:MIN.
func parseSpeedup(s string) (speedupReq, error) {
	eq := strings.Index(s, "=")
	col := strings.LastIndex(s, ":")
	if eq <= 0 || col <= eq+1 || col == len(s)-1 {
		return speedupReq{}, fmt.Errorf("bad -speedup %q (want NEW=OLD:MIN, e.g. Fused=Interp:1.25)", s)
	}
	min, err := strconv.ParseFloat(s[col+1:], 64)
	if err != nil || min <= 0 {
		return speedupReq{}, fmt.Errorf("bad -speedup ratio in %q: want a positive number", s)
	}
	return speedupReq{newName: s[:eq], oldName: s[eq+1 : col], min: min}, nil
}

// speedupFlags collects repeated -speedup flags.
type speedupFlags []speedupReq

func (f *speedupFlags) String() string { return fmt.Sprint([]speedupReq(*f)) }

func (f *speedupFlags) Set(s string) error {
	req, err := parseSpeedup(s)
	if err != nil {
		return err
	}
	*f = append(*f, req)
	return nil
}

// procSuffix strips the trailing -GOMAXPROCS from a benchmark name so
// baselines recorded on different core counts compare by logical name.
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	write := flag.String("write", "", "record a baseline to this file from stdin")
	check := flag.String("check", "", "compare stdin against this baseline file")
	tol := flag.Float64("tol", 2.0, "allowed ns/op slack: fail above baseline*(1+tol)")
	note := flag.String("note", "", "free-form note stored in a written baseline")
	var speedups speedupFlags
	flag.Var(&speedups, "speedup",
		"within-run speedup requirement NEW=OLD:MIN (repeatable); every OLD/<case> benchmark must have a NEW/<case> counterpart at least MIN times faster")
	flag.Parse()
	if (*write == "") == (*check == "") {
		fmt.Fprintln(os.Stderr, "benchgate: exactly one of -write or -check is required")
		os.Exit(2)
	}

	current, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if len(current) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no benchmark lines on stdin")
		os.Exit(2)
	}

	if *write != "" {
		doc := Baseline{Note: *note, Benchmarks: current}
		b, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*write, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(current), *write)
		return
	}

	raw, err := os.ReadFile(*check)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: bad baseline %s: %v\n", *check, err)
		os.Exit(2)
	}

	failures := checkBaseline(os.Stdout, base, current, *tol)
	failures += checkSpeedups(os.Stdout, current, speedups)
	if failures > 0 {
		fmt.Printf("benchgate: %d failure(s) across %d baseline benchmark(s)\n", failures, len(base.Benchmarks))
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmark(s) within bounds\n", len(base.Benchmarks))
}

// checkBaseline compares the current run against the committed baseline,
// reporting per-benchmark verdicts to w and returning the failure count.
// Baseline keys absent from the run are aggregated into one error naming
// every missing key, so a narrowed -bench regex or a renamed benchmark
// fails loudly with the full repair list instead of one key per rerun.
func checkBaseline(w io.Writer, base Baseline, current map[string]Result, tol float64) int {
	var missing []string
	failures := 0
	for _, name := range sortedResultKeys(base.Benchmarks) {
		want := base.Benchmarks[name]
		got, ok := current[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		status := "ok"
		if got.AllocsOp > want.AllocsOp {
			status = "FAIL"
			fmt.Fprintf(w, "FAIL %s: allocs/op %.0f > baseline %.0f (allocation regressions are hard failures)\n",
				name, got.AllocsOp, want.AllocsOp)
			failures++
		}
		if limit := want.NsOp * (1 + tol); got.NsOp > limit {
			status = "FAIL"
			fmt.Fprintf(w, "FAIL %s: ns/op %.1f > %.1f (baseline %.1f, tol %.0f%%)\n",
				name, got.NsOp, limit, want.NsOp, tol*100)
			failures++
		}
		for _, key := range sortedKeys(want.Extra) {
			v, ok := got.Extra[key]
			if !ok {
				// An unreported metric would otherwise read as 0 and pass
				// a zero invariant vacuously.
				status = "FAIL"
				fmt.Fprintf(w, "FAIL %s: baseline metric %s missing from this run (re-record the baseline with -write if it was removed)\n",
					name, key)
				failures++
				continue
			}
			if want.Extra[key] != 0 {
				continue // nonzero custom metrics are informational
			}
			if v != 0 {
				status = "FAIL"
				fmt.Fprintf(w, "FAIL %s: %s %.1f violates the baseline's zero invariant\n",
					name, key, v)
				failures++
			}
		}
		if status == "ok" {
			fmt.Fprintf(w, "ok   %s: ns/op %.1f (baseline %.1f, %+.1f%%), allocs/op %.0f\n",
				name, got.NsOp, want.NsOp, 100*(got.NsOp-want.NsOp)/want.NsOp, got.AllocsOp)
		}
	}
	if len(missing) > 0 {
		fmt.Fprintf(w, "FAIL baseline keys missing from this run: %s\n", strings.Join(missing, ", "))
		fmt.Fprintf(w, "     (%d key(s); run the full gated benchmark set, or re-record the baseline with -write if a benchmark was renamed or removed)\n",
			len(missing))
		failures += len(missing)
	}
	return failures
}

// checkSpeedups enforces -speedup requirements against the current run
// only: for each requirement, every old/<case> benchmark must have a
// new/<case> counterpart in the same run at least min times faster. Both
// names being absent is a failure too — a requirement that matches
// nothing is a broken gate, not a pass.
func checkSpeedups(w io.Writer, current map[string]Result, reqs []speedupReq) int {
	failures := 0
	for _, req := range reqs {
		matched := 0
		for _, name := range sortedResultKeys(current) {
			suffix, ok := caseSuffix(name, req.oldName)
			if !ok {
				continue
			}
			matched++
			old := current[name]
			newName := req.newName + suffix
			cur, ok := current[newName]
			if !ok {
				fmt.Fprintf(w, "FAIL speedup %s: %s not in this run (counterpart of %s)\n",
					req.newName, newName, name)
				failures++
				continue
			}
			ratio, n := speedupRatio(old, cur)
			if ratio <= 0 {
				fmt.Fprintf(w, "FAIL speedup %s: non-positive ns/op (%s %.1f, %s %.1f)\n",
					req.newName, name, old.NsOp, newName, cur.NsOp)
				failures++
				continue
			}
			if ratio < req.min {
				fmt.Fprintf(w, "FAIL speedup %s/%s: %.2fx vs %s (median of %d paired runs; best %.1f / %.1f ns/op), need >= %.2fx\n",
					req.newName, strings.TrimPrefix(suffix, "/"), ratio, req.oldName, n, old.NsOp, cur.NsOp, req.min)
				failures++
				continue
			}
			fmt.Fprintf(w, "ok   speedup %s%s: %.2fx vs %s (median of %d paired runs; best %.1f / %.1f ns/op, need >= %.2fx)\n",
				req.newName, suffix, ratio, req.oldName, n, old.NsOp, cur.NsOp, req.min)
		}
		if matched == 0 {
			fmt.Fprintf(w, "FAIL speedup %s=%s: no benchmark named %s or %s/<case> in this run\n",
				req.newName, req.oldName, req.oldName, req.oldName)
			failures++
		}
	}
	return failures
}

// speedupRatio is old's ns/op over cur's: the median of the per-run
// ratios when both carry the same number of runs, else the ratio of the
// folded values (n = 1). Zero when any ns/op is not positive.
func speedupRatio(old, cur Result) (ratio float64, n int) {
	if len(old.Runs) < 2 || len(old.Runs) != len(cur.Runs) {
		if old.NsOp <= 0 || cur.NsOp <= 0 {
			return 0, 1
		}
		return old.NsOp / cur.NsOp, 1
	}
	ratios := make([]float64, len(old.Runs))
	for k := range old.Runs {
		if old.Runs[k] <= 0 || cur.Runs[k] <= 0 {
			return 0, len(ratios)
		}
		ratios[k] = old.Runs[k] / cur.Runs[k]
	}
	sort.Float64s(ratios)
	mid := len(ratios) / 2
	if len(ratios)%2 == 1 {
		return ratios[mid], len(ratios)
	}
	return (ratios[mid-1] + ratios[mid]) / 2, len(ratios)
}

// caseSuffix reports whether name is base itself or a base/<case>
// sub-benchmark, returning the "/<case>" suffix ("" for an exact match).
func caseSuffix(name, base string) (string, bool) {
	if name == base {
		return "", true
	}
	if strings.HasPrefix(name, base+"/") {
		return name[len(base):], true
	}
	return "", false
}

// parse folds `go test -bench` output into per-name Results, taking the
// minimum over repeated runs of the same benchmark and keeping each
// run's ns/op in Runs.
//
// `go test` merges the test binary's stderr into its stdout, so a switch
// that logs during a benchmark splits the result line: the name is
// printed, the log lands mid-line, and the measurements arrive on a later
// line that starts with the iteration count. The parser therefore carries
// a pending name across log noise until its numbers show up.
func parse(f io.Reader) (map[string]Result, error) {
	out := make(map[string]Result)
	pending := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		var name string
		var vals []string // iterations, then "value unit" pairs
		switch {
		case strings.HasPrefix(fields[0], "Benchmark"):
			name = procSuffix.ReplaceAllString(fields[0], "")
			if len(fields) >= 4 && isInt(fields[1]) {
				vals = fields[1:]
			} else {
				pending = name // results were pushed to a later line
				continue
			}
		case pending != "" && len(fields) >= 3 && isInt(fields[0]):
			name = pending
			vals = fields
		default:
			continue
		}
		pending = ""
		r := Result{Extra: map[string]float64{}}
		for i := 1; i+1 < len(vals); i += 2 {
			v, err := strconv.ParseFloat(vals[i], 64)
			if err != nil {
				continue
			}
			switch vals[i+1] {
			case "ns/op":
				r.NsOp = v
			case "B/op":
				r.BytesOp = v
			case "allocs/op":
				r.AllocsOp = v
			default:
				r.Extra[vals[i+1]] = v
			}
		}
		if len(r.Extra) == 0 {
			r.Extra = nil
		}
		prev, ok := out[name]
		runs := append(prev.Runs, r.NsOp)
		if ok {
			r = foldMin(prev, r)
		}
		r.Runs = runs
		out[name] = r
	}
	return out, sc.Err()
}

// isInt reports whether s is a plain base-10 integer (an iteration count).
func isInt(s string) bool {
	_, err := strconv.ParseUint(s, 10, 64)
	return err == nil
}

// foldMin keeps the minimum ns/op run and the per-key maximum of
// allocs/op and custom metrics (a single allocating — or dropping —
// run is still a regression worth gating on).
func foldMin(a, b Result) Result {
	if b.NsOp < a.NsOp && b.NsOp > 0 {
		a.NsOp = b.NsOp
	}
	if b.AllocsOp > a.AllocsOp {
		a.AllocsOp = b.AllocsOp
	}
	if b.BytesOp > a.BytesOp {
		a.BytesOp = b.BytesOp
	}
	if len(b.Extra) > 0 && a.Extra == nil {
		a.Extra = map[string]float64{}
	}
	for k, v := range b.Extra {
		if v > a.Extra[k] {
			a.Extra[k] = v
		}
	}
	return a
}

// sortedKeys gives deterministic report ordering for a metric map.
func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// sortedResultKeys gives deterministic report ordering for a result map.
func sortedResultKeys(m map[string]Result) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
