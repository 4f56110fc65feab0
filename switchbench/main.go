// Command switchbench is the repository's end-to-end and per-layer
// benchmark: it forwards seeded traffic through an ipbm switch running in
// sharded mode, checks every egress frame against the pisa reference
// switch, runs the paper's in-situ update workflow over the control
// channel, and prints one JSON result line. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wlName := flag.String("workload", "", "workload name (c1_ecmp_hot, c3_bigtable_churn, c2_insitu_update)")
	seed := flag.Int64("seed", 1, "traffic seed")
	seconds := flag.Int("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	testdata := flag.String("testdata", "testdata", "directory holding the rP4 designs and scripts")
	traceOut := flag.String("trace-out", ".bench_build/traces", "directory the traced run writes its spans to")
	flag.Parse()

	wl, err := workloadByName(*wlName)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "switchbench: need --workload <name> --seed <n> --seconds <s ≥ 1> --trace <0|1>")
		os.Exit(2)
	}
	r := runner{wl: wl, dir: *testdata, seed: *seed, dur: time.Duration(*seconds) * time.Second,
		traceDir: *traceOut, setupRounds: setupRounds, log: os.Stderr}
	var res *result
	if *trace == 1 {
		res, err = r.traced()
	} else {
		res, err = r.untraced()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "switchbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "switchbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
