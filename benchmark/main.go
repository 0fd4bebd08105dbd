// Command benchmark is the repository's benchmark: it drives the real
// endbox facade through four closed-loop workloads, prints every end-to-end
// metric (tracing off) or every per-layer metric (a separate traced run) by
// name with its unit, and verifies its own outputs. See README.md.
//
//	bash benchmark/run.sh --workload bulk-egress --seed 1 --seconds 25 --trace 0
//	bash benchmark/run.sh --seed 1 --out A.json          # all workloads, both runs
//	bash benchmark/run.sh --compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// fingerprint says where and from what a result was taken; results from
// different hosts do not compare.
type fingerprint struct {
	Seed       int64  `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func hostFingerprint(seed int64) fingerprint {
	fp := fingerprint{
		Seed: seed, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					fp.Commit += "+modified"
				}
			}
		}
	}
	return fp
}

// report is what -out writes and -compare reads.
type report struct {
	Fingerprint fingerprint  `json:"fingerprint"`
	Results     []*runResult `json:"results"`
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		secs     = flag.Float64("seconds", 25, "length of the measured window")
		trace    = flag.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run; -1: both")
		out      = flag.String("out", "", "also write the results to this file as JSON")
		smoke    = flag.Bool("smoke", false, "mark the results as too short to compare")
		traceDir = flag.String("trace-dir", "benchmark/out", "directory a traced run writes its spans to")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments against the bounds in -spec")
		spec     = flag.String("spec", "BENCHMARK.json", "benchmark definition that -compare takes the bounds from")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(flag.Args(), *spec))
	}
	if flag.NArg() > 0 {
		fatalf("unexpected arguments: %v", flag.Args())
	}
	if *secs <= 0 {
		fatalf("-seconds must be positive")
	}

	var todo []workload
	if *name == "all" {
		todo = workloads
	} else if w, ok := workloadByName(*name); ok {
		todo = []workload{w}
	} else {
		fatalf("unknown workload %q (have %s)", *name, strings.Join(workloadNames(), ", "))
	}
	var modes []bool
	if *trace <= 0 {
		modes = append(modes, false)
	}
	if *trace != 0 {
		modes = append(modes, true)
	}

	rep := report{Fingerprint: hostFingerprint(*seed)}
	fp, _ := json.Marshal(rep.Fingerprint)
	fmt.Printf("host %s\n", fp)
	for _, w := range todo {
		for _, traced := range modes {
			o := runOptions{seed: *seed, seconds: *secs, smoke: *smoke, traceDir: *traceDir}
			run := runUntraced
			if traced {
				run = runTraced
			}
			res, err := run(w, o)
			if err != nil {
				fatalf("%s: %v", w.name, err)
			}
			rep.Results = append(rep.Results, res)
			printResult(res)
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatalf("%v", err)
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			fatalf("%v", err)
		}
	}

	// The last line of standard output is the run's result in the form the
	// benchmark contract reads; with several runs it is the last run's.
	last := rep.Results[len(rep.Results)-1]
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: last.Correct, Attempted: last.Attempted, Failed: last.Failed, Metrics: map[string]metric{}}
	for k, m := range last.Metrics {
		line.Metrics[k] = metric{Value: m.Value, Unit: m.Unit} // value and unit only
	}
	data, err := json.Marshal(line)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(data))
	for _, r := range rep.Results {
		if !r.Correct {
			os.Exit(1)
		}
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func printResult(r *runResult) {
	kind := "end-to-end, tracing off"
	if r.Traced {
		kind = "per-layer, traced run"
	}
	note := ""
	if r.Smoke {
		note = " [smoke: not comparable]"
	}
	fmt.Printf("\n== %s (%s) %d clients, %.3g s%s\n", r.Workload, kind, r.Clients, r.Seconds, note)
	for _, name := range metricNames(r.Metrics) {
		m := r.Metrics[name]
		fmt.Printf("  %-32s %14.4f %-7s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
	fmt.Printf("  operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, c := range r.Checks {
		verdict := "ok  "
		if !c.OK {
			verdict = "FAIL"
		}
		fmt.Printf("  check %s %-26s %s\n", verdict, c.Name, c.Detail)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
