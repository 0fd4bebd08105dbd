package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
)

// benchSpec is the part of BENCHMARK.json that -compare reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadReports reads one side of a comparison: a comma-separated list of
// -out files, each a run of the same code on the same host.
func loadReports(paths string) ([]*report, error) {
	var reps []*report
	for _, path := range strings.Split(paths, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		rep := new(report)
		if err := json.Unmarshal(data, rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// side is one side of a comparison reduced to what is compared: per
// workload, whether every run is usable, and each metric's median over the
// runs.
type side struct {
	fp       fingerprint
	problems map[string]string
	values   map[string]map[string]float64
}

func reduce(reps []*report) side {
	s := side{fp: reps[0].Fingerprint, problems: map[string]string{}, values: map[string]map[string]float64{}}
	runs := map[string]map[string][]float64{}
	first := map[string]*runResult{} // the first run of each workload, which the others must match
	for _, rep := range reps {
		if rep.Fingerprint.host() != s.fp.host() {
			s.problems[""] = fmt.Sprintf("runs from different hosts: %+v and %+v", s.fp, rep.Fingerprint)
		}
		for _, res := range rep.Results {
			if res.Traced {
				continue
			}
			if first[res.Workload] == nil {
				first[res.Workload] = res
			}
			switch {
			case res.Smoke:
				s.problems[res.Workload] = "a smoke run is too short to compare"
			case !res.Correct:
				s.problems[res.Workload] = "a run failed its output checks"
			case res.Seconds != first[res.Workload].Seconds || res.Clients != first[res.Workload].Clients:
				s.problems[res.Workload] = "runs of different length or client count"
			}
			if runs[res.Workload] == nil {
				runs[res.Workload] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				runs[res.Workload][name] = append(runs[res.Workload][name], m.Value)
			}
		}
	}
	for w, metrics := range runs {
		s.values[w] = map[string]float64{}
		for name, vs := range metrics {
			s.values[w][name] = median(vs)
		}
	}
	return s
}

// host is the part of a fingerprint two results must share to be compared.
// Seed and commit may differ: comparing two seeds, or a change with its
// parent, is the point.
func (f fingerprint) host() fingerprint {
	f.Seed, f.Commit = 0, ""
	return f
}

// compareMain prints, per workload and end-to-end metric, both sides'
// values (the median where a side is several runs), the change and the
// bound, and returns 1 if B is worse than A by more than a bound or the two
// sides were not taken under comparable conditions.
func compareMain(args []string, specPath string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "benchmark: -compare takes two results, each one -out file or several joined by commas")
		return 2
	}
	data, err := os.ReadFile(specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", specPath, err)
		return 2
	}
	var sides [2]side
	for i, arg := range args {
		reps, err := loadReports(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 2
		}
		sides[i] = reduce(reps)
	}
	a, b := sides[0], sides[1]

	bad := 0
	if a.fp.host() != b.fp.host() {
		fmt.Printf("FINGERPRINT MISMATCH: %+v vs %+v\n", a.fp, b.fp)
		bad++
	}
	fmt.Printf("A: %s (seed %d, commit %s)\nB: %s (seed %d, commit %s)\n", args[0], a.fp.Seed, a.fp.Commit, args[1], b.fp.Seed, b.fp.Commit)
	fmt.Printf("%-16s %-24s %14s %14s %9s %7s\n", "workload", "metric", "A", "B", "change", "bound")
	for _, w := range spec.Workloads {
		for _, s := range sides {
			for _, key := range []string{"", w.Name} {
				if p, ok := s.problems[key]; ok {
					fmt.Printf("%-16s not comparable: %s\n", w.Name, p)
					bad++
				}
			}
		}
		va, vb := a.values[w.Name], b.values[w.Name]
		if va == nil || vb == nil {
			fmt.Printf("%-16s missing from a result\n", w.Name)
			bad++
			continue
		}
		for _, m := range spec.EndToEnd {
			x, y := va[m.Name], vb[m.Name]
			worse := y - x // positive when a lower-is-better metric got worse
			if m.Better == "higher" {
				worse = x - y
			}
			verdict := ""
			if x == 0 || worse > m.Bound*math.Abs(x) {
				verdict = "  BREACH"
				bad++
			}
			fmt.Printf("%-16s %-24s %14.4f %14.4f %+8.2f%% %6.1f%%%s\n",
				w.Name, m.Name, x, y, 100*ratio(y-x, x), 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("%d problem(s)\n", bad)
		return 1
	}
	fmt.Println("every metric within its bound")
	return 0
}
