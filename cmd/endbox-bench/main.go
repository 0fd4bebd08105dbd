// Command endbox-bench regenerates every table and figure of the EndBox
// paper's evaluation (DSN'18, §V). Each experiment prints the same rows or
// series the paper reports, plus notes recording the workload parameters
// and the shape checks against the paper's numbers.
//
// Usage:
//
//	endbox-bench                     # run everything
//	endbox-bench -experiment fig8    # one experiment
//	endbox-bench -list               # list experiment names
//	endbox-bench -packets 5000       # longer wall-clock measurements
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"endbox/internal/bench"
	"endbox/internal/scenario"
)

// runScenario runs one trace-driven scenario from the matrix and prints
// its Result as JSON.
func runScenario(spec, transport string) error {
	if spec == "list" {
		for _, name := range scenario.Names() {
			s, _ := scenario.Lookup(name)
			fmt.Printf("%-16s %s\n", name, s.Description)
		}
		return nil
	}
	res, err := scenario.Run(spec, transport)
	if err != nil {
		return err
	}
	out, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// experiment couples a name with its runner.
type experiment struct {
	name  string
	about string
	run   func(cfg runConfig) (*bench.Table, error)
}

type runConfig struct {
	packets    int
	iterations int
	model      *bench.CostModel // latency models (fig6, fig7)
	simModel   *bench.CostModel // cluster simulations (fig10)
}

func experiments() []experiment {
	return []experiment{
		{"fig6", "HTTP page-load CDF, direct vs EndBox", func(c runConfig) (*bench.Table, error) {
			return bench.Fig6(c.model)
		}},
		{"fig7", "ping RTT by redirection method", func(c runConfig) (*bench.Table, error) {
			return bench.Fig7(c.model)
		}},
		{"fig8", "throughput vs packet size, 4 set-ups", func(c runConfig) (*bench.Table, error) {
			return bench.Fig8(c.packets)
		}},
		{"fig9", "use-case throughput at 1500 B", func(c runConfig) (*bench.Table, error) {
			return bench.Fig9(c.packets)
		}},
		{"fig10a", "scalability, NOP, 4 deployments", func(c runConfig) (*bench.Table, error) {
			return bench.Fig10a(c.simModel, nil)
		}},
		{"fig10b", "scalability, 5 use cases", func(c runConfig) (*bench.Table, error) {
			return bench.Fig10b(c.simModel, nil)
		}},
		{"fig11", "ping latency across a config update", func(c runConfig) (*bench.Table, error) {
			return bench.Fig11()
		}},
		{"table1", "HTTPS GET latency by TLS configuration", func(c runConfig) (*bench.Table, error) {
			return bench.Table1(c.iterations)
		}},
		{"table2", "configuration update phase timings", func(c runConfig) (*bench.Table, error) {
			return bench.Table2(c.iterations * 4)
		}},
		{"opt-transitions", "ablation: ecall batching (§V-G)", func(c runConfig) (*bench.Table, error) {
			return bench.OptTransitions(c.packets)
		}},
		{"opt-isp", "ablation: integrity-only channel (§V-G)", func(c runConfig) (*bench.Table, error) {
			return bench.OptISP(c.packets)
		}},
		{"opt-c2c", "ablation: client-to-client flagging (§V-G)", func(c runConfig) (*bench.Table, error) {
			return bench.OptC2C(c.iterations * 6)
		}},
	}
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "endbox-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("endbox-bench", flag.ContinueOnError)
	var (
		name       = fs.String("experiment", "all", "experiment to run (see -list)")
		packets    = fs.Int("packets", 2000, "packets per wall-clock throughput measurement")
		iterations = fs.Int("iterations", 50, "iterations per latency measurement")
		list       = fs.Bool("list", false, "list experiments and exit")
		calibrated = fs.Bool("calibrated", false, "drive the Fig. 10 cluster simulation with costs measured live on this host instead of the paper-derived costs")
		memstats   = fs.Bool("memstats", true, "report per-experiment allocation counts (allocs/op against -packets) and GC pause totals")
		scenSpec   = fs.String("scenario", "", "run one end-to-end scenario instead of a paper experiment: a spec like 'ddos-flood:syn=2000,capacity=512' ('list' prints the matrix); result is one JSON object")
		transport  = fs.String("transport", scenario.TransportInProcess, "scenario transport: inprocess (direct calls) or udp (real sockets)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *scenSpec != "" {
		return runScenario(*scenSpec, *transport)
	}

	exps := experiments()
	if *list {
		for _, e := range exps {
			fmt.Printf("%-16s %s\n", e.name, e.about)
		}
		return nil
	}

	selected := exps
	if *name != "all" {
		selected = nil
		for _, e := range exps {
			if e.name == *name {
				selected = []experiment{e}
				break
			}
		}
		if selected == nil {
			var names []string
			for _, e := range exps {
				names = append(names, e.name)
			}
			sort.Strings(names)
			return fmt.Errorf("unknown experiment %q (have: %s)", *name, strings.Join(names, ", "))
		}
	}

	needsModel := false
	for _, e := range selected {
		switch e.name {
		case "fig6", "fig7", "fig10a", "fig10b":
			needsModel = true
		}
	}
	cfg := runConfig{packets: *packets, iterations: *iterations}
	if needsModel {
		fmt.Fprintln(os.Stderr, "calibrating cost model from live micro-measurements...")
		m, err := bench.Calibrate()
		if err != nil {
			return err
		}
		cfg.model = m
		cfg.simModel = bench.PaperCostModel()
		if *calibrated {
			cfg.simModel = m
		}
	}

	for _, e := range selected {
		var before runtime.MemStats
		if *memstats {
			runtime.ReadMemStats(&before)
		}
		tab, err := e.run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		tab.Render(os.Stdout)
		if *memstats {
			var after runtime.MemStats
			runtime.ReadMemStats(&after)
			renderMemStats(os.Stdout, e.name, &before, &after, *packets)
		}
	}
	return nil
}

// renderMemStats prints the allocation and GC footprint one experiment
// left behind: total heap allocations, allocs per packet (the experiment's
// wall-clock op), and the GC pause time the run accumulated — the numbers
// the zero-allocation packet path exists to keep near zero.
func renderMemStats(w *os.File, name string, before, after *runtime.MemStats, packets int) {
	mallocs := after.Mallocs - before.Mallocs
	bytes := after.TotalAlloc - before.TotalAlloc
	gcs := after.NumGC - before.NumGC
	pause := after.PauseTotalNs - before.PauseTotalNs
	perOp := float64(mallocs)
	if packets > 0 {
		perOp = float64(mallocs) / float64(packets)
	}
	fmt.Fprintf(w, "[mem] %s: %d allocs (%.1f allocs/op at %d ops), %.1f MB allocated, %d GCs, %.2f ms GC pause\n\n",
		name, mallocs, perOp, packets, float64(bytes)/(1<<20), gcs, float64(pause)/1e6)
}
