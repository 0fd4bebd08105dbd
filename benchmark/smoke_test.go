package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"endbox"
	"endbox/internal/core"
)

// declared reads the metric and workload names BENCHMARK.json promises.
func declared(t *testing.T) (workloadNames, endToEnd, perLayer []string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloadNames = append(workloadNames, w.Name)
	}
	for _, m := range spec.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range spec.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	return workloadNames, endToEnd, perLayer
}

var nameShape = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload for 300 ms, untraced and traced, and checks
// that each run is correct, fails no operation, and reports exactly the
// metrics BENCHMARK.json declares, each finite and well named.
func TestSmoke(t *testing.T) {
	names, endToEnd, perLayer := declared(t)
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(names), len(workloads))
	}
	for _, name := range names {
		w, ok := workloadByName(name)
		if !ok {
			t.Fatalf("BENCHMARK.json declares unknown workload %q", name)
		}
		for _, traced := range []bool{false, true} {
			want, run, label := endToEnd, runUntraced, name+"/untraced"
			if traced {
				want, run, label = perLayer, runTraced, name+"/traced"
			}
			t.Run(label, func(t *testing.T) {
				res, err := run(w, runOptions{seed: 1, seconds: 0.3, smoke: true, traceDir: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				for _, c := range res.Checks {
					// 300 ms of a 2-core host cannot hold the ledger
					// reconciliation; every other check must.
					if !c.OK && c.Name != "ledger-reconciles" {
						t.Errorf("check %s failed: %s", c.Name, c.Detail)
					}
				}
				if res.Failed != 0 || res.Attempted == 0 {
					t.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
				}
				if !res.Smoke {
					t.Error("a smoke run must be marked as not comparable")
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("run reports %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m)
					case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
						t.Errorf("metric %s = %v", m, got.Value)
					case !traced && got.Value == 0:
						t.Errorf("end-to-end metric %s is zero", m)
					}
					if !nameShape.MatchString(m) {
						t.Errorf("metric name %q has characters outside letters, digits, _ . -", m)
					}
				}
			})
		}
	}
}

// TestSeedDeterminesInputs pins the -seed plumbing: one seed, one packet
// stream; another seed, another stream.
func TestSeedDeterminesInputs(t *testing.T) {
	for _, w := range workloads {
		digest := func(seed int64) string {
			in, err := generateInputs(w, seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			return in.digest()
		}
		if a, b := digest(1), digest(1); a != b {
			t.Errorf("%s: seed 1 gave two different packet streams", w.name)
		}
		if a, b := digest(1), digest(2); a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same packet stream", w.name)
		}
	}
}

// TestTracedRunTakesSamePath drives the same fixed number of operations
// through an untraced and a traced deployment of every workload. Both must
// deliver the same packets, and on the in-process transport with exactly the
// same number of enclave calls. (Over UDP the client opens echoes in whatever
// batches the socket hands over, so only the packet count is fixed there.)
func TestTracedRunTakesSamePath(t *testing.T) {
	const ops = 66
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := generateInputs(w, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			run := func(tr *tracer) dataWindow {
				e, err := buildEnv(w, in, tr)
				if err != nil {
					t.Fatal(err)
				}
				defer e.close()
				if tr != nil {
					tr.on.Store(true)
				}
				win := e.runGenerators(0, 0, ops, nil)
				for _, c := range e.clients {
					if c.failed != 0 || c.doubleDriven.Load() != 0 {
						t.Errorf("client %s: %d failed operations, %d operations found the client already driven", c.id, c.failed, c.doubleDriven.Load())
					}
				}
				return win
			}
			bare, traced := run(nil), run(newTracer(!w.udp))
			if bare.packets == 0 || bare.packets != traced.packets {
				t.Errorf("untraced run completed %d packets, traced run %d", bare.packets, traced.packets)
			}
			if !w.udp && bare.ecalls != traced.ecalls {
				t.Errorf("untraced run made %d enclave calls, traced run %d", bare.ecalls, traced.ecalls)
			}
		})
	}
}

// TestTracedLinkKeepsCapabilities checks that a link decorated for tracing
// answers the deployment's type assertions exactly as the bare link does.
func TestTracedLinkKeepsCapabilities(t *testing.T) {
	type caps struct{ control, resume, batch bool }
	of := func(l endbox.ClientLink) caps {
		_, c := l.(core.ControlLink)
		_, r := l.(core.ResumeLink)
		_, b := l.(core.BatchClientLink)
		return caps{c, r, b}
	}
	for _, name := range []string{"in-process", "udp"} {
		newTransport := func() endbox.Transport {
			if name == "udp" {
				return &heldTransport{Transport: endbox.NewUDPTransport("127.0.0.1:0")}
			}
			return endbox.NewInProcessTransport()
		}
		link := func(transport endbox.Transport) caps {
			d, err := endbox.New(endbox.WithTransport(transport))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			l, err := transport.Link(context.Background(), "c0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			return of(l)
		}
		tr := newTracer(name != "udp")
		tr.client("c0", 0)
		bare, traced := link(newTransport()), link(&tracedTransport{inner: newTransport(), tr: tr})
		if bare != traced {
			t.Errorf("%s: bare link has capabilities %+v, traced link %+v", name, bare, traced)
		}
		for _, tt := range []struct {
			iface string
			ok    bool
		}{
			{"WorkerTransport", implements[core.WorkerTransport](&tracedTransport{})},
			{"ReliableTransport", implements[core.ReliableTransport](&tracedTransport{})},
			{"LossyTransport", implements[core.LossyTransport](&tracedTransport{})},
		} {
			if !tt.ok {
				t.Errorf("tracedTransport does not forward %s", tt.iface)
			}
		}
	}
}

func implements[T any](v any) bool {
	_, ok := v.(T)
	return ok
}
