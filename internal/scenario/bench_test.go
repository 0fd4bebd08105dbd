package scenario

import (
	"testing"
)

// The scenario benchmarks run each named workload end to end — deployment
// build, traffic, mid-run perturbations, collection — over the in-process
// transport (deterministic allocation counts, no socket noise). One op is
// one full scenario run at registered defaults; SetBytes turns the played
// traffic into an MB/s figure:
//
//	go test -run xxx -bench BenchmarkScenario -benchtime 1x -benchmem ./internal/scenario/
func benchScenario(b *testing.B, spec string) {
	b.ReportAllocs()
	var last *Result
	for i := 0; i < b.N; i++ {
		res, err := Run(spec, TransportInProcess)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.SetBytes(int64(last.Bytes))
	b.ReportMetric(float64(last.Packets), "packets/op")
	b.ReportMetric(float64(last.Dropped), "dropped/op")
	b.ReportMetric(float64(last.Shed), "shed/op")
	b.ReportMetric(float64(last.Alerts), "alerts/op")
	b.ReportMetric(float64(last.FlowsEvicted), "flowevict/op")
}

func BenchmarkScenarioEnterpriseTLS(b *testing.B) { benchScenario(b, "enterprise-tls") }
func BenchmarkScenarioIDPSAtScale(b *testing.B)   { benchScenario(b, "idps-at-scale") }
func BenchmarkScenarioDDoSFlood(b *testing.B)     { benchScenario(b, "ddos-flood") }
func BenchmarkScenarioMixedCohort(b *testing.B)   { benchScenario(b, "mixed-cohort") }

func BenchmarkScenarioVersionedFleet(b *testing.B) { benchScenario(b, "versioned-fleet") }
