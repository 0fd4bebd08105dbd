package click

import (
	"testing"

	"endbox/internal/idps"
	"endbox/internal/packet"
)

// BenchmarkContainedPipelines1500 is BenchmarkUseCasePipelines1500 with
// fault containment armed (Context.Failure.Contain), the configuration
// every Deployment now runs by default. The containment design puts its
// entire cost off the happy path — a recover() at the Process boundary
// and quarantine gates that are only spliced into the graph after a trip
// — so this must stay 0 allocs/op and within a few percent of the
// uncontained baseline (TestPipelinesAllocateNothing pins the allocations).
func BenchmarkContainedPipelines1500(b *testing.B) {
	ctx := &Context{
		RuleSet: func(string) (string, error) {
			return idps.GenerateRuleSet(idps.CommunityRuleCount, 2018), nil
		},
		Failure: FailurePolicy{Contain: true},
	}
	raw := packet.NewUDP(packet.MustParseAddr("10.8.0.2"), packet.MustParseAddr("10.8.0.1"),
		40000, 5201, make([]byte, 1472))
	for _, uc := range AllUseCases {
		b.Run(uc.String(), func(b *testing.B) {
			inst, err := NewInstance(stockConfig(b, uc), nil, ctx)
			if err != nil {
				b.Fatal(err)
			}
			var ip packet.IPv4
			if err := ip.Parse(raw); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := inst.Process(&ip); !res.Accepted {
					b.Fatalf("packet dropped by %s", res.DroppedBy)
				}
			}
		})
	}
}
