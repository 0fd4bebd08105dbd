package flow

import (
	"testing"
	"time"

	"endbox/internal/packet"
)

// BenchmarkFlowTable measures the flow engine's core costs: steady-state
// lookup of a live flow, and insert with entry recycling through the churn
// path. Both must stay at 0 allocs/op (TestBindSteadyStateAllocs).
func BenchmarkFlowTable(b *testing.B) {
	b.Run("lookup", func(b *testing.B) {
		clk := newFakeClock()
		c := NewContext(clk.Config(4096, time.Minute))
		flows := make([]packet.Flow, 1024)
		for i := range flows {
			flows[i] = tuple("10.1.0.1", "10.0.0.1", uint16(i), uint16(80+i%13), packet.ProtoTCP)
			c.Bind(flows[i], 60)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Bind(flows[i&1023], 60)
		}
	})
	b.Run("insert", func(b *testing.B) {
		clk := newFakeClock()
		c := NewContext(clk.Config(1024, time.Minute))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Distinct tuples force inserts; at capacity every insert
			// recycles an evicted entry — the steady churn state.
			f := tuple("10.1.0.1", "10.0.0.1", uint16(i), uint16(i>>16), packet.ProtoTCP)
			clk.Advance(time.Microsecond)
			c.Bind(f, 60)
		}
	})
}
