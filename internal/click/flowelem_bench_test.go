package click

import (
	"testing"

	"endbox/internal/packet"
)

// BenchmarkFlowPipelines1500 is the end-to-end cost of the stateful
// elements on 1500-byte established-connection traffic: both pipelines
// must stay at 0 allocs/op — flow tracking rides the packet path for free
// (TestPipelinesAllocateNothing).
func BenchmarkFlowPipelines1500(b *testing.B) {
	configs := []struct {
		name string
		cfg  string
	}{
		{"ConnTrack", "FromDevice -> ct :: ConnTrack -> ToDevice;"},
		{"ConnTrack+Shaper",
			"FromDevice -> ct :: ConnTrack -> sh :: FlowRateLimit(RATE 100G, BURST 4000000000) -> ToDevice;"},
	}
	cli, srv := packet.MustParseAddr("10.8.0.2"), packet.MustParseAddr("10.8.0.1")
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			inst, err := NewInstance(c.cfg, nil, nil)
			if err != nil {
				b.Fatal(err)
			}
			// Establish the connection so strict conntrack admits the
			// measured data segments.
			for _, raw := range [][]byte{
				packet.NewTCP(cli, srv, 40000, 80, 100, 0, packet.TCPSyn, nil),
				packet.NewTCP(srv, cli, 80, 40000, 300, 101, packet.TCPSyn|packet.TCPAck, nil),
				packet.NewTCP(cli, srv, 40000, 80, 101, 301, packet.TCPAck, nil),
			} {
				ip, err := packet.ParseIPv4(raw)
				if err != nil {
					b.Fatal(err)
				}
				if res := inst.Process(ip); !res.Accepted {
					b.Fatalf("handshake dropped by %s", res.DroppedBy)
				}
			}
			// 20 IP + 20 TCP + 1460 payload = 1500 bytes on the wire.
			raw := packet.NewTCP(cli, srv, 40000, 80, 101, 301, packet.TCPAck, make([]byte, 1460))
			var ip packet.IPv4
			if err := ip.Parse(raw); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := inst.Process(&ip); !res.Accepted {
					b.Fatalf("packet dropped by %s", res.DroppedBy)
				}
			}
		})
	}
}
