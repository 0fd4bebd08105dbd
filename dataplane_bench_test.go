package endbox

// The batched ingress benchmark mirrors BenchmarkBatchSend for the receive
// direction. The repo benchmark (benchmark/) is what judges changes — its
// goodput_mbps, join_ms_p50, resume_ms_p50 and churn_allocs_per_op replaced
// the throughput and churn go-benchmarks that used to live here; this is
// for looking at one path in isolation.

import (
	"context"
	"testing"

	"endbox/internal/packet"
	"endbox/mbox"
)

// BenchmarkBatchIngress compares per-frame and batched frame handling on a
// hardware-mode client, where each saved enclave transition is real time —
// the ingress mirror of BenchmarkBatchSend.
func BenchmarkBatchIngress(b *testing.B) {
	const burst = 32
	for _, batched := range []bool{false, true} {
		name := "HandleFrame"
		if batched {
			name = "HandleFrames"
		}
		b.Run(name, func(b *testing.B) {
			ct := &captureTransport{Transport: NewInProcessTransport()}
			d, err := New(WithTransport(ct))
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			cli, err := d.AddClient(context.Background(), "bench", ClientSpec{
				Mode:     ModeHardware,
				BurnCPU:  true,
				Pipeline: mbox.Stock(UseCaseNOP),
			})
			if err != nil {
				b.Fatal(err)
			}
			// Capture a sealed burst once; replay protection is per-frame
			// nonce-window based, so re-opening the same frames each
			// iteration would be rejected — instead seal fresh bursts
			// inside the loop but keep the sealing cost out of the
			// measured path via StopTimer/StartTimer.
			ip := packet.NewUDP(packet.AddrFrom(192, 0, 2, 1), packet.AddrFrom(10, 8, 0, 2),
				80, 40000, []byte("ingress-burst-payload"))
			b.ReportAllocs()
			b.SetBytes(burst * int64(len(ip)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ct.mu.Lock()
				ct.capture = true
				ct.mu.Unlock()
				for j := 0; j < burst; j++ {
					if err := d.Server.VPN().SendTo("bench", ip, false); err != nil {
						b.Fatal(err)
					}
				}
				frames := ct.take()
				b.StartTimer()
				if batched {
					if n, err := cli.HandleFrames(frames); err != nil || n != burst {
						b.Fatalf("HandleFrames = %d, %v", n, err)
					}
				} else {
					for _, f := range frames {
						if err := cli.HandleFrame(f); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}
