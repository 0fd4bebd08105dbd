package endbox

// Benchmarks for the sharded, pipelined server data plane at 1/8/64
// clients; the batched ingress benchmark mirrors BenchmarkBatchSend for the
// receive direction. The repo benchmark (benchmark/) is what judges
// changes; these are for looking at one path in isolation.

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"

	"endbox/internal/packet"
	"endbox/mbox"
)

// benchDeployment builds a deployment with n connected NOP clients.
func benchDeployment(b *testing.B, clients int, opts ...Option) (*Deployment, []*Client) {
	b.Helper()
	d, err := New(opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(d.Close)
	cls := make([]*Client, clients)
	for i := range cls {
		cli, err := d.AddClient(context.Background(), fmt.Sprintf("bench-%d", i),
			ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)})
		if err != nil {
			b.Fatal(err)
		}
		cls[i] = cli
	}
	return d, cls
}

// BenchmarkDataPlaneThroughput measures the client->network path with many
// clients sending lone packets concurrently over the sharded session
// table. Each goroutine is pinned to one client, so the measured contention
// is the server's: session lookup, statistics and policy — exactly what
// the sharding attacks.
func BenchmarkDataPlaneThroughput(b *testing.B) {
	for _, clients := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("sharded/clients=%d", clients), func(b *testing.B) {
			_, cls := benchDeployment(b, clients, withShards(16))
			pkt := testPacket(1500)
			var next atomic.Int64
			b.ReportAllocs()
			b.SetBytes(1500)
			b.SetParallelism(clients) // >= one goroutine per client even on 1 CPU
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				cli := cls[int(next.Add(1)-1)%clients]
				for pb.Next() {
					if err := cli.SendPacket(pkt); err != nil {
						b.Error(err)
						return
					}
				}
			})
		})
	}
}

// BenchmarkDataPlanePath drives the shipped data plane (sharded session
// table, one ecall per 32-packet burst) on hardware-mode clients, where
// every enclave transition is real CPU time.
func BenchmarkDataPlanePath(b *testing.B) {
	const batchSize = 32
	for _, clients := range []int{8, 64} {
		for _, cfg := range []struct {
			name      string
			conntrack bool
		}{
			{"sharded+batched", false},
			// The stateful variant shows what flow tracking in the
			// in-enclave pipeline adds (TestBatchedBurstAllocs pins that it
			// adds no allocations).
			{"sharded+batched+conntrack", true},
		} {
			b.Run(fmt.Sprintf("%s/clients=%d", cfg.name, clients), func(b *testing.B) {
				d, err := New(withShards(16))
				if err != nil {
					b.Fatal(err)
				}
				defer d.Close()
				cls := make([]*Client, clients)
				for i := range cls {
					spec := ClientSpec{Mode: ModeHardware, BurnCPU: true, Pipeline: mbox.Stock(UseCaseNOP)}
					if cfg.conntrack {
						spec.Pipeline = mbox.Chain(mbox.ConnTrack(mbox.ConnTrackOptions{}))
					}
					cli, err := d.AddClient(context.Background(), fmt.Sprintf("hw-%d", i), spec)
					if err != nil {
						b.Fatal(err)
					}
					cls[i] = cli
				}
				batch := make([][]byte, batchSize)
				for i := range batch {
					batch[i] = testPacket(1500)
				}
				var next atomic.Int64
				b.ReportAllocs()
				b.SetBytes(batchSize * 1500)
				b.SetParallelism(clients)
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					cli := cls[int(next.Add(1)-1)%clients]
					for pb.Next() {
						if _, err := cli.SendPackets(batch); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	}
}

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
