package udptransport

// BenchmarkLossyConfigFetch records the ARQ layer's retransmit overhead:
// a five-chunk configuration fetch over real loopback UDP at 0%, 10% and
// 20% simulated control-path loss. The interesting metrics are ns/op
// (latency cost of recovery) and retransmits/op (wire cost of recovery).

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"testing"
	"time"

	"endbox/internal/core"
	"endbox/internal/netsim"
)

func benchARQCfg() RetransmitConfig {
	return RetransmitConfig{
		Timeout:    20 * time.Millisecond,
		Backoff:    1.5,
		MaxRetries: 12,
		AckDelay:   5 * time.Millisecond,
	}
}

func BenchmarkLossyConfigFetch(b *testing.B) {
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		b.Fatal(err)
	}
	blob := fiveChunkBlob()
	for _, loss := range []float64{0, 0.10, 0.20} {
		b.Run(fmt.Sprintf("loss=%.0f%%", loss*100), func(b *testing.B) {
			ep := &fakeEndpoint{caPub: pub, blob: blob}
			tr := NewTransport("127.0.0.1:0")
			tr.SetRetransmit(benchARQCfg())
			if loss > 0 {
				tr.SetLossProfile(core.LossProfile{Drop: loss, Seed: 42})
			}
			if err := tr.BindServer(ep); err != nil {
				b.Fatal(err)
			}
			defer tr.Close()

			ctx := context.Background()
			opts := []DialOption{LinkRetransmit(benchARQCfg())}
			if loss > 0 {
				opts = append(opts, LinkSendFilter(netsim.NewFaults(43, loss, 0, 0).Filter))
			}
			link, err := Dial(ctx, tr.Addr(), opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer link.Close()

			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := link.FetchConfig(ctx, 1)
				if err != nil {
					b.Fatalf("fetch %d: %v (server %+v, link %+v)", i, err, tr.ARQStats(), link.ARQStats())
				}
				if len(got) != len(blob) {
					b.Fatalf("fetch %d: %d bytes, want %d", i, len(got), len(blob))
				}
			}
			b.StopTimer()
			srv := tr.ARQStats()
			cli := link.ARQStats()
			n := float64(b.N)
			b.ReportMetric(float64(srv.SegmentsSent)/n, "segs/op")
			b.ReportMetric(float64(srv.Retransmits+srv.FastRetransmit+cli.Retransmits+cli.FastRetransmit)/n, "retrans/op")
			b.ReportMetric(float64(srv.AcksSent+cli.AcksSent)/n, "acks/op")
			b.SetBytes(int64(len(blob)))
		})
	}
}
