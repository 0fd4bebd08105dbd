package endbox

// End-to-end loss tolerance through the public facade: a UDP deployment
// with WithLossProfile impairment on every control-path datagram must
// still attest clients, hand out multi-chunk configurations and complete
// a live configuration rollout — the ARQ layer (WithRetransmit) recovers
// what the simulated network sheds. CI runs the TestLossy pattern as a
// dedicated -race job.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"endbox/internal/idps"
	"endbox/internal/packet"
	"endbox/internal/udptransport"
	"endbox/mbox"
)

// lossyRetransmit is tuned for test time: tight timers, generous budget.
func lossyRetransmit() RetransmitConfig {
	return RetransmitConfig{
		Timeout:    25 * time.Millisecond,
		Backoff:    1.5,
		MaxRetries: 10,
		AckDelay:   10 * time.Millisecond,
	}
}

// TestLossyDeploymentConfigPublish is the end-to-end acceptance scenario:
// attestation, enrolment and handshake over a 15%-lossy control path,
// then a configuration publish whose sealed blob spans at least five
// chunks, hot-swapped by the client within the retry budget.
func TestLossyDeploymentConfigPublish(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	transport := NewUDPTransport("127.0.0.1:0")
	d, err := New(
		WithTransport(transport),
		WithEchoNetwork(),
		WithRetransmit(lossyRetransmit()),
		WithLossProfile(LossProfile{Drop: 0.15, Duplicate: 0.05, Reorder: 0.05, Seed: 77}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// The whole join sequence — registration, quote, provisioning,
	// handshake — crosses the lossy wire.
	cli, err := d.AddClient(ctx, "lossy-laptop", ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseFW)})
	if err != nil {
		t.Fatalf("AddClient over 15%% loss: %v", err)
	}

	// Traffic still flows (data frames are fire-and-forget and unimpaired
	// by design — reliability and loss injection are control-path only).
	pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 40000, 80, []byte("hi"))
	if err := cli.SendPacket(pkt); err != nil {
		t.Fatalf("SendPacket: %v", err)
	}

	// A rule set big enough that the sealed blob spans >= 5 chunks.
	update := Rollout{
		Version:      3,
		GraceSeconds: 60,
		Pipeline:     mbox.Stock(UseCaseFW),
		RuleSets:     map[string]string{"community": idps.GenerateRuleSet(2000, 7)},
	}
	if _, err := d.Rollout(ctx, update); err != nil {
		t.Fatalf("Rollout: %v", err)
	}
	blob, err := d.Server.Configs().Fetch(3)
	if err != nil {
		t.Fatal(err)
	}
	if chunks := (len(blob) + udptransport.ChunkPayload - 1) / udptransport.ChunkPayload; chunks < 5 {
		t.Fatalf("sealed blob spans %d chunks (%d bytes), want >= 5 — grow the rule set", chunks, len(blob))
	}

	// The announce ping pushes the version; the client fetches the blob
	// over the lossy control path and hot-swaps it in the enclave.
	deadline := time.Now().Add(45 * time.Second)
	for cli.AppliedVersion() != 3 {
		if time.Now().After(deadline) {
			t.Fatalf("client never applied v3 (at v%d, last error: %v, link?: %+v)",
				cli.AppliedVersion(), cli.LastUpdateError(), transport.ARQStats())
		}
		// Re-announce on the keepalive, like a real server's periodic ping.
		if err := d.Server.BroadcastPing(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cli.LastUpdateError(); err != nil {
		t.Fatalf("update error after successful swap: %v", err)
	}

	// The wire was genuinely lossy and the server genuinely retransmitted
	// configuration chunks to get the update through.
	st := transport.ARQStats()
	if st.TransfersSent == 0 || st.SegmentsSent == 0 {
		t.Errorf("server ARQ idle during a lossy rollout: %+v", st)
	}
	t.Logf("server ARQ after lossy rollout: %+v", st)
}

// TestLossyDeploymentManyClients joins several clients concurrently over
// the impaired control path — the reliability layer must keep per-peer
// state apart.
func TestLossyDeploymentManyClients(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	d, err := New(
		WithTransport(NewUDPTransport("127.0.0.1:0")),
		WithRetransmit(lossyRetransmit()),
		WithLossProfile(LossProfile{Drop: 0.10, Duplicate: 0.05, Seed: 99}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const n = 4
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := d.AddClient(ctx, fmt.Sprintf("lossy-%d", i), ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)})
			errs <- err
		}(i)
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("concurrent AddClient under loss: %v", err)
		}
	}
	stats := d.AggregateStats()
	_ = stats // liveness: the deployment stays usable
	if _, ok := d.Client("lossy-0"); !ok {
		t.Error("client lost after lossy join")
	}
}
