// Lossy: EndBox on a bad network. The deployment runs over real UDP
// sockets with deterministic simulated impairment — 15% of control-path
// datagrams dropped, some duplicated, some reordered — and still
// attests its client, hands out the boot configuration, and completes a
// live multi-chunk configuration rollout: the transport's selective-repeat
// ARQ layer retransmits exactly what the network sheds
// (docs/PROTOCOL.md §5).
//
// Data-channel frames are deliberately NOT protected: they are
// fire-and-forget like the packets they tunnel, so the zero-allocation
// data path stays untouched.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"endbox"
	"endbox/internal/idps"
	"endbox/internal/packet"
	"endbox/internal/udptransport"
	"endbox/mbox"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A UDP deployment with a hostile control path: the loss profile is
	// seeded, so this demo impairs the same datagrams every run.
	transport := endbox.NewUDPTransport("127.0.0.1:0")
	deployment, err := endbox.New(
		endbox.WithTransport(transport),
		endbox.WithEchoNetwork(),
		endbox.WithRetransmit(endbox.RetransmitConfig{
			Timeout:    50 * time.Millisecond, // LAN-ish RTO for the demo
			MaxRetries: 10,
		}),
		endbox.WithLossProfile(endbox.LossProfile{
			Drop:      0.15,
			Duplicate: 0.05,
			Reorder:   0.05,
			Seed:      2018,
		}),
	)
	if err != nil {
		return err
	}
	defer deployment.Close()
	fmt.Printf("server on %s with 15%% drop / 5%% dup / 5%% reorder on every control datagram\n", transport.Addr())

	// The whole join sequence — registration, attestation, enrolment,
	// VPN handshake — crosses the lossy wire reliably.
	client, err := deployment.AddClient(ctx, "flaky-laptop", endbox.ClientSpec{
		Mode:     endbox.ModeSimulation,
		Pipeline: mbox.Stock(endbox.UseCaseFW),
	})
	if err != nil {
		return fmt.Errorf("join over lossy control path: %w", err)
	}
	fmt.Println("client attested, enrolled and connected through the loss")

	// Traffic flows normally: data frames skip the impairment (and the
	// ARQ) by design.
	pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 10), 40000, 80, []byte("hello"))
	if err := client.SendPacket(pkt); err != nil {
		return err
	}
	fmt.Println("tunnelled packet delivered")

	// A rule-set update big enough to span many configuration chunks
	// (~330 kB -> six 60 kB chunks): before the ARQ layer, ONE lost
	// chunk failed the whole fetch after a 5s timeout.
	update := endbox.Rollout{
		Version:      2,
		GraceSeconds: 60,
		Pipeline:     mbox.Stock(endbox.UseCaseFW),
		RuleSets:     map[string]string{"community": idps.GenerateRuleSet(2000, 7)},
	}
	if _, err := deployment.Rollout(ctx, update); err != nil {
		return err
	}
	blob, err := deployment.Server.Configs().Fetch(2)
	if err != nil {
		return err
	}
	chunks := (len(blob) + udptransport.ChunkPayload - 1) / udptransport.ChunkPayload
	fmt.Printf("published v2: %d-byte sealed blob = %d chunks over the lossy wire\n", len(blob), chunks)

	deadline := time.Now().Add(45 * time.Second)
	for client.AppliedVersion() != 2 {
		if time.Now().After(deadline) {
			return fmt.Errorf("client stuck at v%d: %v", client.AppliedVersion(), client.LastUpdateError())
		}
		if err := deployment.Server.BroadcastPing(); err != nil { // periodic keepalive re-announces
			return err
		}
		time.Sleep(50 * time.Millisecond)
	}
	fmt.Println("client hot-swapped to v2 despite the loss")

	st := transport.ARQStats()
	fmt.Printf("server ARQ: %d transfers, %d segments sent, %d retransmitted (%d fast), %d acks, %d duplicate segments absorbed\n",
		st.TransfersSent, st.SegmentsSent, st.Retransmits+st.FastRetransmit, st.FastRetransmit, st.AcksSent, st.DupSegments)
	return nil
}
