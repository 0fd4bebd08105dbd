package endbox

// End-to-end chaos suite through the public facade over the UDP
// transport: a canary rollout of a configuration whose element panics
// under live traffic must be detected via sealed health reports and
// auto-rolled-back to the last-known-good configuration, without crashing
// any client or the server; and injected datagram corruption must surface
// as authentication failures recovered by the ARQ layer, never as garbage
// frames. CI runs the TestChaos pattern as a dedicated seeded -race job.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"endbox/internal/netsim"
	"endbox/internal/packet"
	"endbox/mbox"
)

// TestChaosCanaryAutoRollbackUDP is the acceptance scenario on the real
// wire: four clients join over UDP, a canary of a config that panics on
// the 3rd packet is staged to half of them, live traffic trips the
// quarantine, and the cohort converges back onto last-known-good content
// while the rest of the fleet never sees the bad version.
func TestChaosCanaryAutoRollbackUDP(t *testing.T) {
	netsim.RegisterFaulty()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	transport := NewUDPTransport("127.0.0.1:0")
	d, err := New(
		WithTransport(transport),
		WithRetransmit(lossyRetransmit()),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	clients := make([]*Client, 4)
	for i := range clients {
		c, err := d.AddClient(ctx, fmt.Sprintf("chaos-%d", i), ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)})
		if err != nil {
			t.Fatalf("AddClient chaos-%d: %v", i, err)
		}
		clients[i] = c
	}

	// Known-good global v1 — the rollback point.
	if _, err := d.Rollout(ctx, Rollout{Version: 1, Pipeline: mbox.Stock(UseCaseNOP)}); err != nil {
		t.Fatal(err)
	}
	waitVersion(t, d, clients, 1)

	type outcome struct {
		res CanaryResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := d.RolloutCanary(ctx, CanaryRollout{
			Rollout: Rollout{
				Version:  2,
				Pipeline: mbox.Raw("FromDevice -> Faulty(PANIC 3) -> ToDevice;"),
			},
			Fraction: 0.5, // cohort = chaos-0, chaos-1
			Deadline: 45 * time.Second,
		})
		done <- outcome{res, err}
	}()

	// Wait for the canary announce to cross the wire, then pump traffic
	// through a cohort client until its pipeline trips quarantine and the
	// watch rolls the cohort back.
	src, dst := packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1)
	waitFor(t, 45*time.Second, "cohort never applied canary v2", func() bool {
		return clients[0].AppliedVersion() == 2
	})
	var o outcome
pump:
	for i := 0; ; i++ {
		select {
		case o = <-done:
			break pump
		default:
		}
		if i > 5000 {
			t.Fatalf("canary never resolved (chaos-0 at v%d)", clients[0].AppliedVersion())
		}
		_ = clients[0].SendPacket(packet.NewUDP(src, dst, 40000, 80, []byte("probe"))) // errors expected mid-chaos
		time.Sleep(2 * time.Millisecond)
	}
	if o.err != nil {
		t.Fatalf("RolloutCanary: %v", o.err)
	}
	if o.res.Promoted || !o.res.RolledBack || o.res.RollbackVersion != 3 {
		t.Fatalf("result = %+v, want rollback to v3", o.res)
	}

	// The cohort converges onto the rollback version (re-announced by the
	// periodic keepalive, like a real server); non-canary clients never
	// left v1 and never failed an apply.
	waitFor(t, 45*time.Second, "cohort never converged on rollback v3", func() bool {
		_ = d.Server.BroadcastPing()
		return clients[0].AppliedVersion() == 3 && clients[1].AppliedVersion() == 3
	})
	for i := 2; i < 4; i++ {
		if v := clients[i].AppliedVersion(); v != 1 {
			t.Errorf("non-canary chaos-%d applied v%d, want 1", i, v)
		}
		if err := clients[i].LastUpdateError(); err != nil {
			t.Errorf("non-canary chaos-%d update error: %v", i, err)
		}
	}

	// Self-healed: traffic flows again on the restored pipeline.
	if err := clients[0].SendPacket(packet.NewUDP(src, dst, 40000, 80, []byte("after"))); err != nil {
		t.Errorf("post-rollback SendPacket: %v", err)
	}
	if err := d.Server.BroadcastPing(); err != nil {
		t.Errorf("server unhealthy after chaos: %v", err)
	}
}

// TestChaosCorruptedControlPath joins a client and completes a rollout
// while every 4th control datagram takes a bit flip in flight. Corrupted
// sealed messages fail authentication and are simply lost — the ARQ layer
// retransmits until clean copies get through, and nothing garbled is ever
// decoded (see PROTOCOL.md "Corruption" and the OpenInPlace pin in
// internal/netsim).
func TestChaosCorruptedControlPath(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	transport := NewUDPTransport("127.0.0.1:0")
	d, err := New(
		WithTransport(transport),
		WithEchoNetwork(),
		WithRetransmit(lossyRetransmit()),
		WithLossProfile(LossProfile{CorruptEvery: 4, Seed: 41}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	cli, err := d.AddClient(ctx, "corrupt-client", ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)})
	if err != nil {
		t.Fatalf("AddClient under corruption: %v", err)
	}
	if err := cli.SendPacket(packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 40000, 80, []byte("hi"))); err != nil {
		t.Fatalf("SendPacket: %v", err)
	}

	if _, err := d.Rollout(ctx, Rollout{
		Version:  2,
		Pipeline: mbox.Stock(UseCaseFW),
		RuleSets: CommunityRuleSets(),
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 45*time.Second, "client never applied v2 through corruption", func() bool {
		_ = d.Server.BroadcastPing()
		return cli.AppliedVersion() == 2
	})
	if err := cli.LastUpdateError(); err != nil {
		t.Fatalf("update error after swap: %v", err)
	}

	// The injector really did flip bits on the wire.
	if st := transport.FaultStats(); st.Corrupted == 0 {
		t.Errorf("no datagrams corrupted: %+v", st)
	} else {
		t.Logf("fault stats after corrupted rollout: %+v", st)
	}
}

// waitVersion polls (re-announcing on the keepalive) until every client
// applied version v.
func waitVersion(t *testing.T, d *Deployment, clients []*Client, v uint64) {
	t.Helper()
	waitFor(t, 45*time.Second, fmt.Sprintf("fleet never applied v%d", v), func() bool {
		_ = d.Server.BroadcastPing()
		for _, c := range clients {
			if c.AppliedVersion() != v {
				return false
			}
		}
		return true
	})
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
