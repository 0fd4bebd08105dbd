package core

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"endbox/internal/click"
	"endbox/internal/netsim"
	"endbox/internal/packet"
)

// faultLog captures FaultObserver events from concurrent goroutines.
type faultLog struct {
	mu      sync.Mutex
	faults  []click.ElementFault
	clients []string
	failed  []uint64
}

func (l *faultLog) observer() ObserverFuncs {
	return ObserverFuncs{
		OnFault: func(clientID string, f click.ElementFault) {
			l.mu.Lock()
			l.faults = append(l.faults, f)
			l.clients = append(l.clients, clientID)
			l.mu.Unlock()
		},
		OnUpdateError: func(_ string, version uint64, _ error) {
			l.mu.Lock()
			l.failed = append(l.failed, version)
			l.mu.Unlock()
		},
	}
}

func (l *faultLog) snapshot() []click.ElementFault {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]click.ElementFault(nil), l.faults...)
}

// chaosFleet builds a deployment with four clients (c1..c4) running a
// known-good global v1, the rollback point every canary test needs.
func chaosFleet(t *testing.T, log *faultLog) (*Deployment, []*Client) {
	t.Helper()
	netsim.RegisterFaulty()
	opts := DeploymentOptions{}
	if log != nil {
		opts.Observer = log.observer()
	}
	d := newDeployment(t, opts)
	ids := []string{"c1", "c2", "c3", "c4"}
	clients := make([]*Client, len(ids))
	for i, id := range ids {
		clients[i] = addClient(t, d, id, ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
	}
	publish(t, d, Rollout{
		Version:  1,
		Pipeline: click.StockPipeline(click.UseCaseNOP),
	})
	for i, c := range clients {
		if v := c.AppliedVersion(); v != 1 {
			t.Fatalf("%s: applied v%d before canary, want 1", ids[i], v)
		}
	}
	return d, clients
}

// waitApplied polls until the client reaches version v (the canary
// announce runs on the rollout goroutine).
func waitApplied(t *testing.T, c *Client, v uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.AppliedVersion() != v {
		if time.Now().After(deadline) {
			t.Fatalf("client stuck on v%d, want v%d", c.AppliedVersion(), v)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCanaryAutoRollbackOnQuarantine is the acceptance scenario: a canary
// rollout of a configuration whose element panics on the 3rd packet is
// detected and auto-rolled-back. Every cohort client ends on the
// last-known-good content, non-canary clients never see the bad version,
// and the panicking element never crashes a client or the server.
func TestCanaryAutoRollbackOnQuarantine(t *testing.T) {
	log := &faultLog{}
	d, clients := chaosFleet(t, log)
	c1, c2, c3, c4 := clients[0], clients[1], clients[2], clients[3]

	type outcome struct {
		res CanaryResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := d.RolloutCanary(context.Background(), CanaryRollout{
			Rollout: Rollout{
				Version:  2,
				Pipeline: click.Raw("FromDevice -> Faulty(PANIC 3) -> ToDevice;"),
			},
			Fraction: 0.5,
			Deadline: 10 * time.Second,
		})
		done <- outcome{res, err}
	}()

	// Cohort = first half of the sorted fleet: c1, c2.
	waitApplied(t, c1, 2)
	waitApplied(t, c2, 2)

	// Live traffic trips the fault: packets 1-2 pass, packets 3+ panic.
	// With the default trip threshold of 3 the element is quarantined on
	// the 5th packet; the client reports unhealthy and self-reverts.
	src, dst := packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1)
	for i := 0; i < 6; i++ {
		_ = c1.SendPacket(udpTo(t, src, dst, "probe")) // errors expected mid-chaos
	}

	o := <-done
	if o.err != nil {
		t.Fatalf("RolloutCanary: %v", o.err)
	}
	res := o.res
	if res.Promoted || !res.RolledBack {
		t.Fatalf("promoted=%v rolledback=%v, want rollback", res.Promoted, res.RolledBack)
	}
	if res.RollbackVersion != 3 {
		t.Errorf("rollback version = %d, want 3", res.RollbackVersion)
	}
	if !strings.Contains(res.Reason, "unhealthy") {
		t.Errorf("reason = %q, want a quarantine report", res.Reason)
	}
	if len(res.Canary) != 2 || res.Canary[0] != "c1" || res.Canary[1] != "c2" {
		t.Errorf("cohort = %v, want [c1 c2]", res.Canary)
	}

	// Cohort converged on the rollback version carrying LKG content; the
	// rest of the fleet stayed on v1 and never applied (or failed) v2.
	if v := c1.AppliedVersion(); v != 3 {
		t.Errorf("c1 applied v%d, want rollback v3", v)
	}
	if v := c2.AppliedVersion(); v != 3 {
		t.Errorf("c2 applied v%d, want rollback v3", v)
	}
	for _, c := range []*Client{c3, c4} {
		if v := c.AppliedVersion(); v != 1 {
			t.Errorf("non-canary applied v%d, want 1", v)
		}
		if err := c.LastUpdateError(); err != nil {
			t.Errorf("non-canary update error: %v", err)
		}
	}

	// Containment fired per panic and the last fault quarantined.
	faults := log.snapshot()
	if len(faults) < 3 {
		t.Fatalf("observed %d faults, want >=3", len(faults))
	}
	quarantined := false
	for _, f := range faults {
		if f.Quarantined {
			quarantined = true
		}
	}
	if !quarantined {
		t.Error("no fault event reported quarantine")
	}

	// Self-healed: the cohort client processes traffic again on the
	// restored pipeline, and the server still serves the fleet.
	if err := c1.SendPacket(udpTo(t, src, dst, "after")); err != nil {
		t.Errorf("post-rollback SendPacket: %v", err)
	}
	if err := d.Server.BroadcastPing(); err != nil {
		t.Errorf("server unhealthy after chaos: %v", err)
	}
}

// TestCanaryPromotesHealthyRollout widens a healthy canary fleet-wide at
// the deadline: every cohort member acked, nobody faulted.
func TestCanaryPromotesHealthyRollout(t *testing.T) {
	d, clients := chaosFleet(t, nil)

	res, err := d.RolloutCanary(context.Background(), CanaryRollout{
		Rollout: Rollout{
			Version:  2,
			Pipeline: click.Raw("FromDevice -> IPFilter(drop dst host 203.0.113.9, allow all) -> ToDevice;"),
		},
		Fraction: 0.5,
		Deadline: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("RolloutCanary: %v", err)
	}
	if !res.Promoted || res.RolledBack {
		t.Fatalf("promoted=%v rolledback=%v reason=%q, want promotion", res.Promoted, res.RolledBack, res.Reason)
	}
	for _, id := range res.Canary {
		h, ok := res.Health[id]
		if !ok || !h.OK {
			t.Errorf("cohort %s health = %+v, want OK ack", id, h)
		}
		if ok && h.SwapNanos <= 0 {
			t.Errorf("cohort %s ack missing swap timing", id)
		}
	}
	// AnnounceGlobal pulled the rest of the fleet onto the version too.
	for i, c := range clients {
		if v := c.AppliedVersion(); v != 2 {
			t.Errorf("client %d applied v%d, want 2", i+1, v)
		}
	}
	if v := d.Server.LatestGlobal(); v != 2 {
		t.Errorf("latest global = %d, want 2", v)
	}
}

// TestCanaryNeedsLastKnownGood refuses to stage anything when there is no
// global version to roll back to.
func TestCanaryNeedsLastKnownGood(t *testing.T) {
	d := newDeployment(t, DeploymentOptions{})
	addClient(t, d, "c1", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
	_, err := d.RolloutCanary(context.Background(), CanaryRollout{
		Rollout: Rollout{Version: 1, Pipeline: click.StockPipeline(click.UseCaseNOP)},
	})
	if err == nil || !strings.Contains(err.Error(), "last-known-good") {
		t.Fatalf("err = %v, want last-known-good refusal", err)
	}
}

// TestCanaryRollbackRacesSelfRevert pins the rollback race: the server's
// automatic rollback (a fresh version with LKG content) lands while the
// quarantined client's own self-revert is still mid-flight — its LKG
// fetch slowed by an injected delay. Whichever apply wins, the in-enclave
// compare-and-swap on the applied version must leave the client on the
// rollback version, never flapping back to a stale revert. Run with
// -race.
func TestCanaryRollbackRacesSelfRevert(t *testing.T) {
	d, clients := chaosFleet(t, nil)
	c1 := clients[0]

	// Every config fetch now takes 20ms, holding the self-revert's
	// fetch-then-apply window open while the rollback publish races it.
	d.Server.Configs().SetFetchDelay(func() { time.Sleep(20 * time.Millisecond) })

	type outcome struct {
		res CanaryResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := d.RolloutCanary(context.Background(), CanaryRollout{
			Rollout: Rollout{
				Version:  2,
				Pipeline: click.Raw("FromDevice -> Faulty(PANIC 1) -> ToDevice;"),
			},
			Fraction: 0.25, // cohort = c1 alone
			Deadline: 10 * time.Second,
		})
		done <- outcome{res, err}
	}()
	waitApplied(t, c1, 2)

	// Every packet panics; the third trip quarantines and starts the
	// self-revert while the watch triggers the server-side rollback.
	src, dst := packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1)
	for i := 0; i < 4; i++ {
		_ = c1.SendPacket(udpTo(t, src, dst, "probe"))
	}

	o := <-done
	if o.err != nil {
		t.Fatalf("RolloutCanary: %v", o.err)
	}
	if !o.res.RolledBack || o.res.RollbackVersion != 3 {
		t.Fatalf("result = %+v, want rollback to v3", o.res)
	}
	// Both the rollback apply and the self-revert have completed (each is
	// synchronous on its goroutine); the client must sit on the rollback
	// version with LKG content, whichever order they landed in.
	if v := c1.AppliedVersion(); v != 3 {
		t.Fatalf("c1 applied v%d after race, want 3", v)
	}
	if err := c1.SendPacket(udpTo(t, src, dst, "after")); err != nil {
		t.Errorf("post-race SendPacket: %v", err)
	}
}

// TestCanaryExclusive refuses a second canary while one is in flight.
func TestCanaryExclusive(t *testing.T) {
	d, _ := chaosFleet(t, nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = d.RolloutCanary(context.Background(), CanaryRollout{
			Rollout:  Rollout{Version: 2, Pipeline: click.StockPipeline(click.UseCaseNOP)},
			Deadline: 300 * time.Millisecond,
		})
	}()
	time.Sleep(50 * time.Millisecond)
	_, err := d.RolloutCanary(context.Background(), CanaryRollout{
		Rollout: Rollout{Version: 3, Pipeline: click.StockPipeline(click.UseCaseNOP)},
	})
	if err == nil || !strings.Contains(err.Error(), "in progress") {
		t.Fatalf("concurrent canary err = %v, want in-progress refusal", err)
	}
	<-done
}
