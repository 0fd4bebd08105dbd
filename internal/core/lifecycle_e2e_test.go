package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"endbox/internal/click"
	"endbox/internal/lifecycle"
	"endbox/internal/packet"
	"endbox/internal/sgx"
)

// testClock is a mutex-guarded virtual clock. Deployments under test use
// SweepInterval: -1 so no wall-time goroutine races the advances; the
// tests drive SweepSessions by hand.
type testClock struct {
	mu sync.Mutex
	t  time.Time
}

func newTestClock() *testClock {
	// Anchored an hour behind wall time: certificates are issued on the
	// deployment clock but verified inside enclaves against SGX trusted
	// time (real wall clock), which must not be before IssuedAt. The
	// advances below stay far under an hour, and the 30-day certificate
	// lifetime keeps expiry far ahead.
	return &testClock{t: time.Now().Add(-time.Hour)}
}

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *testClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestKeepaliveLivenessEviction pins the liveness contract: a client whose
// keepalive pongs keep arriving is never evicted, while a silent client is
// evicted within one TTL plus one sweep tick.
func TestKeepaliveLivenessEviction(t *testing.T) {
	const ttl = time.Minute
	clk := newTestClock()
	var evictedIDs []string
	d := newDeployment(t, DeploymentOptions{
		Clock:         clk.Now,
		SessionTTL:    ttl,
		SweepInterval: -1,
		Observer: ObserverFuncs{
			OnEvicted: func(id string) { evictedIDs = append(evictedIDs, id) },
		},
	})
	chatty := addClient(t, d, "chatty", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
	addClient(t, d, "silent", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})

	// Four 14s steps (56s total, just under the TTL): the chatty client
	// answers with a keepalive each step (an authenticated frame through
	// HandleFrame — the liveness touch), the silent one does nothing.
	for i := 0; i < 4; i++ {
		clk.Advance(14 * time.Second)
		if err := chatty.SendPing(); err != nil {
			t.Fatalf("keepalive %d: %v", i, err)
		}
		if got := d.SweepSessions(); len(got) != 0 {
			t.Fatalf("premature eviction at step %d: %v", i, got)
		}
	}

	// Past the silent client's deadline (TTL + 2s, within one sweep tick
	// of the lapse): exactly it must go.
	clk.Advance(6 * time.Second)
	got := d.SweepSessions()
	if len(got) != 1 || got[0] != "silent" {
		t.Fatalf("SweepSessions = %v, want [silent]", got)
	}
	if len(evictedIDs) != 1 || evictedIDs[0] != "silent" {
		t.Errorf("observer saw evictions %v, want [silent]", evictedIDs)
	}
	if _, ok := d.Client("silent"); ok {
		t.Error("evicted client still registered with the deployment")
	}
	if _, err := d.Server.VPN().Stats("silent"); err == nil {
		t.Error("evicted client still has a VPN session")
	}

	// The live client is untouched: its session still moves traffic.
	pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 1, 2, []byte("still here"))
	if err := chatty.SendPacket(pkt); err != nil {
		t.Fatalf("survivor SendPacket: %v", err)
	}

	st := d.LifecycleStats()
	if st.Sessions.Evicted != 1 || st.Sessions.Active != 1 {
		t.Errorf("LifecycleStats = %+v, want 1 evicted / 1 active", st.Sessions)
	}

	// The evicted client may rejoin with a fresh handshake.
	addClient(t, d, "silent", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
}

// TestReconnectAfterCrash pins the stale-duplicate takeover: a client that
// crashed and rebooted reconnects under its old ID once its liveness
// lapsed — even before any sweep ran — while a still-live duplicate is
// refused.
func TestReconnectAfterCrash(t *testing.T) {
	const ttl = time.Minute
	clk := newTestClock()
	d := newDeployment(t, DeploymentOptions{
		Clock:         clk.Now,
		SessionTTL:    ttl,
		SweepInterval: -1,
	})
	addClient(t, d, "x", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
	addrBefore, _ := d.ClientAddr("x")

	// Live duplicate: refused.
	if _, err := d.AddClient(context.Background(), "x", ClientSpec{Mode: sgx.ModeSimulation, Pipeline: click.StockPipeline(click.UseCaseNOP)}); err == nil {
		t.Fatal("duplicate AddClient for a live session succeeded")
	}

	// Crash: the client process is gone but no sweep has run, so the dead
	// session still occupies the table. The reconnect must take it over.
	clk.Advance(ttl + 2*time.Second)
	reborn, err := d.AddClient(context.Background(), "x", ClientSpec{Mode: sgx.ModeSimulation, Pipeline: click.StockPipeline(click.UseCaseNOP)})
	if err != nil {
		t.Fatalf("reconnect after crash: %v", err)
	}
	if addrAfter, _ := d.ClientAddr("x"); addrAfter != addrBefore {
		t.Errorf("reconnect address %v, want the reclaimed %v", addrAfter, addrBefore)
	}
	pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 1, 2, []byte("back"))
	if err := reborn.SendPacket(pkt); err != nil {
		t.Fatalf("reborn SendPacket: %v", err)
	}
	if n := d.Server.VPN().ClientCount(); n != 1 {
		t.Errorf("ClientCount = %d after takeover, want 1", n)
	}
}

// TestAddrReuseNoAliasing is the regression guard for RemoveClient →
// AddClient address recycling: the freed VIF address is reused, and no
// shard of the session table still maps the removed client.
func TestAddrReuseNoAliasing(t *testing.T) {
	d := newDeployment(t, DeploymentOptions{})
	addClient(t, d, "a", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
	addClient(t, d, "b", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
	addrA, _ := d.ClientAddr("a")

	d.RemoveClient("a")
	d.mu.Lock()
	onFreeList := len(d.freeAddrs) == 1 && d.freeAddrs[0] == addrA
	d.mu.Unlock()
	if !onFreeList {
		t.Fatalf("released address %v not on the free list", addrA)
	}

	addClient(t, d, "c", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
	addrC, _ := d.ClientAddr("c")
	if addrC != addrA {
		t.Fatalf("new client got %v, want the recycled %v", addrC, addrA)
	}

	// The reused address must not alias the dead client anywhere: not in
	// the deployment's address maps, not in any session-table shard.
	d.mu.Lock()
	owner := d.addrs[addrA]
	free := len(d.freeAddrs)
	d.mu.Unlock()
	if owner != "c" || free != 0 {
		t.Errorf("address %v owned by %q (free list %d), want c/0", addrA, owner, free)
	}
	if _, err := d.Server.VPN().Stats("a"); err == nil {
		t.Error("removed client still present in the session table")
	}
	if n := d.Server.VPN().ClientCount(); n != 2 {
		t.Errorf("ClientCount = %d, want 2", n)
	}
}

// TestResumeClientInProcess drives the fast-resume path end to end over
// the in-process transport: snapshot, simulated crash, resume, traffic.
func TestResumeClientInProcess(t *testing.T) {
	var resumedIDs []string
	var received int
	d := newDeployment(t, DeploymentOptions{
		EchoNetwork: true,
		SessionTTL:  time.Minute,
		// Background sweeps off: the test controls time only implicitly
		// (real clock), and nothing here idles near the TTL.
		SweepInterval: -1,
		Observer: ObserverFuncs{
			OnResumed:  func(id string) { resumedIDs = append(resumedIDs, id) },
			OnReceived: func(string, []byte) { received++ },
		},
	})
	spec := ClientSpec{Mode: sgx.ModeSimulation, Pipeline: click.StockPipeline(click.UseCaseNOP)}
	addClient(t, d, "r1", spec)
	addrBefore, _ := d.ClientAddr("r1")

	state, err := d.ResumeState("r1")
	if err != nil {
		t.Fatal(err)
	}
	if state.ClientID != "r1" || len(state.Ticket) == 0 || len(state.Secret) == 0 || len(state.SealedIdentity) == 0 {
		t.Fatalf("incomplete resume state: %+v", state)
	}

	// "Crash": the deployment still holds the old incarnation; resume
	// replaces it — ticket plus attested signature prove the principal.
	cli, err := d.ResumeClient(context.Background(), state, spec)
	if err != nil {
		t.Fatalf("ResumeClient: %v", err)
	}
	if addrAfter, _ := d.ClientAddr("r1"); addrAfter != addrBefore {
		t.Errorf("resumed address %v, want the original %v", addrAfter, addrBefore)
	}
	if len(resumedIDs) != 1 || resumedIDs[0] != "r1" {
		t.Errorf("observer saw resumes %v, want [r1]", resumedIDs)
	}

	// Traffic in both directions through the resumed session (echo).
	pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 1, 2, []byte("resumed"))
	if err := cli.SendPacket(pkt); err != nil {
		t.Fatalf("SendPacket after resume: %v", err)
	}
	if received != 1 {
		t.Errorf("client received %d echoes after resume, want 1", received)
	}

	st := d.LifecycleStats()
	if st.Sessions.Resumed != 1 {
		t.Errorf("Resumed = %d, want 1", st.Sessions.Resumed)
	}
	// No takeover at the VPN layer: ResumeClient disconnects the local
	// stale incarnation before resuming, so the slot was already free.
	if st.Sessions.Takeovers != 0 {
		t.Errorf("Takeovers = %d, want 0", st.Sessions.Takeovers)
	}
}

// TestResumeAfterEviction resumes a session the sweeper already evicted:
// the deployment state is gone, the ticket is still valid, and the client
// gets its old address back off the free list.
func TestResumeAfterEviction(t *testing.T) {
	const ttl = time.Minute
	clk := newTestClock()
	d := newDeployment(t, DeploymentOptions{
		Clock:         clk.Now,
		SessionTTL:    ttl,
		SweepInterval: -1,
	})
	spec := ClientSpec{Mode: sgx.ModeSimulation, Pipeline: click.StockPipeline(click.UseCaseNOP)}
	addClient(t, d, "r2", spec)
	addrBefore, _ := d.ClientAddr("r2")
	state, err := d.ResumeState("r2")
	if err != nil {
		t.Fatal(err)
	}

	clk.Advance(ttl + 2*time.Second)
	if got := d.SweepSessions(); len(got) != 1 || got[0] != "r2" {
		t.Fatalf("SweepSessions = %v, want [r2]", got)
	}

	cli, err := d.ResumeClient(context.Background(), state, spec)
	if err != nil {
		t.Fatalf("ResumeClient after eviction: %v", err)
	}
	if addrAfter, _ := d.ClientAddr("r2"); addrAfter != addrBefore {
		t.Errorf("resumed address %v, want the reclaimed %v", addrAfter, addrBefore)
	}
	pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 1, 2, []byte("resumed"))
	if err := cli.SendPacket(pkt); err != nil {
		t.Fatalf("SendPacket after resume: %v", err)
	}
}

// TestAdmissionMaxSessions pins the hard session bound and its typed
// error, and that removing a client frees capacity.
func TestAdmissionMaxSessions(t *testing.T) {
	var refused []error
	d := newDeployment(t, DeploymentOptions{
		Admission: lifecycle.AdmissionConfig{MaxSessions: 2},
		Observer: ObserverFuncs{
			OnRefused: func(_ string, err error) { refused = append(refused, err) },
		},
	})
	addClient(t, d, "s1", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
	addClient(t, d, "s2", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})

	_, err := d.AddClient(context.Background(), "s3", ClientSpec{Mode: sgx.ModeSimulation, Pipeline: click.StockPipeline(click.UseCaseNOP)})
	if !errors.Is(err, lifecycle.ErrServerFull) {
		t.Fatalf("third AddClient error = %v, want ErrServerFull", err)
	}
	if len(refused) != 1 || !errors.Is(refused[0], lifecycle.ErrServerFull) {
		t.Errorf("observer saw refusals %v, want one ErrServerFull", refused)
	}
	if st := d.LifecycleStats(); st.Admission.RefusedFull != 1 || st.Admission.Admitted != 2 {
		t.Errorf("admission stats = %+v, want 2 admitted / 1 refused-full", st.Admission)
	}

	d.RemoveClient("s1")
	addClient(t, d, "s3", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
}

// TestAdmissionHandshakeRate pins the token bucket on the deployment
// clock: burst exhausted → throttled; time passes → admitted again.
func TestAdmissionHandshakeRate(t *testing.T) {
	clk := newTestClock()
	d := newDeployment(t, DeploymentOptions{
		Clock:     clk.Now,
		Admission: lifecycle.AdmissionConfig{HandshakeRate: 1, HandshakeBurst: 1},
	})
	addClient(t, d, "t1", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})

	_, err := d.AddClient(context.Background(), "t2", ClientSpec{Mode: sgx.ModeSimulation, Pipeline: click.StockPipeline(click.UseCaseNOP)})
	if !errors.Is(err, lifecycle.ErrAdmissionThrottled) {
		t.Fatalf("burst-exhausted AddClient error = %v, want ErrAdmissionThrottled", err)
	}

	clk.Advance(2 * time.Second) // refills one token at 1/s
	addClient(t, d, "t2", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
	if st := d.LifecycleStats(); st.Admission.Throttled != 1 {
		t.Errorf("Throttled = %d, want 1", st.Admission.Throttled)
	}
}

// TestConnectStormBounded is the acceptance scenario: a storm of
// concurrent joins against a hard session bound. MaxConcurrent serialises
// the handshakes so the bound is exact; every worker retries through
// throttling until it is either admitted or told the server is full, and
// the session count ends exactly at the bound.
func TestConnectStormBounded(t *testing.T) {
	const bound = 8
	const workers = 24
	d := newDeployment(t, DeploymentOptions{
		Admission: lifecycle.AdmissionConfig{MaxSessions: bound, MaxConcurrent: 1},
	})

	var wg sync.WaitGroup
	results := make([]error, workers)
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := fmt.Sprintf("storm-%02d", i)
			for {
				_, err := d.AddClient(context.Background(), id, ClientSpec{Mode: sgx.ModeSimulation, Pipeline: click.StockPipeline(click.UseCaseNOP)})
				if errors.Is(err, lifecycle.ErrAdmissionThrottled) {
					continue // back off and retry, like a real client
				}
				results[i] = err
				return
			}
		}()
	}
	wg.Wait()

	admitted, full := 0, 0
	for i, err := range results {
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, lifecycle.ErrServerFull):
			full++
		default:
			t.Errorf("worker %d: unexpected error %v", i, err)
		}
	}
	if admitted != bound || full != workers-bound {
		t.Errorf("storm admitted %d / refused-full %d, want %d / %d", admitted, full, bound, workers-bound)
	}
	if n := d.Server.VPN().ClientCount(); n != bound {
		t.Errorf("ClientCount = %d after storm, want %d", n, bound)
	}

	// The admitted sessions still move traffic.
	for i := 0; i < workers; i++ {
		if results[i] == nil {
			cli, _ := d.Client(fmt.Sprintf("storm-%02d", i))
			pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 1, 2, []byte("x"))
			if err := cli.SendPacket(pkt); err != nil {
				t.Fatalf("admitted client %d: SendPacket: %v", i, err)
			}
			break
		}
	}
}
