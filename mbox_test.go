package endbox

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"endbox/internal/config"
	"endbox/internal/packet"
	"endbox/internal/vpn"
	"endbox/mbox"
)

// flowCap is a custom middlebox element registered through the public
// mbox API: it forwards the first LIMIT packets and drops the rest — a
// minimal stateful function an application might plug into its enclaves.
type flowCap struct {
	mbox.Base
	limit uint64
	seen  atomic.Uint64
}

func (*flowCap) Class() string { return "FlowCap" }

func (e *flowCap) Configure(args []string, _ *mbox.Context) error {
	e.limit = 3
	for _, arg := range args {
		val, ok := strings.CutPrefix(arg, "LIMIT ")
		if !ok {
			return fmt.Errorf("FlowCap: unknown argument %q", arg)
		}
		n, err := strconv.ParseUint(strings.TrimSpace(val), 10, 64)
		if err != nil {
			return fmt.Errorf("FlowCap: bad LIMIT %q", val)
		}
		e.limit = n
	}
	return nil
}

func (*flowCap) InPorts() int  { return mbox.AnyPorts }
func (*flowCap) OutPorts() int { return 1 }

func (e *flowCap) Push(_ int, p *mbox.Packet) {
	if e.seen.Add(1) > e.limit {
		p.Drop(e.Name())
		return
	}
	e.Forward(0, p)
}

// TakeState keeps the count across hot-swaps.
func (e *flowCap) TakeState(old mbox.Element) {
	if prev, ok := old.(*flowCap); ok {
		e.seen.Store(prev.seen.Load())
	}
}

var registerFlowCapOnce sync.Once

func registerFlowCap(t *testing.T) {
	t.Helper()
	registerFlowCapOnce.Do(func() {
		if err := mbox.Register("FlowCap", func() mbox.Element { return &flowCap{} }); err != nil {
			t.Fatalf("Register(FlowCap): %v", err)
		}
	})
}

// TestCustomElementEndToEnd registers a custom element via the public
// mbox API and runs it inside client enclaves over both transports: the
// element's verdicts must reach the application (ErrDropped past the
// limit), the accepted packets must reach the managed network, and
// PipelineStats must attribute the drops to the element instance.
func TestCustomElementEndToEnd(t *testing.T) {
	registerFlowCap(t)

	run := func(t *testing.T, transport Transport) {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()

		var delivered atomic.Int64
		opts := []Option{WithObserver(ObserverFuncs{
			OnDelivered: func(string, []byte) { delivered.Add(1) },
		})}
		if transport != nil {
			opts = append(opts, WithTransport(transport))
		}
		d, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()

		cap := mbox.Custom("FlowCap", "LIMIT 3")
		cap.Name = "cap"
		cli, err := d.AddClient(ctx, "capped", ClientSpec{
			Mode:     ModeSimulation,
			Pipeline: mbox.Chain(cap),
		})
		if err != nil {
			t.Fatal(err)
		}

		pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 40000, 80, []byte("x"))
		for i := 0; i < 3; i++ {
			if err := cli.SendPacket(pkt); err != nil {
				t.Fatalf("packet %d within limit: %v", i, err)
			}
		}
		for i := 0; i < 2; i++ {
			if err := cli.SendPacket(pkt); !errors.Is(err, vpn.ErrDropped) {
				t.Fatalf("packet past limit: err = %v, want ErrDropped", err)
			}
		}

		// UDP delivery is asynchronous; wait for the accepted packets.
		deadline := time.Now().Add(5 * time.Second)
		for delivered.Load() < 3 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if got := delivered.Load(); got != 3 {
			t.Errorf("delivered = %d, want 3", got)
		}

		stats, err := cli.PipelineStats()
		if err != nil {
			t.Fatal(err)
		}
		var capStats ElementStats
		for _, s := range stats {
			if s.Name == "cap" {
				capStats = s
			}
		}
		if capStats.Class != "FlowCap" || capStats.Packets != 5 || capStats.Drops != 2 {
			t.Errorf("cap stats = %+v, want Class FlowCap, 5 packets, 2 drops", capStats)
		}
	}

	t.Run("inprocess", func(t *testing.T) { run(t, nil) })
	t.Run("udp", func(t *testing.T) { run(t, NewUDPTransport("127.0.0.1:0")) })
}

// TestRolloutTargeted rolls a new pipeline out to a label-selected subset
// of clients: the targeted group hot-swaps, the rest of the fleet stays
// on its configuration, and both keep passing traffic.
func TestRolloutTargeted(t *testing.T) {
	ctx := context.Background()
	d, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	add := func(id, ring string) *Client {
		cli, err := d.AddClient(ctx, id, ClientSpec{
			Mode:     ModeSimulation,
			Pipeline: mbox.Stock(UseCaseNOP),
			Labels:   map[string]string{"ring": ring},
		})
		if err != nil {
			t.Fatalf("AddClient(%s): %v", id, err)
		}
		return cli
	}
	canary1 := add("canary-1", "canary")
	canary2 := add("canary-2", "canary")
	stable := add("stable-1", "stable")

	res, err := d.Rollout(ctx, Rollout{
		Version:      1,
		GraceSeconds: 60,
		Pipeline:     mbox.Chain(mbox.Firewall("drop dst host 203.0.113.9", "allow all")),
		RuleSets:     CommunityRuleSets(),
		Target:       Selector{Labels: map[string]string{"ring": "canary"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"canary-1", "canary-2"}; len(res.Clients) != 2 || res.Clients[0] != want[0] || res.Clients[1] != want[1] {
		t.Errorf("rollout clients = %v, want %v", res.Clients, want)
	}

	if v := canary1.AppliedVersion(); v != 1 {
		t.Errorf("canary-1 at v%d, want 1 (err: %v)", v, canary1.LastUpdateError())
	}
	if v := canary2.AppliedVersion(); v != 1 {
		t.Errorf("canary-2 at v%d, want 1 (err: %v)", v, canary2.LastUpdateError())
	}
	if v := stable.AppliedVersion(); v != 0 {
		t.Errorf("stable-1 hot-swapped to v%d, want 0 (not targeted)", v)
	}

	// The canaries enforce the new firewall; the stable client does not.
	blocked := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(203, 0, 113, 9), 40000, 80, []byte("x"))
	if err := canary1.SendPacket(blocked); !errors.Is(err, vpn.ErrDropped) {
		t.Errorf("canary firewall not active: %v", err)
	}
	if err := stable.SendPacket(blocked); err != nil {
		t.Errorf("stable client wrongly enforcing the canary pipeline: %v", err)
	}
	// Both versions pass the server's policy.
	ok := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 40000, 80, []byte("x"))
	if err := canary1.SendPacket(ok); err != nil {
		t.Errorf("targeted client blocked: %v", err)
	}
	if err := stable.SendPacket(ok); err != nil {
		t.Errorf("untargeted client blocked: %v", err)
	}

	// Promoting globally converges the rest of the fleet.
	if _, err := d.Rollout(ctx, Rollout{
		Version:      2,
		GraceSeconds: 60,
		Pipeline:     mbox.Stock(UseCaseFW),
		RuleSets:     CommunityRuleSets(),
	}); err != nil {
		t.Fatal(err)
	}
	for _, cli := range []*Client{canary1, canary2, stable} {
		if v := cli.AppliedVersion(); v != 2 {
			t.Errorf("after global rollout: at v%d, want 2 (err: %v)", v, cli.LastUpdateError())
		}
	}
}

// TestRolloutByID targets explicit client IDs and validates before
// publishing: a bad pipeline must fail typed, with nothing announced.
func TestRolloutByID(t *testing.T) {
	ctx := context.Background()
	d, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	a, err := d.AddClient(ctx, "a", ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)})
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.AddClient(ctx, "b", ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := d.Rollout(ctx, Rollout{
		Version:  1,
		Pipeline: mbox.Raw("FromDevice -> Frobnicator -> ToDevice;"),
		Target:   Selector{IDs: []string{"a"}},
	}); !errors.Is(err, ErrBadPipeline) {
		t.Fatalf("bad rollout pipeline: err = %v, want ErrBadPipeline", err)
	}
	if v := a.AppliedVersion(); v != 0 {
		t.Fatalf("failed rollout still applied v%d", v)
	}

	if _, err := d.Rollout(ctx, Rollout{
		Version:      1,
		GraceSeconds: 60,
		Pipeline:     mbox.Stock(UseCaseFW),
		RuleSets:     CommunityRuleSets(),
		Target:       Selector{IDs: []string{"a"}},
	}); err != nil {
		t.Fatal(err)
	}
	if v := a.AppliedVersion(); v != 1 {
		t.Errorf("a at v%d, want 1 (err: %v)", v, a.LastUpdateError())
	}
	if v := b.AppliedVersion(); v != 0 {
		t.Errorf("b at v%d, want 0", v)
	}
}

// TestAddClientBadPipeline pins the typed validation at the API boundary:
// specs that select nothing, an unknown use case, or a configuration that
// cannot build must fail with ErrBadPipeline before any enclave exists.
func TestAddClientBadPipeline(t *testing.T) {
	ctx := context.Background()
	d, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for name, spec := range map[string]ClientSpec{
		"empty spec":       {Mode: ModeSimulation},
		"unknown use case": {Mode: ModeSimulation, Pipeline: mbox.Stock(UseCase(99))},
		"bad click config": {Mode: ModeSimulation, Pipeline: mbox.Raw("FromDevice -> -> ToDevice;")},
		"unknown class":    {Mode: ModeSimulation, Pipeline: mbox.Raw("FromDevice -> Frobnicator -> ToDevice;")},
		"bad element args": {Mode: ModeSimulation, Pipeline: mbox.Chain(mbox.Firewall("frobnicate all"))},
		"unknown rule set": {Mode: ModeSimulation, Pipeline: mbox.Chain(mbox.IDS("no-such-set"))},
	} {
		if _, err := d.AddClient(ctx, "bad-"+name, spec); !errors.Is(err, ErrBadPipeline) {
			t.Errorf("%s: err = %v, want ErrBadPipeline", name, err)
		}
	}
	// The IDs must be reusable after the typed failures.
	if _, err := d.AddClient(ctx, "bad-empty spec", ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)}); err != nil {
		t.Errorf("ID not reusable after failed validation: %v", err)
	}
}

// swapProbe is the element the concurrent-registration test deploys.
type swapProbe struct {
	mbox.Base
}

func (*swapProbe) Class() string                           { return "SwapProbe" }
func (*swapProbe) Configure([]string, *mbox.Context) error { return nil }
func (*swapProbe) InPorts() int                            { return mbox.AnyPorts }
func (*swapProbe) OutPorts() int                           { return 1 }
func (e *swapProbe) Push(_ int, p *mbox.Packet)            { e.Forward(0, p) }

// TestConcurrentRegisterAndHotSwap registers element classes from
// concurrent goroutines while clients hot-swap to a pipeline using a
// registered element — the registry ownership model under -race.
func TestConcurrentRegisterAndHotSwap(t *testing.T) {
	ctx := context.Background()
	if err := mbox.Register("SwapProbe", func() mbox.Element { return &swapProbe{} }); err != nil &&
		!errors.Is(err, ErrBadPipeline) {
		t.Fatal(err)
	}

	d, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	clients := make([]*Client, 3)
	for i := range clients {
		cli, err := d.AddClient(ctx, fmt.Sprintf("swap-%d", i), ClientSpec{
			Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP),
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = cli
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Two goroutines race to register fresh classes (and collide with
	// each other on purpose: exactly one wins each name).
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				err := mbox.Register(fmt.Sprintf("BgElem%d", i), func() mbox.Element { return &swapProbe{} })
				if err != nil && !errors.Is(err, ErrBadPipeline) {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
			}
		}(g)
	}

	// Meanwhile every client hot-swaps through pipelines using the
	// registered element.
	probe := mbox.Custom("SwapProbe")
	probe.Name = "probe"
	for v := uint64(1); v <= 5; v++ {
		if _, err := d.Rollout(ctx, Rollout{
			Version:      v,
			GraceSeconds: 300,
			Pipeline:     mbox.Chain(mbox.Count("c"), probe),
			RuleSets:     CommunityRuleSets(),
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 1, 2, []byte("x"))
	for i, cli := range clients {
		if v := cli.AppliedVersion(); v != 5 {
			t.Errorf("client %d at v%d, want 5 (err: %v)", i, v, cli.LastUpdateError())
		}
		if err := cli.SendPacket(pkt); err != nil {
			t.Errorf("client %d traffic after swaps: %v", i, err)
		}
		stats, err := cli.PipelineStats()
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, s := range stats {
			if s.Name == "probe" && s.Class == "SwapProbe" && s.Packets == 1 {
				found = true
			}
		}
		if !found {
			t.Errorf("client %d: probe element missing from stats: %+v", i, stats)
		}
	}
}

// TestBootFetchIgnoresTargetedVersions pins the boot-time contract: a
// "give me the current configuration" fetch (version 0) resolves to the
// latest GLOBAL version, not a canary version a targeted rollout pushed
// past it — otherwise every untargeted late joiner would boot stale.
func TestBootFetchIgnoresTargetedVersions(t *testing.T) {
	ctx := context.Background()
	d, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.AddClient(ctx, "canary", ClientSpec{
		Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP),
		Labels: map[string]string{"ring": "canary"},
	}); err != nil {
		t.Fatal(err)
	}

	if _, err := d.Rollout(ctx, Rollout{
		Version: 1, GraceSeconds: 60,
		Pipeline: mbox.Stock(UseCaseNOP), RuleSets: CommunityRuleSets(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Rollout(ctx, Rollout{
		Version: 2, GraceSeconds: 60,
		Pipeline: mbox.Stock(UseCaseFW), RuleSets: CommunityRuleSets(),
		Target: Selector{Labels: map[string]string{"ring": "canary"}},
	}); err != nil {
		t.Fatal(err)
	}

	blob, err := d.FetchConfig(0)
	if err != nil {
		t.Fatal(err)
	}
	u, err := config.Open(blob, d.CA.PublicKey(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if u.Version != 1 {
		t.Errorf("boot fetch resolved to v%d, want the global v1 (v2 is canary-only)", u.Version)
	}
	// The targeted version stays explicitly fetchable.
	if _, err := d.FetchConfig(2); err != nil {
		t.Errorf("targeted version not fetchable: %v", err)
	}
}

// TestKeepaliveReannouncesTarget simulates a targeted client that missed
// the rollout's one-shot announcement (lost datagram, reconnect): the
// periodic keepalive must re-announce the client's required version —
// its targeted one, not the global current — so it converges instead of
// being rejected forever once the group's grace expires.
func TestKeepaliveReannouncesTarget(t *testing.T) {
	ctx := context.Background()
	d, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cli, err := d.AddClient(ctx, "missed", ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)})
	if err != nil {
		t.Fatal(err)
	}

	// Publish the targeted update and arm the policy WITHOUT the rollout
	// ping reaching the client — the "lost announcement" state.
	fw, err := mbox.Compile(mbox.Stock(UseCaseFW), CommunityRuleSets())
	if err != nil {
		t.Fatal(err)
	}
	u := &config.Update{
		Version: 1, GraceSeconds: 60,
		ClickConfig: fw, RuleSets: CommunityRuleSets(),
	}
	blob, err := config.Seal(u, d.CA.SignConfig, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Server.Configs().Publish(1, blob); err != nil {
		t.Fatal(err)
	}
	if err := d.Server.VPN().Policy().AnnounceTarget([]string{"missed"}, 1, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	if v := cli.AppliedVersion(); v != 0 {
		t.Fatalf("client applied v%d before any announcement", v)
	}

	// The next keepalive must carry the client's targeted version.
	if err := d.Server.BroadcastPing(); err != nil {
		t.Fatal(err)
	}
	if v := cli.AppliedVersion(); v != 1 {
		t.Errorf("keepalive did not re-announce the target: at v%d, want 1 (err: %v)", v, cli.LastUpdateError())
	}
}
