package endbox

// Tests for the sharded, pipelined server data plane through the public
// surface: many concurrent clients over the sharded session table, the
// per-client statistics API, the monolithic (1-shard) baseline, and the
// batched ingress path.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"endbox/internal/core"
	"endbox/internal/packet"
	"endbox/internal/vpn"
	"endbox/internal/wire"
	"endbox/mbox"
)

// withShards pins the server session-table shard count, which deployments
// otherwise take from dataplane.DefaultShards — for the tests and
// benchmarks that show one shard and many behave alike.
func withShards(n int) Option {
	return func(o *core.DeploymentOptions) { o.Shards = n }
}

// TestSharded64ClientsConcurrent drives 64 clients through one deployment
// from concurrent goroutines — the sharded-table stress the monolithic
// session map serialised. Run with -race.
func TestSharded64ClientsConcurrent(t *testing.T) {
	ctx := context.Background()
	const clients = 64
	const packetsPerClient = 10

	d, err := New(withShards(16))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := d.Server.VPN().ShardCount(); got != 16 {
		t.Fatalf("ShardCount = %d, want 16", got)
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("shard-c%d", i)
			cli, err := d.AddClient(ctx, id, ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)})
			if err != nil {
				errs <- fmt.Errorf("AddClient(%s): %w", id, err)
				return
			}
			pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1),
				40000, 80, []byte("sharded"))
			batch := make([][]byte, packetsPerClient)
			for j := range batch {
				batch[j] = pkt
			}
			if sent, err := cli.SendPackets(batch); err != nil || sent != packetsPerClient {
				errs <- fmt.Errorf("client %s sent %d/%d: %v", id, sent, packetsPerClient, err)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	agg := d.AggregateStats()
	if agg.RxPackets != clients*packetsPerClient {
		t.Errorf("aggregate RxPackets = %d, want %d", agg.RxPackets, clients*packetsPerClient)
	}
	for i := 0; i < clients; i++ {
		id := fmt.Sprintf("shard-c%d", i)
		st, err := d.ClientStats(id)
		if err != nil {
			t.Errorf("ClientStats(%s): %v", id, err)
			continue
		}
		if st.RxPackets != packetsPerClient {
			t.Errorf("ClientStats(%s).RxPackets = %d, want %d", id, st.RxPackets, packetsPerClient)
		}
	}
}

// TestClientStatsPublicAPI exercises the per-session counters end to end:
// accepted, dropped and echoed traffic all show up in the right fields.
func TestClientStatsPublicAPI(t *testing.T) {
	ctx := context.Background()
	d, err := New(WithEchoNetwork())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cli, err := d.AddClient(ctx, "stats", ClientSpec{
		Mode:     ModeSimulation,
		Pipeline: mbox.Raw("FromDevice -> IPFilter(drop dst host 203.0.113.9, allow all) -> ToDevice;"),
	})
	if err != nil {
		t.Fatal(err)
	}

	ok := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 1, 2, []byte("ok"))
	blocked := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(203, 0, 113, 9), 1, 2, []byte("no"))
	for i := 0; i < 3; i++ {
		if err := cli.SendPacket(ok); err != nil {
			t.Fatal(err)
		}
	}
	_ = cli.SendPacket(blocked) // dropped inside the client's enclave, never reaches the server

	st, err := d.ClientStats("stats")
	if err != nil {
		t.Fatal(err)
	}
	if st.RxPackets != 3 {
		t.Errorf("RxPackets = %d, want 3", st.RxPackets)
	}
	if st.TxPackets != 3 { // echoes back to the client
		t.Errorf("TxPackets = %d, want 3 (echo)", st.TxPackets)
	}
	if st.RxBytes == 0 || st.TxBytes == 0 {
		t.Errorf("byte counters empty: %+v", st)
	}

	if _, err := d.ClientStats("nobody"); err == nil {
		t.Error("ClientStats for unknown client succeeded")
	}
}

// TestMonolithicBaseline pins Shards to 1 — the pre-dataplane single-lock
// table — and demands identical behaviour, so the ablation benchmarks
// compare equals.
func TestMonolithicBaseline(t *testing.T) {
	ctx := context.Background()
	d, err := New(withShards(1), WithEchoNetwork())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got := d.Server.VPN().ShardCount(); got != 1 {
		t.Fatalf("ShardCount = %d, want 1", got)
	}
	cli, err := d.AddClient(ctx, "mono", ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseFW)})
	if err != nil {
		t.Fatal(err)
	}
	pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 40000, 80, []byte("x"))
	if err := cli.SendPacket(pkt); err != nil {
		t.Fatal(err)
	}
	st, err := d.ClientStats("mono")
	if err != nil {
		t.Fatal(err)
	}
	if st.RxPackets != 1 {
		t.Errorf("RxPackets = %d, want 1", st.RxPackets)
	}
}

// captureTransport wraps the in-process transport so a test can divert
// server->client frames into a buffer instead of delivering them — the
// only way to hold a sealed burst in hand.
type captureTransport struct {
	Transport

	mu      sync.Mutex
	capture bool
	frames  [][]byte
}

func (c *captureTransport) SendToClient(clientID string, frame []byte) error {
	c.mu.Lock()
	if c.capture {
		c.frames = append(c.frames, append([]byte(nil), frame...))
		c.mu.Unlock()
		return nil
	}
	c.mu.Unlock()
	return c.Transport.SendToClient(clientID, frame)
}

func (c *captureTransport) take() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	frames := c.frames
	c.frames = nil
	return frames
}

// TestHandleFramesBatchIngress drives the batched ingress path end to end:
// a burst of genuinely sealed server->client frames opened through
// HandleFrames, with ecall accounting proving the whole burst crossed the
// enclave boundary exactly once.
func TestHandleFramesBatchIngress(t *testing.T) {
	ctx := context.Background()
	ct := &captureTransport{Transport: NewInProcessTransport()}
	var received int
	var mu sync.Mutex
	d, err := New(
		WithTransport(ct),
		WithObserver(ObserverFuncs{
			OnReceived: func(string, []byte) { mu.Lock(); received++; mu.Unlock() },
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cli, err := d.AddClient(ctx, "batch-in", ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)})
	if err != nil {
		t.Fatal(err)
	}

	const burst = 16
	ct.mu.Lock()
	ct.capture = true
	ct.mu.Unlock()
	for i := 0; i < burst; i++ {
		ip := packet.NewUDP(packet.AddrFrom(192, 0, 2, 1), packet.AddrFrom(10, 8, 0, 2),
			80, 40000, []byte(fmt.Sprintf("burst-%02d", i)))
		if err := d.Server.VPN().SendTo("batch-in", ip, false); err != nil {
			t.Fatal(err)
		}
	}
	frames := ct.take()
	if len(frames) != burst {
		t.Fatalf("captured %d frames, want %d", len(frames), burst)
	}

	before := cli.EnclaveStats().Ecalls
	handled, err := cli.HandleFrames(frames)
	if err != nil {
		t.Fatalf("HandleFrames: %v", err)
	}
	after := cli.EnclaveStats().Ecalls
	if handled != burst {
		t.Errorf("handled = %d, want %d", handled, burst)
	}
	if got := after - before; got != 1 {
		t.Errorf("batched ingress used %d ecalls for %d frames, want 1", got, burst)
	}
	mu.Lock()
	defer mu.Unlock()
	if received != burst {
		t.Errorf("applications received %d packets, want %d", received, burst)
	}
}

// TestLonePacketErrorIdentity pins that a lone SendPacket or HandleFrame —
// a slab of one across the enclave boundary — still reports WHY a packet
// went nowhere: the result slab's status codes rebuild errors that unwrap
// to the sentinel raised inside the enclave, over either transport.
func TestLonePacketErrorIdentity(t *testing.T) {
	blocked := packet.AddrFrom(203, 0, 113, 9)
	inside, outside := packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1)
	for _, tc := range []struct {
		name      string
		transport func() Transport
	}{
		{"in-process", NewInProcessTransport},
		{"udp", func() Transport { return NewUDPTransport("127.0.0.1:0") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ct := &captureTransport{Transport: tc.transport(), capture: true}
			d, err := New(WithTransport(ct))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			cli, err := d.AddClient(context.Background(), "lone", ClientSpec{
				Mode:     ModeSimulation,
				Pipeline: mbox.Raw("FromDevice -> IPFilter(drop dst host 203.0.113.9, drop src host 203.0.113.9, allow all) -> ToDevice;"),
			})
			if err != nil {
				t.Fatal(err)
			}
			// sealed returns one genuinely sealed server->client frame.
			sealed := func(src packet.Addr) []byte {
				t.Helper()
				if err := d.Server.VPN().SendTo("lone", packet.NewUDP(src, inside, 80, 40000, []byte("reply")), false); err != nil {
					t.Fatal(err)
				}
				frames := ct.take()
				if len(frames) != 1 {
					t.Fatalf("captured %d frames, want 1", len(frames))
				}
				return frames[0]
			}
			// Frames are opened in place, so every attempt gets its own copy.
			clone := func(f []byte) []byte { return append([]byte(nil), f...) }

			if err := cli.SendPacket(packet.NewUDP(inside, blocked, 40000, 80, []byte("exfil"))); !errors.Is(err, vpn.ErrDropped) {
				t.Errorf("egress to a blocked host: err = %v, want vpn.ErrDropped", err)
			}
			good := sealed(outside)
			tampered := clone(good)
			tampered[len(tampered)-1] ^= 1
			if err := cli.HandleFrame(tampered); !errors.Is(err, wire.ErrAuthFailed) {
				t.Errorf("tampered frame: err = %v, want wire.ErrAuthFailed", err)
			}
			if err := cli.HandleFrame(clone(good)); err != nil {
				t.Errorf("genuine frame: %v", err)
			}
			if err := cli.HandleFrame(clone(good)); !errors.Is(err, wire.ErrReplay) {
				t.Errorf("replayed frame: err = %v, want wire.ErrReplay", err)
			}
			if err := cli.HandleFrame(sealed(blocked)); !errors.Is(err, vpn.ErrDropped) {
				t.Errorf("ingress from a blocked host: err = %v, want vpn.ErrDropped", err)
			}
		})
	}
}

// TestBatchedBurstAllocs pins the burst path of the shipped data plane
// (sharded table, one byte-typed ecall per burst): a 32-packet burst
// allocates nothing, stateless or with flow tracking in the pipeline.
func TestBatchedBurstAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const burst, want = 32, 0
	for _, tc := range []struct {
		name     string
		pipeline Pipeline
	}{
		{"nop", mbox.Stock(UseCaseNOP)},
		{"conntrack", mbox.Chain(mbox.ConnTrack(mbox.ConnTrackOptions{}))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, err := New(withShards(16))
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			cli, err := d.AddClient(context.Background(), "burst", ClientSpec{Mode: ModeHardware, Pipeline: tc.pipeline})
			if err != nil {
				t.Fatal(err)
			}
			batch := make([][]byte, burst)
			for i := range batch {
				batch[i] = testPacket(1500)
			}
			got := testing.AllocsPerRun(100, func() {
				if n, err := cli.SendPackets(batch); err != nil || n != burst {
					t.Fatalf("SendPackets = %d, %v", n, err)
				}
			})
			if got > want {
				t.Errorf("%d-packet burst = %.1f allocs, want <= %d", burst, got, want)
			}
		})
	}
}

// TestUDPEchoRoundTripAllocs pins a data packet's whole round trip — app,
// enclave, socket, server ingress, managed-network echo, socket, client
// ingress, app — at the allocation floor. AllocsPerRun counts the whole
// process, so the server's serve loop and pool workers and the link's
// reader and dispatcher are included. Over loopback UDP one allocation per
// operation is tolerated for the runtime (netpoller, scheduler); in-process
// with a hardware-mode enclave inspecting a packet no rule matches, none.
func TestUDPEchoRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const burst = 32
	inside, outside := packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(10, 16, 0, 9)
	for _, tc := range []struct {
		name string
		opts []Option
		spec ClientSpec
		want float64
	}{
		{
			"udp-firewall",
			[]Option{WithTransport(NewUDPTransport("127.0.0.1:0")), WithUDPWorkers(2)},
			ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseFW)},
			1,
		},
		{
			"in-process-hardware-inspect",
			nil,
			ClientSpec{Mode: ModeHardware, Pipeline: mbox.Chain(mbox.ConnTrack(mbox.ConnTrackOptions{Loose: true}), mbox.IDS("community"))},
			0,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			echoed := make(chan struct{}, 2*burst) // an operation has at most burst echoes in flight
			obs := ObserverFuncs{OnReceived: func(string, []byte) { echoed <- struct{}{} }}
			d, err := New(append(tc.opts, WithEchoNetwork(), WithObserver(obs))...)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			cli, err := d.AddClient(context.Background(), "echo", tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			batch := make([][]byte, burst)
			for i := range batch {
				batch[i] = packet.NewUDP(inside, outside, uint16(40000+i), 5201, make([]byte, 64-packet.IPv4HeaderLen-packet.UDPHeaderLen))
			}
			// One timer for the whole test: arming one per wait would
			// allocate inside the measured operation.
			lost := time.NewTimer(30 * time.Second)
			defer lost.Stop()
			await := func(n int) {
				for ; n > 0; n-- {
					select {
					case <-echoed:
					case <-lost.C:
						t.Fatal("echo lost")
					}
				}
			}
			for _, op := range []struct {
				name string
				run  func()
			}{
				{"lone", func() {
					if err := cli.SendPacket(batch[0]); err != nil {
						t.Fatal(err)
					}
					await(1)
				}},
				{"burst", func() {
					if n, err := cli.SendPackets(batch); err != nil || n != burst {
						t.Fatalf("SendPackets = %d, %v", n, err)
					}
					await(burst)
				}},
			} {
				op.run() // warm the buffer pools and the flow table
				if got := testing.AllocsPerRun(200, op.run); got > tc.want {
					t.Errorf("%s round trip = %.2f allocs, want <= %.0f", op.name, got, tc.want)
				} else {
					t.Logf("%s round trip = %.2f allocs", op.name, got)
				}
			}
		})
	}
}
