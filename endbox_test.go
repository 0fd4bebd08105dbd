package endbox

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"endbox/internal/packet"
	"endbox/internal/vpn"
	"endbox/mbox"
)

// TestFacadeRoundTrip drives the whole v1 surface once: functional-option
// construction, AddClient, SendPacket, observer delivery, echo back to the
// client, and a configuration update.
func TestFacadeRoundTrip(t *testing.T) {
	ctx := context.Background()
	var delivered, received, alerts int32
	d, err := New(
		WithEchoNetwork(),
		WithObserver(ObserverFuncs{
			OnDelivered: func(clientID string, ip []byte) {
				if clientID != "laptop-1" {
					t.Errorf("delivered from %q", clientID)
				}
				atomic.AddInt32(&delivered, 1)
			},
			OnReceived: func(string, []byte) { atomic.AddInt32(&received, 1) },
			OnAlert:    func(string, Alert) { atomic.AddInt32(&alerts, 1) },
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	cli, err := d.AddClient(ctx, "laptop-1", ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseFW)})
	if err != nil {
		t.Fatal(err)
	}
	pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 40000, 80, []byte("hi"))
	if err := cli.SendPacket(pkt); err != nil {
		t.Fatal(err)
	}
	if got := atomic.LoadInt32(&delivered); got != 1 {
		t.Errorf("delivered = %d, want 1", got)
	}
	if got := atomic.LoadInt32(&received); got != 1 {
		t.Errorf("received = %d, want 1 (echo)", got)
	}

	if _, err := d.Rollout(ctx, Rollout{
		Version:      1,
		GraceSeconds: 60,
		Pipeline:     mbox.Stock(UseCaseNOP),
		RuleSets:     CommunityRuleSets(),
	}); err != nil {
		t.Fatal(err)
	}
	if v := cli.AppliedVersion(); v != 1 {
		t.Errorf("applied version = %d, want 1 (update error: %v)", v, cli.LastUpdateError())
	}

	addr, ok := d.ClientAddr("laptop-1")
	if !ok || addr != packet.AddrFrom(10, 8, 0, 2) {
		t.Errorf("ClientAddr = %v, %v", addr, ok)
	}
}

// TestOptionComposition checks that repeated WithObserver composes instead
// of overwriting, and that struct options and functional options build the
// same deployment shape.
func TestOptionComposition(t *testing.T) {
	ctx := context.Background()
	var first, second int32
	d, err := New(
		WithWireMode(WireIntegrityOnly),
		WithObserver(ObserverFuncs{OnDelivered: func(string, []byte) { atomic.AddInt32(&first, 1) }}),
		WithObserver(ObserverFuncs{OnDelivered: func(string, []byte) { atomic.AddInt32(&second, 1) }}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cli, err := d.AddClient(ctx, "c", ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)})
	if err != nil {
		t.Fatal(err)
	}
	pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 1, 2, []byte("x"))
	if err := cli.SendPacket(pkt); err != nil {
		t.Fatal(err)
	}
	if first != 1 || second != 1 {
		t.Errorf("observers saw %d/%d events, want 1/1", first, second)
	}
}

// TestConcurrentClients drives 8 clients from concurrent goroutines
// through one Deployment — clients joining, sending (packet and batch) and
// the operator publishing an update mid-flight. Run with -race.
func TestConcurrentClients(t *testing.T) {
	ctx := context.Background()
	const clients = 8
	const packetsPerClient = 40

	var delivered atomic.Int64
	d, err := New(
		WithEchoNetwork(),
		WithObserver(ObserverFuncs{
			OnDelivered: func(string, []byte) { delivered.Add(1) },
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var wg sync.WaitGroup
	errs := make(chan error, clients+1)

	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("c%d", i)
			cli, err := d.AddClient(ctx, id, ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseFW)})
			if err != nil {
				errs <- fmt.Errorf("AddClient(%s): %w", id, err)
				return
			}
			pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, byte(2+i)),
				packet.AddrFrom(192, 0, 2, 1), 40000, 80, []byte("concurrent"))
			half := packetsPerClient / 2
			for j := 0; j < half; j++ {
				if err := cli.SendPacket(pkt); err != nil {
					errs <- fmt.Errorf("client %d packet %d: %w", i, j, err)
					return
				}
			}
			// Second half through the batch API.
			batch := make([][]byte, packetsPerClient-half)
			for j := range batch {
				batch[j] = pkt
			}
			sent, err := cli.SendPackets(batch)
			if err != nil {
				errs <- fmt.Errorf("client %d batch: %w", i, err)
				return
			}
			if sent != len(batch) {
				errs <- fmt.Errorf("client %d batch sent %d/%d", i, sent, len(batch))
			}
		}(i)
	}

	// The operator publishes an update while clients join and send.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := d.Rollout(ctx, Rollout{
			Version:      1,
			GraceSeconds: 300,
			Pipeline:     mbox.Stock(UseCaseFW),
			RuleSets:     CommunityRuleSets(),
		}); err != nil {
			errs <- fmt.Errorf("Rollout: %w", err)
		}
	}()

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	agg := d.Server.VPN().AggregateStats()
	if agg.RxPackets != clients*packetsPerClient {
		t.Errorf("aggregate RxPackets = %d, want %d", agg.RxPackets, clients*packetsPerClient)
	}
	if got := delivered.Load(); got != clients*packetsPerClient {
		t.Errorf("observer delivered = %d, want %d", got, clients*packetsPerClient)
	}
}

// TestSameClientConcurrentSend hammers a single client's data path from
// many goroutines; the enclave's single-TCS serialisation must keep it
// race-free and correct.
func TestSameClientConcurrentSend(t *testing.T) {
	ctx := context.Background()
	d, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cli, err := d.AddClient(ctx, "shared", ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)})
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 4
	const perG = 25
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 1, 2, []byte("x"))
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < perG; j++ {
				if err := cli.SendPacket(pkt); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	st, err := d.Server.VPN().Stats("shared")
	if err != nil {
		t.Fatal(err)
	}
	if st.RxPackets != goroutines*perG {
		t.Errorf("RxPackets = %d, want %d", st.RxPackets, goroutines*perG)
	}
}

// TestBatchSendSemantics checks SendPackets error accounting: dropped
// packets are skipped, the rest of the batch still flows.
func TestBatchSendSemantics(t *testing.T) {
	ctx := context.Background()
	d, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cli, err := d.AddClient(ctx, "c", ClientSpec{
		Mode:     ModeSimulation,
		Pipeline: mbox.Raw("FromDevice -> IPFilter(drop dst host 203.0.113.9, allow all) -> ToDevice;"),
	})
	if err != nil {
		t.Fatal(err)
	}
	ok := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 1, 2, []byte("ok"))
	bad := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(203, 0, 113, 9), 1, 2, []byte("drop"))
	sent, err := cli.SendPackets([][]byte{ok, bad, ok, bad, ok})
	if sent != 3 {
		t.Errorf("sent = %d, want 3", sent)
	}
	if !errors.Is(err, vpn.ErrDropped) {
		t.Errorf("err = %v, want ErrDropped", err)
	}
}

// TestTransportParity runs the identical scenario over the in-process and
// the UDP transport and demands the same behaviour from both: handshake,
// firewall drop, delivery, echo.
func TestTransportParity(t *testing.T) {
	type result struct {
		delivered int
		received  int
		dropErr   bool
	}

	run := func(t *testing.T, transport Transport, extra ...Option) result {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()

		var mu sync.Mutex
		res := result{}
		gotEcho := make(chan struct{}, 8)
		opts := []Option{
			WithEchoNetwork(),
			WithObserver(ObserverFuncs{
				OnDelivered: func(string, []byte) {
					mu.Lock()
					res.delivered++
					mu.Unlock()
				},
				OnReceived: func(string, []byte) {
					mu.Lock()
					res.received++
					mu.Unlock()
					gotEcho <- struct{}{}
				},
			}),
		}
		if transport != nil {
			opts = append(opts, WithTransport(transport))
		}
		opts = append(opts, extra...)
		d, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()

		cli, err := d.AddClient(ctx, "parity", ClientSpec{
			Mode:     ModeSimulation,
			Pipeline: mbox.Raw("FromDevice -> IPFilter(drop dst host 203.0.113.9, allow all) -> ToDevice;"),
		})
		if err != nil {
			t.Fatal(err)
		}

		okPkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 40000, 80, []byte("ok"))
		if err := cli.SendPacket(okPkt); err != nil {
			t.Fatalf("allowed packet: %v", err)
		}
		// The UDP path is asynchronous: wait for the echo.
		select {
		case <-gotEcho:
		case <-ctx.Done():
			t.Fatal("echo never arrived")
		}

		blocked := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(203, 0, 113, 9), 40000, 80, []byte("no"))
		err = cli.SendPacket(blocked)
		res.dropErr = errors.Is(err, vpn.ErrDropped)

		mu.Lock()
		defer mu.Unlock()
		return res
	}

	inproc := run(t, nil)
	udp := run(t, NewUDPTransport("127.0.0.1:0"))
	// The pipelined UDP ingress (worker pool + sharded table) must be
	// behaviourally identical to both.
	udpWorkers := run(t, NewUDPTransport("127.0.0.1:0"), WithUDPWorkers(4), withShards(8))

	if inproc != udp {
		t.Errorf("transport behaviour diverged: in-process %+v, UDP %+v", inproc, udp)
	}
	if inproc != udpWorkers {
		t.Errorf("worker-pool behaviour diverged: in-process %+v, UDP+workers %+v", inproc, udpWorkers)
	}
	if !inproc.dropErr || inproc.delivered != 1 || inproc.received != 1 {
		t.Errorf("unexpected scenario outcome: %+v", inproc)
	}
}

// TestUDPTransportMultipleClients exercises several clients joining one
// deployment over real sockets concurrently.
func TestUDPTransportMultipleClients(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	var delivered atomic.Int64
	d, err := New(
		WithTransport(NewUDPTransport("127.0.0.1:0")),
		WithObserver(ObserverFuncs{
			OnDelivered: func(string, []byte) { delivered.Add(1) },
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("udp-%d", i)
			cli, err := d.AddClient(ctx, id, ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)})
			if err != nil {
				errs <- fmt.Errorf("AddClient(%s): %w", id, err)
				return
			}
			pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, byte(2+i)),
				packet.AddrFrom(192, 0, 2, 1), 40000, 80, []byte("over sockets"))
			for j := 0; j < 5; j++ {
				if err := cli.SendPacket(pkt); err != nil {
					errs <- fmt.Errorf("client %s send: %w", id, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Frames travel over loopback synchronously from the sender's view
	// (SendPacket writes the datagram; the server handles it on its serve
	// goroutine), so give delivery a moment.
	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() < clients*5 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := delivered.Load(); got != clients*5 {
		t.Errorf("delivered = %d, want %d", got, clients*5)
	}
}

// TestContextCancellation checks the threaded contexts actually gate the
// blocking operations.
func TestContextCancellation(t *testing.T) {
	d, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := d.AddClient(cancelled, "c", ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)}); !errors.Is(err, context.Canceled) {
		t.Errorf("AddClient with cancelled ctx: %v", err)
	}
	if _, err := d.Rollout(cancelled, Rollout{
		Version: 1, GraceSeconds: 60, Pipeline: mbox.Stock(UseCaseNOP),
	}); !errors.Is(err, context.Canceled) {
		t.Errorf("Rollout with cancelled ctx: %v", err)
	}

	// The client slot must be reusable after the failed join.
	if _, err := d.AddClient(context.Background(), "c", ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)}); err != nil {
		t.Errorf("AddClient after cancelled attempt: %v", err)
	}
}

// TestObserverReentrancy reacts to an IDS alert by sending a report packet
// through the same client — the callback re-enters the enclave, which must
// not deadlock (alerts are delivered outside the enclave's execution lock).
func TestObserverReentrancy(t *testing.T) {
	ctx := context.Background()
	var cli *Client
	var reports int32
	d, err := New(
		WithObserver(ObserverFuncs{
			OnAlert: func(clientID string, a Alert) {
				report := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2),
					packet.AddrFrom(192, 0, 2, 50), 40000, 514, []byte("ids report"))
				if err := cli.SendPacket(report); err != nil {
					t.Errorf("report send from alert handler: %v", err)
				}
				atomic.AddInt32(&reports, 1)
			},
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cli, err = d.AddClient(ctx, "c", ClientSpec{
		Mode:     ModeSimulation,
		Pipeline: mbox.Raw("FromDevice -> IDSMatcher(RULESET strict, MODE enforce) -> ToDevice;"),
		ExtraRuleSets: map[string]string{
			"strict": `drop tcp any any -> any any (msg:"worm"; content:"X-Worm"; sid:7;)`,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	evil := packet.NewTCP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1),
		40000, 80, 1, 0, packet.TCPAck, []byte("X-Worm payload"))
	if err := cli.SendPacket(evil); !errors.Is(err, vpn.ErrDropped) {
		t.Errorf("worm not dropped: %v", err)
	}
	if got := atomic.LoadInt32(&reports); got != 1 {
		t.Errorf("reports = %d, want 1", got)
	}
}

// TestDuplicateAddClient demands the same duplicate-ID rejection on every
// transport.
func TestDuplicateAddClient(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		transport Transport
	}{
		{"inprocess", nil},
		{"udp", NewUDPTransport("127.0.0.1:0")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var opts []Option
			if tc.transport != nil {
				opts = append(opts, WithTransport(tc.transport))
			}
			d, err := New(opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			first, err := d.AddClient(ctx, "dup", ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.AddClient(ctx, "dup", ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)}); err == nil {
				t.Fatal("duplicate AddClient succeeded")
			}
			// The original client is unharmed.
			pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 1, 2, []byte("x"))
			if err := first.SendPacket(pkt); err != nil {
				t.Errorf("first client broken by duplicate join: %v", err)
			}
		})
	}
}

// TestRemoveClient verifies leave-and-rejoin through the public surface,
// including tunnel-address recycling.
func TestRemoveClient(t *testing.T) {
	ctx := context.Background()
	d, err := New()
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.AddClient(ctx, "c", ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)}); err != nil {
		t.Fatal(err)
	}
	firstAddr, _ := d.ClientAddr("c")
	d.RemoveClient("c")
	if _, ok := d.Client("c"); ok {
		t.Error("client still present after RemoveClient")
	}
	if _, ok := d.ClientAddr("c"); ok {
		t.Error("address still allocated after RemoveClient")
	}
	cli, err := d.AddClient(ctx, "c", ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)})
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	if addr, _ := d.ClientAddr("c"); addr != firstAddr {
		t.Errorf("released address not recycled: %v -> %v", firstAddr, addr)
	}
	pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 1, 2, []byte("x"))
	if err := cli.SendPacket(pkt); err != nil {
		t.Errorf("traffic after rejoin: %v", err)
	}
}
