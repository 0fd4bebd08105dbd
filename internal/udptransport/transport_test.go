package udptransport

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"endbox/internal/attest"
	"endbox/internal/core"
	"endbox/internal/dataplane"
	"endbox/internal/vpn"
)

// fakeEndpoint implements core.ServerEndpoint with canned behaviour, so
// the transport's dispatch and chunking are tested without a deployment.
type fakeEndpoint struct {
	mu        sync.Mutex
	caPub     ed25519.PublicKey
	blob      []byte
	frames    [][]byte
	platforms []string
}

func (f *fakeEndpoint) RegisterPlatform(id string, key ed25519.PublicKey) (ed25519.PublicKey, error) {
	if id == "denied" {
		return nil, fmt.Errorf("platform on deny list")
	}
	f.mu.Lock()
	f.platforms = append(f.platforms, id)
	f.mu.Unlock()
	return f.caPub, nil
}

func (f *fakeEndpoint) Enroll(q attest.Quote) (*attest.Provision, error) {
	return nil, fmt.Errorf("enrolment closed")
}

func (f *fakeEndpoint) AcceptHello(h *vpn.ClientHello) (*vpn.ServerHello, error) {
	return &vpn.ServerHello{ChosenTLS: vpn.TLS13}, nil
}

func (f *fakeEndpoint) AcceptResume(r *vpn.ResumeRequest) (*vpn.ResumeReply, error) {
	return &vpn.ResumeReply{}, nil
}

func (f *fakeEndpoint) HandleFrame(clientID string, frame []byte) error {
	f.mu.Lock()
	f.frames = append(f.frames, append([]byte(nil), frame...))
	f.mu.Unlock()
	return nil
}

func (f *fakeEndpoint) FetchConfig(version uint64) ([]byte, error) {
	if version == 404 {
		return nil, fmt.Errorf("no such version")
	}
	return f.blob, nil
}

func startTransport(t *testing.T, ep core.ServerEndpoint) *Transport {
	t.Helper()
	tr := NewTransport("127.0.0.1:0")
	if err := tr.BindServer(ep); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

func TestTransportControlRoundTrips(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	// A blob spanning several chunks exercises reassembly.
	blob := bytes.Repeat([]byte("endbox-config-"), 10000) // ~140 kB
	ep := &fakeEndpoint{caPub: pub, blob: blob}
	tr := startTransport(t, ep)

	link, err := Dial(ctx, tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	got, err := link.Register(ctx, "platform-1", pub)
	if err != nil {
		t.Fatalf("Register: %v", err)
	}
	if !got.Equal(pub) {
		t.Error("CA key mangled in transit")
	}
	if _, err := link.Register(ctx, "denied", pub); err == nil {
		t.Error("denied registration succeeded")
	}
	if _, err := link.Enroll(ctx, attest.Quote{}); err == nil {
		t.Error("enrolment error not propagated")
	}

	fetched, err := link.FetchConfig(ctx, 1)
	if err != nil {
		t.Fatalf("FetchConfig: %v", err)
	}
	if !bytes.Equal(fetched, blob) {
		t.Errorf("fetched blob differs: %d bytes vs %d", len(fetched), len(blob))
	}
	if _, err := link.FetchConfig(ctx, 404); err == nil {
		t.Error("fetch error not propagated")
	}
}

func TestTransportFramesAfterHello(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	ep := &fakeEndpoint{caPub: pub}
	tr := startTransport(t, ep)

	link, err := Dial(ctx, tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	// Frames from an address the server has not seen a handshake from are
	// rejected, so none reach the endpoint.
	if err := link.SendFrame([]byte("early")); err != nil {
		t.Fatal(err)
	}
	if _, err := link.Hello(ctx, &vpn.ClientHello{ClientID: "c1"}); err != nil {
		t.Fatalf("Hello: %v", err)
	}
	if err := link.SendFrame([]byte("frame-1")); err != nil {
		t.Fatal(err)
	}

	// Server -> client push.
	inbound := make(chan []byte, 1)
	link.SetDeliver(func(frame []byte) error {
		inbound <- append([]byte(nil), frame...)
		return nil
	})
	if err := waitFor(func() bool {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		return len(ep.frames) == 1
	}); err != nil {
		ep.mu.Lock()
		t.Fatalf("server frames = %v (want exactly the post-hello frame)", ep.frames)
	}
	if err := tr.SendToClient("c1", []byte("push-1")); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-inbound:
		if string(f) != "push-1" {
			t.Errorf("pushed frame = %q", f)
		}
	case <-ctx.Done():
		t.Fatal("pushed frame never delivered")
	}

	if err := tr.SendToClient("unknown", []byte("x")); err == nil {
		t.Error("SendToClient to unknown client succeeded")
	}
}

// retainingEndpoint keeps a copy of every frame it is handed. Under the
// pooled-buffer ownership rules a frame is lent to HandleFrame for the
// duration of the call only (the buffer goes back to the receive pool when
// the handler returns), so an endpoint that keeps frames MUST copy — this
// endpoint is the reference implementation of that contract, and the tests
// built on it verify the pool never recycles a buffer before its handler
// has finished reading it.
type retainingEndpoint struct {
	fakeEndpoint
	retained [][]byte
	byClient map[string][][]byte
}

func (r *retainingEndpoint) HandleFrame(clientID string, frame []byte) error {
	kept := append([]byte(nil), frame...) // the ownership rules require the copy
	r.mu.Lock()
	r.retained = append(r.retained, kept)
	if r.byClient == nil {
		r.byClient = make(map[string][][]byte)
	}
	r.byClient[clientID] = append(r.byClient[clientID], kept)
	r.mu.Unlock()
	return nil
}

// TestFrameBodyNotAliased guards the pooled receive buffers' ownership
// handoff: each frame stays stable for the duration of its HandleFrame
// call even while later datagrams arrive, so a handler that copies during
// the call (the contract for retention) always sees the original bytes.
func TestFrameBodyNotAliased(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	ep := &retainingEndpoint{fakeEndpoint: fakeEndpoint{caPub: pub}}
	tr := startTransport(t, ep)

	link, err := Dial(ctx, tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	if _, err := link.Hello(ctx, &vpn.ClientHello{ClientID: "alias"}); err != nil {
		t.Fatal(err)
	}

	const frames = 20
	for i := 0; i < frames; i++ {
		if err := link.SendFrame([]byte(fmt.Sprintf("frame-%02d-padding-so-lengths-overlap", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := waitFor(func() bool {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		return len(ep.retained) == frames
	}); err != nil {
		t.Fatalf("frames did not all arrive: %v", err)
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for i, f := range ep.retained {
		want := fmt.Sprintf("frame-%02d-padding-so-lengths-overlap", i)
		if string(f) != want {
			t.Errorf("retained frame %d clobbered: %q (want %q)", i, f, want)
		}
	}
}

// TestWorkerPoolIngress runs the server with a pipelined ingress pool and
// checks every frame arrives and per-client ordering survives the fan-out.
func TestWorkerPoolIngress(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	ep := &retainingEndpoint{fakeEndpoint: fakeEndpoint{caPub: pub}}
	tr := NewTransport("127.0.0.1:0")
	tr.SetWorkers(4)
	if err := tr.BindServer(ep); err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if got := tr.Workers(); got != 4 {
		t.Fatalf("Workers = %d, want 4", got)
	}

	const clients = 3
	const perClient = 50
	links := make([]*Link, clients)
	for i := range links {
		link, err := Dial(ctx, tr.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer link.Close()
		if _, err := link.Hello(ctx, &vpn.ClientHello{ClientID: fmt.Sprintf("w%d", i)}); err != nil {
			t.Fatal(err)
		}
		links[i] = link
	}
	for j := 0; j < perClient; j++ {
		for i, link := range links {
			if err := link.SendFrame([]byte(fmt.Sprintf("w%d-seq-%03d", i, j))); err != nil {
				t.Fatal(err)
			}
			// Loopback UDP plus a bounded ingress queue: pace slightly so
			// the test asserts ordering, not shedding behaviour.
			if j%16 == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}
	if err := waitFor(func() bool {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		return len(ep.retained) == clients*perClient
	}); err != nil {
		ep.mu.Lock()
		defer ep.mu.Unlock()
		t.Fatalf("only %d/%d frames arrived", len(ep.retained), clients*perClient)
	}
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for i := 0; i < clients; i++ {
		id := fmt.Sprintf("w%d", i)
		got := ep.byClient[id]
		if len(got) != perClient {
			t.Fatalf("%s: %d frames, want %d", id, len(got), perClient)
		}
		for j, f := range got {
			want := fmt.Sprintf("w%d-seq-%03d", i, j)
			if string(f) != want {
				t.Fatalf("%s frame %d out of order: %q (want %q)", id, j, f, want)
			}
		}
	}
}

// TestFloodPathsAllocateNothing pins the two per-datagram drop paths — a
// frame from an address no client is bound to, and a frame shed at the
// ingress watermark — at zero allocations when no Logf is installed: the
// server must not pay the allocator per frame exactly while it is shedding.
func TestFloodPathsAllocateNothing(t *testing.T) {
	ep := &fakeEndpoint{}
	tr := NewTransport(":0")
	known := netip.MustParseAddrPort("192.0.2.7:4000")
	stranger := netip.MustParseAddrPort("198.51.100.9:4000")
	tr.bindAddr("flooder", known)

	// One worker stuck in its handler, one frame queued behind it: the
	// queue sits at the watermark, so every further data frame is shed.
	entered, unblock := make(chan struct{}, 2), make(chan struct{})
	pool := dataplane.NewPool(1, 4, func(string, []byte) {
		entered <- struct{}{}
		<-unblock
	})
	pool.SetWatermark(1)
	defer pool.Close()
	defer close(unblock)
	tr.pool = pool
	datagram := Encode(MsgFrame, []byte("sealed frame"))
	body := datagram[1:]
	if !tr.dispatchFrame(ep, body, datagram, known, false) {
		t.Fatal("first frame not queued")
	}
	<-entered
	if !tr.dispatchFrame(ep, body, datagram, known, false) {
		t.Fatal("second frame not queued")
	}

	for name, from := range map[string]netip.AddrPort{"unknown source": stranger, "shed frame": known} {
		allocs := testing.AllocsPerRun(200, func() {
			if tr.dispatchFrame(ep, body, datagram, from, false) {
				t.Fatal("dropped frame took ownership of the receive buffer")
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per dropped frame, want 0", name, allocs)
		}
	}
	if shed := pool.Stats().Shed; shed < 200 {
		t.Errorf("pool shed %d frames, want >= 200", shed)
	}
}

func waitFor(cond func() bool) error {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("condition not met")
}
