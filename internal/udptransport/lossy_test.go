package udptransport

// Loss-injection tests: the full UDP transport (server serve loop +
// client link) driven through deterministic netsim.Faults impairment.
// These carry the TestLossy prefix CI runs as a dedicated -race job.

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"endbox/internal/netsim"
	"endbox/internal/vpn"
)

// lossyCfg is the ARQ tuning the lossy tests run with: fast timers so a
// full recovery schedule fits in test time.
func lossyCfg() RetransmitConfig {
	return RetransmitConfig{
		Timeout:    25 * time.Millisecond,
		Backoff:    1.5,
		MaxRetries: 10,
		AckDelay:   10 * time.Millisecond,
		Window:     32,
	}
}

// fiveChunkBlob builds a configuration blob spanning exactly five chunks.
func fiveChunkBlob() []byte {
	blob := make([]byte, 4*ChunkPayload+ChunkPayload/2)
	for i := range blob {
		blob[i] = byte(i * 31)
	}
	return blob
}

// startLossyTransport binds a server transport with the given impairment
// on its control-path sends.
func startLossyTransport(t *testing.T, ep *fakeEndpoint, filter SendFilter) *Transport {
	t.Helper()
	tr := NewTransport("127.0.0.1:0")
	tr.SetRetransmit(lossyCfg())
	tr.SetSendFilter(filter)
	if err := tr.BindServer(ep); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return tr
}

// TestLossyConfigFetchFiveChunks is the acceptance scenario: a five-chunk
// configuration publish completes under 15% simulated loss (plus
// duplication and reordering) in both directions, within the retry
// budget, with a deterministic seed.
func TestLossyConfigFetchFiveChunks(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	blob := fiveChunkBlob()
	if chunks, err := EncodeChunks(blob); err != nil || len(chunks) != 5 {
		t.Fatalf("test blob spans %d chunks (err %v), want 5", len(chunks), err)
	}
	ep := &fakeEndpoint{caPub: pub, blob: blob}
	// Server-side impairment: the seeded 15%/5%/5% model, plus a
	// deterministic drop of the 1st and 3rd control datagrams the server
	// sends — the first transmissions of two chunks. Whatever the seeded
	// model does this run, at least two chunks MUST be recovered by
	// retransmission for the fetch to complete.
	serverLoss := netsim.NewFaults(1001, 0.15, 0.05, 0.05)
	var sent atomic.Int64
	serverFilter := func(d []byte, tx func([]byte) error) error {
		switch sent.Add(1) {
		case 1, 3:
			return nil // deterministic chunk loss
		}
		return serverLoss.Filter(d, tx)
	}
	tr := startLossyTransport(t, ep, serverFilter)

	clientLoss := netsim.NewFaults(2002, 0.15, 0.05, 0.05)
	link, err := Dial(ctx, tr.Addr(),
		LinkRetransmit(lossyCfg()),
		LinkSendFilter(clientLoss.Filter))
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	fetched, err := link.FetchConfig(ctx, 1)
	if err != nil {
		t.Fatalf("FetchConfig under 15%% loss: %v (link stats %+v, server stats %+v)",
			err, link.ARQStats(), tr.ARQStats())
	}
	if !bytes.Equal(fetched, blob) {
		t.Fatalf("reassembled blob corrupt: %d bytes vs %d", len(fetched), len(blob))
	}
	srv := tr.ARQStats()
	if srv.Retransmits+srv.FastRetransmit < 2 {
		t.Errorf("the two deterministically dropped chunks were not retransmitted: %+v", srv)
	}
	t.Logf("server ARQ under 15%%/5%%/5%% + 2 forced chunk drops: %+v", srv)
	t.Logf("client ARQ: %+v", link.ARQStats())
}

// TestLossyControlRoundTrips runs the attestation/handshake control
// messages under the same impairment.
func TestLossyControlRoundTrips(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	ep := &fakeEndpoint{caPub: pub, blob: []byte("small")}
	tr := startLossyTransport(t, ep, netsim.NewFaults(7, 0.15, 0.05, 0.05).Filter)

	link, err := Dial(ctx, tr.Addr(),
		LinkRetransmit(lossyCfg()),
		LinkSendFilter(netsim.NewFaults(8, 0.15, 0.05, 0.05).Filter))
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	for i := 0; i < 5; i++ {
		got, err := link.Register(ctx, fmt.Sprintf("lossy-platform-%d", i), pub)
		if err != nil {
			t.Fatalf("Register %d under loss: %v", i, err)
		}
		if !got.Equal(pub) {
			t.Fatalf("Register %d: CA key corrupted in transit", i)
		}
	}
	if _, err := link.Hello(ctx, &vpn.ClientHello{ClientID: "lossy-1"}); err != nil {
		t.Fatalf("Hello under loss: %v", err)
	}
	// Server errors still propagate through the reliable path.
	if _, err := link.Register(ctx, "denied", pub); err == nil {
		t.Error("denied registration succeeded under the reliable path")
	}
	if _, err := link.FetchConfig(ctx, 404); err == nil {
		t.Error("fetch error not propagated under the reliable path")
	}
}

// TestLossyFetchCancelMidRetransmit cancels a configuration fetch while
// the ARQ layer is still retransmitting into a black hole and verifies
// the transfer state and timers are torn down and no goroutine leaks —
// run under -race in CI.
func TestLossyFetchCancelMidRetransmit(t *testing.T) {
	before := runtime.NumGoroutine()
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	ep := &fakeEndpoint{caPub: pub, blob: fiveChunkBlob()}
	// The server answers into a black hole: the client sees nothing, so
	// its request transfer keeps retransmitting until cancelled.
	tr := startLossyTransport(t, ep, func([]byte, func([]byte) error) error { return nil })

	link, err := Dial(context.Background(), tr.Addr(), LinkRetransmit(lossyCfg()))
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()

	ctx, cancel := context.WithCancel(context.Background())
	fetchErr := make(chan error, 1)
	go func() {
		_, err := link.FetchConfig(ctx, 1)
		fetchErr <- err
	}()
	// Let at least one retransmission round happen, then cancel mid-burn.
	time.Sleep(60 * time.Millisecond)
	cancel()
	select {
	case err := <-fetchErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("fetch returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled fetch never returned")
	}
	// The deferred cancel inside FetchConfig must have removed the
	// transfer and stopped its timer.
	if err := waitFor(func() bool {
		sends, _ := link.arq.active()
		return sends == 0
	}); err != nil {
		sends, recvs := link.arq.active()
		t.Fatalf("ARQ state leaked after cancel: %d sends, %d recvs", sends, recvs)
	}
	if err := link.Close(); err != nil {
		t.Fatal(err)
	}
	// After Close every timer is stopped; give late AfterFunc goroutines
	// a moment to drain, then require the goroutine count back to start.
	if err := waitFor(func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2
	}); err != nil {
		t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
	}
}

// TestLossyUnwrappedControlDropped sends control outside a reliable
// envelope, and an unknown datagram type: the server neither handles nor
// answers them, and keeps serving wrapped requests.
func TestLossyUnwrappedControlDropped(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	pub, _, err := ed25519.GenerateKey(nil)
	if err != nil {
		t.Fatal(err)
	}
	ep := &fakeEndpoint{caPub: pub, blob: fiveChunkBlob()}
	tr := startLossyTransport(t, ep, nil)

	link, err := Dial(ctx, tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer link.Close()
	bare, err := EncodeJSON(MsgRegister, Register{PlatformID: "bare", Key: pub})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range [][]byte{bare, Encode('?', []byte("noise"))} {
		if err := link.send(d); err != nil {
			t.Fatal(err)
		}
	}
	// The serve loop is one goroutine: once the wrapped request below has
	// been answered, the datagrams sent before it have been seen.
	if got, err := link.Register(ctx, "wrapped", pub); err != nil || !got.Equal(pub) {
		t.Fatalf("wrapped Register after noise: key %x, err %v", got, err)
	}
	ep.mu.Lock()
	platforms := append([]string(nil), ep.platforms...)
	ep.mu.Unlock()
	if len(platforms) != 1 || platforms[0] != "wrapped" {
		t.Errorf("platforms registered = %v, want only the wrapped request", platforms)
	}
	if st := tr.ARQStats(); st.TransfersSent != 1 {
		t.Errorf("server sent %d transfers, want 1 (the wrapped reply only)", st.TransfersSent)
	}
}

// TestLossyAssemblerHardening feeds the reassembly path inconsistent
// chunk streams and expects typed rejections instead of silent
// corruption.
func TestLossyAssemblerHardening(t *testing.T) {
	mkChunk := func(idx, total int, data []byte) []byte {
		body := make([]byte, 4+len(data))
		body[0], body[1] = byte(idx>>8), byte(idx)
		body[2], body[3] = byte(total>>8), byte(total)
		copy(body[4:], data)
		return body
	}
	full := bytes.Repeat([]byte{0xCC}, ChunkPayload)

	t.Run("total changes mid-fetch", func(t *testing.T) {
		var a Assembler
		if _, err := a.Add(mkChunk(0, 3, full)); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Add(mkChunk(1, 4, full)); !errors.Is(err, ErrChunkMismatch) {
			t.Errorf("err = %v, want ErrChunkMismatch", err)
		}
	})
	t.Run("duplicate with different payload", func(t *testing.T) {
		var a Assembler
		if _, err := a.Add(mkChunk(0, 2, full)); err != nil {
			t.Fatal(err)
		}
		altered := append([]byte(nil), full...)
		altered[17] ^= 0xFF
		if _, err := a.Add(mkChunk(0, 2, altered)); !errors.Is(err, ErrChunkMismatch) {
			t.Errorf("err = %v, want ErrChunkMismatch", err)
		}
	})
	t.Run("identical retransmit absorbed", func(t *testing.T) {
		var a Assembler
		if _, err := a.Add(mkChunk(0, 2, full)); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Add(mkChunk(0, 2, full)); err != nil {
			t.Errorf("idempotent retransmit rejected: %v", err)
		}
		done, err := a.Add(mkChunk(1, 2, []byte("tail")))
		if err != nil || !done {
			t.Fatalf("done=%v err=%v", done, err)
		}
		blob, err := a.Blob()
		if err != nil {
			t.Fatal(err)
		}
		if want := append(append([]byte(nil), full...), []byte("tail")...); !bytes.Equal(blob, want) {
			t.Error("reassembly mismatch")
		}
	})
	t.Run("short non-final chunk rejected", func(t *testing.T) {
		var a Assembler
		if _, err := a.Add(mkChunk(0, 3, []byte("short"))); !errors.Is(err, ErrChunkMismatch) {
			t.Errorf("err = %v, want ErrChunkMismatch", err)
		}
	})
	t.Run("incomplete blob refused", func(t *testing.T) {
		var a Assembler
		if _, err := a.Add(mkChunk(0, 2, full)); err != nil {
			t.Fatal(err)
		}
		if _, err := a.Blob(); !errors.Is(err, ErrChunkMismatch) {
			t.Errorf("Blob on incomplete fetch: err = %v", err)
		}
	})
	t.Run("bad chunk headers rejected", func(t *testing.T) {
		var a Assembler
		if _, err := a.Add([]byte{0, 1}); !errors.Is(err, ErrBadChunk) {
			t.Errorf("short body: err = %v", err)
		}
		if _, err := a.Add(mkChunk(5, 3, full)); !errors.Is(err, ErrBadChunk) {
			t.Errorf("index out of range: err = %v", err)
		}
		oversized := mkChunk(0, 1, bytes.Repeat([]byte{1}, ChunkPayload+1))
		if _, err := a.Add(oversized); !errors.Is(err, ErrBadChunk) {
			t.Errorf("oversized payload: err = %v", err)
		}
	})
}
