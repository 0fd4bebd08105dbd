package vpn

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"endbox/internal/wire"
)

func TestSlabRoundTrip(t *testing.T) {
	entries := [][]byte{
		[]byte("first"),
		nil,
		bytes.Repeat([]byte{0xeb}, 1500),
		[]byte("last"),
	}
	var slab []byte
	slab = AppendSlabEntry(slab, entries[0])
	slab = AppendSlabEntry(slab, entries[1])
	slab = AppendSlabFrame(slab, 0xeb, entries[2][1:]) // opcode+ip form
	slab = AppendSlabEntry(slab, entries[3])

	n, err := SlabCount(slab)
	if err != nil || n != 4 {
		t.Fatalf("SlabCount = %d, %v; want 4, nil", n, err)
	}

	r := NewSlabReader(slab)
	for i := 0; ; i++ {
		entry, ok := r.Next()
		if !ok {
			if i != 4 {
				t.Fatalf("walk stopped after %d entries", i)
			}
			break
		}
		if !bytes.Equal(entry, entries[i]) {
			t.Fatalf("entry %d = %q, want %q", i, entry, entries[i])
		}
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

func TestSlabReaderMalformed(t *testing.T) {
	for name, slab := range map[string][]byte{
		"truncated header": {0, 0, 1},
		"overrun entry":    {0, 0, 0, 9, 'x'},
	} {
		r := NewSlabReader(slab)
		for {
			if _, ok := r.Next(); !ok {
				break
			}
		}
		if r.Err() == nil {
			t.Errorf("%s: walk accepted malformed slab", name)
		}
	}
}

func TestResultSlabRoundTrip(t *testing.T) {
	var slab []byte
	slab = AppendResultOK(slab, []byte("frame-one"))
	slab = AppendResultErr(slab, fmt.Errorf("%w (by filter)", ErrDropped))
	slab = AppendResultErr(slab, fmt.Errorf("%w: id 9", wire.ErrReplay))
	slab = AppendResultErr(slab, wire.ErrAuthFailed)
	slab = AppendResultErr(slab, errors.New("something else"))
	var window []byte
	slab, window = AppendResultReserve(slab, 7)
	copy(window, "reserve")

	r := NewResultReader(slab)
	data, err, ok := r.Next()
	if !ok || err != nil || string(data) != "frame-one" {
		t.Fatalf("entry 0: %q, %v, %v", data, err, ok)
	}
	wantSentinels := []error{ErrDropped, wire.ErrReplay, wire.ErrAuthFailed, nil}
	wantMsgs := []string{"vpn: packet dropped by middlebox (by filter)", "wire: replayed or stale packet ID: id 9",
		wire.ErrAuthFailed.Error(), "something else"}
	for i, sentinel := range wantSentinels {
		_, err, ok := r.Next()
		if !ok || err == nil {
			t.Fatalf("entry %d: missing error", i+1)
		}
		if sentinel != nil && !errors.Is(err, sentinel) {
			t.Errorf("entry %d does not unwrap to %v (got %v)", i+1, sentinel, err)
		}
		if err.Error() != wantMsgs[i] {
			t.Errorf("entry %d message = %q, want %q", i+1, err, wantMsgs[i])
		}
	}
	data, err, ok = r.Next()
	if !ok || err != nil || string(data) != "reserve" {
		t.Fatalf("reserved entry: %q, %v, %v", data, err, ok)
	}
	if _, _, ok := r.Next(); ok {
		t.Fatal("walk returned a 7th entry")
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
}

// slabPlane adapts a wire session pair into a counting DataPlane, so
// the client's slab paths can be tested without an enclave.
type slabPlane struct {
	seal   *wire.Session // client->server direction
	open   *wire.Session // server->client direction (recv side)
	budget int
	calls  int // slab crossings, the ecall count stand-in
}

func (p *slabPlane) SlabBudget() int { return p.budget }

func (p *slabPlane) SealSlab(slab []byte) ([]byte, error) {
	p.calls++
	n, err := SlabCount(slab)
	if err != nil {
		return nil, err
	}
	res := wire.GetBuffer(len(slab) + n*slabResultOverhead)[:0]
	r := NewSlabReader(slab)
	for {
		payload, ok := r.Next()
		if !ok {
			break
		}
		if len(payload) > 1 && payload[1] == 'X' { // test hook: drop
			res = AppendResultErr(res, fmt.Errorf("%w (by test)", ErrDropped))
			continue
		}
		var window []byte
		res, window = AppendResultReserve(res, p.seal.SealedLen(len(payload)))
		if _, err := p.seal.SealTo(payload, window); err != nil {
			return nil, err
		}
	}
	return res, r.Err()
}

func (p *slabPlane) OpenSlab(slab []byte) ([]byte, error) {
	p.calls++
	res := wire.GetBuffer(len(slab))[:0]
	r := NewSlabReader(slab)
	for {
		frame, ok := r.Next()
		if !ok {
			break
		}
		payload, err := p.open.OpenInPlace(frame)
		if err != nil {
			res = AppendResultErr(res, err)
			continue
		}
		res = AppendResultOK(res, payload)
	}
	return res, r.Err()
}

func newSlabPlanePair(t *testing.T, budget int) (cli *slabPlane, srv *wire.Session, down *wire.Session) {
	t.Helper()
	master := []byte("slab-plane-master")
	up, err := wire.NewSession(master, wire.ModeEncrypted, true)
	if err != nil {
		t.Fatal(err)
	}
	upSrv, err := wire.NewSession(master, wire.ModeEncrypted, false)
	if err != nil {
		t.Fatal(err)
	}
	return &slabPlane{seal: up, open: up, budget: budget}, upSrv, upSrv
}

// TestSendPacketsSlab drives the client's slab egress end to end: every
// packet crosses in chunked slabs, drops are reported per packet with
// ErrDropped identity, and frames decrypt correctly on the server side.
func TestSendPacketsSlab(t *testing.T) {
	plane, srv, _ := newSlabPlanePair(t, 4096)
	var got [][]byte
	cli, err := NewClient(ClientOptions{
		ID:    "slab-client",
		Plane: plane,
		Send: func(frame []byte) error {
			payload, err := srv.OpenInPlace(frame)
			if err != nil {
				return err
			}
			got = append(got, append([]byte(nil), payload[1:]...))
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	ips := make([][]byte, 40) // forces several slab flushes at budget 4096
	for i := range ips {
		ips[i] = bytes.Repeat([]byte{byte(i + 1)}, 300)
	}
	ips[7] = []byte("X-drop-me") // the plane's drop hook
	sent, err := cli.SendPackets(ips)
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("first error = %v, want ErrDropped", err)
	}
	if sent != len(ips)-1 {
		t.Fatalf("sent = %d, want %d", sent, len(ips)-1)
	}
	if plane.calls >= len(ips) {
		t.Fatalf("slab path crossed %d times for %d packets", plane.calls, len(ips))
	}
	wantIdx := 0
	for i, ip := range ips {
		if i == 7 {
			continue
		}
		if !bytes.Equal(got[wantIdx], ip) {
			t.Fatalf("packet %d corrupted in slab transit", i)
		}
		wantIdx++
	}
}

// TestHandleFramesSlab drives the client's slab ingress: a burst of sealed
// frames crosses in one slab and every payload is delivered intact.
func TestHandleFramesSlab(t *testing.T) {
	master := []byte("slab-ingress-master")
	srvSess, err := wire.NewSession(master, wire.ModeEncrypted, false)
	if err != nil {
		t.Fatal(err)
	}
	cliSess, err := wire.NewSession(master, wire.ModeEncrypted, true)
	if err != nil {
		t.Fatal(err)
	}
	plane := &slabPlane{seal: cliSess, open: cliSess, budget: 64 << 10}

	var delivered [][]byte
	cli, err := NewClient(ClientOptions{
		ID:    "slab-ingress",
		Plane: plane,
		Send:  func([]byte) error { return nil },
		Deliver: func(ip []byte) {
			delivered = append(delivered, append([]byte(nil), ip...))
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	const burst = 16
	frames := make([][]byte, burst)
	for i := range frames {
		payload := append([]byte{FrameData}, bytes.Repeat([]byte{byte(i)}, 200)...)
		frames[i], err = srvSess.Seal(payload)
		if err != nil {
			t.Fatal(err)
		}
	}
	handled, err := cli.HandleFrames(frames)
	if err != nil || handled != burst {
		t.Fatalf("HandleFrames = %d, %v; want %d, nil", handled, err, burst)
	}
	if plane.calls != 1 {
		t.Fatalf("burst crossed %d times, want 1", plane.calls)
	}
	for i, ip := range delivered {
		if !bytes.Equal(ip, bytes.Repeat([]byte{byte(i)}, 200)) {
			t.Fatalf("delivered packet %d corrupted", i)
		}
	}
	// Replayed frames fail per frame with replay identity, not batch-wide.
	handled, err = cli.HandleFrames(frames[:2])
	if handled != 0 || !errors.Is(err, wire.ErrReplay) {
		t.Fatalf("replayed burst: handled=%d err=%v, want 0, ErrReplay", handled, err)
	}
}
