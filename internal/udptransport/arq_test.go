package udptransport

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"endbox/internal/netsim"
)

// testPeer is the peer key the unit tests file every transfer under.
var testPeer = netip.MustParseAddrPort("192.0.2.1:4242")

// fastARQ is the tuning the unit tests run with: real timers, but fast.
func fastARQ() RetransmitConfig {
	return RetransmitConfig{
		Timeout:    20 * time.Millisecond,
		Backoff:    1.5,
		MaxRetries: 8,
		AckDelay:   10 * time.Millisecond,
		Window:     8,
	}
}

// opened verifies a MsgRel/MsgAck datagram's CRC trailer and returns what
// decodeRel/decodeAck take: the datagram without type byte and trailer.
func opened(tb testing.TB, datagram []byte) []byte {
	tb.Helper()
	body, ok := checkCRC(datagram)
	if !ok {
		tb.Fatalf("bad checksum on %x", datagram)
	}
	return body
}

func TestRelEnvelopeRoundTrip(t *testing.T) {
	inner := Encode(MsgFetch, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	seg := encodeRel(0xDEADBEEF, 3, 9, inner)
	if seg[0] != MsgRel {
		t.Fatalf("type %c", seg[0])
	}
	xfer, seq, total, got, err := decodeRel(opened(t, seg))
	if err != nil {
		t.Fatal(err)
	}
	if xfer != 0xDEADBEEF || seq != 3 || total != 9 || !bytes.Equal(got, inner) {
		t.Errorf("round trip: xfer=%x seq=%d total=%d inner=%x", xfer, seq, total, got)
	}
}

func TestRelEnvelopeErrors(t *testing.T) {
	if _, _, _, _, err := decodeRel([]byte{1, 2, 3}); err == nil {
		t.Error("short envelope accepted")
	}
	// total == 0
	if _, _, _, _, err := decodeRel([]byte{0, 0, 0, 1, 0, 0, 0, 0}); err == nil {
		t.Error("zero total accepted")
	}
	// seq >= total
	if _, _, _, _, err := decodeRel([]byte{0, 0, 0, 1, 0, 5, 0, 5}); err == nil {
		t.Error("seq >= total accepted")
	}
}

func TestAckRoundTrip(t *testing.T) {
	ack := encodeAck(7, 12, 0b1010)
	if ack[0] != MsgAck {
		t.Fatalf("type %c", ack[0])
	}
	xfer, cum, bitmap, err := decodeAck(opened(t, ack))
	if err != nil {
		t.Fatal(err)
	}
	if xfer != 7 || cum != 12 || bitmap != 0b1010 {
		t.Errorf("round trip: %d %d %b", xfer, cum, bitmap)
	}
	if _, _, _, err := decodeAck([]byte{1, 2}); err == nil {
		t.Error("short ack accepted")
	}
	if _, _, _, err := decodeAck(make([]byte, ackBodyLen+1)); err == nil {
		t.Error("long ack accepted")
	}
}

// arqPair wires two ARQ endpoints together through goroutine delivery and
// an optional fault filter per direction, mimicking two sockets.
type arqPair struct {
	a, b         *arq
	aRecv, bRecv func(datagram []byte) // dispatch into the receiving side
	wg           sync.WaitGroup
}

// newARQPair builds endpoints a and b. deliverA/deliverB receive inner
// datagrams accepted by the respective endpoint; aFilter/bFilter impair
// the corresponding endpoint's sends (nil = perfect wire).
func newARQPair(cfg RetransmitConfig, aFilter, bFilter SendFilter, deliverA, deliverB func([]byte) bool) *arqPair {
	p := &arqPair{}
	mkTransmit := func(filter SendFilter, to *func(datagram []byte)) func(d []byte) error {
		raw := func(d []byte) error {
			c := append([]byte(nil), d...)
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				(*to)(c)
			}()
			return nil
		}
		if filter == nil {
			return raw
		}
		return func(d []byte) error { return filter(d, raw) }
	}
	aTx := mkTransmit(aFilter, &p.bRecv)
	bTx := mkTransmit(bFilter, &p.aRecv)
	p.a = newARQ(cfg, func(_ netip.AddrPort, d []byte) error { return aTx(d) }, nil)
	p.b = newARQ(cfg, func(_ netip.AddrPort, d []byte) error { return bTx(d) }, nil)
	p.aRecv = func(datagram []byte) {
		switch datagram[0] {
		case MsgRel:
			p.a.handleRel(testPeer, datagram, deliverA)
		case MsgAck:
			p.a.handleAck(testPeer, datagram)
		}
	}
	p.bRecv = func(datagram []byte) {
		switch datagram[0] {
		case MsgRel:
			p.b.handleRel(testPeer, datagram, deliverB)
		case MsgAck:
			p.b.handleAck(testPeer, datagram)
		}
	}
	return p
}

func (p *arqPair) close() {
	p.a.close()
	p.b.close()
	p.wg.Wait()
}

func TestARQTransferPerfectWire(t *testing.T) {
	var mu sync.Mutex
	var got [][]byte
	pair := newARQPair(fastARQ(), nil, nil,
		func([]byte) bool { return true },
		func(inner []byte) bool {
			mu.Lock()
			got = append(got, append([]byte(nil), inner...))
			mu.Unlock()
			return true
		})
	defer pair.close()

	inners := make([][]byte, 20) // > window of 8: exercises window advance
	for i := range inners {
		inners[i] = []byte(fmt.Sprintf("segment-%02d", i))
	}
	x, err := pair.a.send(testPeer, inners)
	if err != nil {
		t.Fatal(err)
	}
	if err := waitFor(func() bool {
		s, _ := pair.a.active()
		return s == 0
	}); err != nil {
		t.Fatalf("transfer never completed: %v", err)
	}
	select {
	case err := <-x.failed:
		t.Fatalf("transfer failed on a perfect wire: %v", err)
	default:
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != len(inners) {
		t.Fatalf("delivered %d/%d segments", len(got), len(inners))
	}
	seen := make(map[string]bool)
	for _, g := range got {
		if seen[string(g)] {
			t.Fatalf("segment %q delivered twice", g)
		}
		seen[string(g)] = true
	}
	if st := pair.a.snapshot(); st.TransfersDone != 1 || st.Retransmits != 0 {
		t.Errorf("stats on a perfect wire: %+v", st)
	}
}

// TestARQRestartedSenderSamePeerKey restarts the sending endpoint behind
// the same peer key — a fresh Link on a reused ephemeral port — while the
// receiver still holds the first incarnation's transfer ids in its done
// ring. The second incarnation's first transfer must be delivered, not
// re-acked as a duplicate of the first's.
func TestARQRestartedSenderSamePeerKey(t *testing.T) {
	var mu sync.Mutex
	var got []string
	pair := newARQPair(fastARQ(), nil, nil,
		func([]byte) bool { return true },
		func(inner []byte) bool {
			mu.Lock()
			got = append(got, string(inner))
			mu.Unlock()
			return true
		})
	defer pair.close()

	send := func(msg string) {
		t.Helper()
		if _, err := pair.a.send(testPeer, [][]byte{[]byte(msg)}); err != nil {
			t.Fatal(err)
		}
		if err := waitFor(func() bool {
			s, _ := pair.a.active()
			return s == 0
		}); err != nil {
			t.Fatalf("transfer %q never completed: %v", msg, err)
		}
		pair.wg.Wait()
	}
	send("first incarnation")
	first := pair.a
	pair.a = newARQ(fastARQ(), first.transmit, nil)
	first.close()
	send("second incarnation")

	mu.Lock()
	defer mu.Unlock()
	if len(got) != 2 || got[1] != "second incarnation" {
		t.Fatalf("delivered %q, want both incarnations' transfers", got)
	}
}

// flipFirstCopies is a SendFilter that flips one seeded bit (never in the
// type byte, so the datagram still reaches the ARQ) in the first copy of
// every distinct datagram; retransmissions pass untouched.
func flipFirstCopies(seed uint64) SendFilter {
	var mu sync.Mutex
	seen := make(map[string]bool)
	rng := rand.New(rand.NewPCG(seed, 0))
	return func(d []byte, transmit func([]byte) error) error {
		mu.Lock()
		first := !seen[string(d)]
		seen[string(d)] = true
		bit := 8 + rng.IntN(8*(len(d)-1))
		mu.Unlock()
		if first {
			d = append([]byte(nil), d...)
			d[bit/8] ^= 1 << (bit % 8)
		}
		return transmit(d)
	}
}

// TestARQCorruptedFirstCopies flips a bit in the first copy of every
// segment and every ack. Corruption must behave exactly like loss: the
// handler only ever sees inner datagrams byte-identical to what was sent,
// each once, and no corrupted ack completes the transfer early.
func TestARQCorruptedFirstCopies(t *testing.T) {
	inners := make([][]byte, 12) // > window of 8: corrupted acks must not open it
	sent := make(map[string]bool)
	for i := range inners {
		inners[i] = []byte(fmt.Sprintf(`{"request":"segment-%02d","padding":"%s"}`, i, strings.Repeat("x", 64)))
		sent[string(inners[i])] = true
	}
	var mu sync.Mutex
	delivered := make(map[string]int)
	pair := newARQPair(fastARQ(), flipFirstCopies(1), flipFirstCopies(2),
		func([]byte) bool { return true },
		func(inner []byte) bool {
			mu.Lock()
			delivered[string(inner)]++
			mu.Unlock()
			return true
		})
	defer pair.close()

	x, err := pair.a.send(testPeer, inners)
	if err != nil {
		t.Fatal(err)
	}
	if err := waitFor(func() bool {
		s, _ := pair.a.active()
		return s == 0
	}); err != nil {
		t.Fatalf("transfer never completed: %v (sender %+v, receiver %+v)", err, pair.a.snapshot(), pair.b.snapshot())
	}
	select {
	case err := <-x.failed:
		t.Fatalf("transfer failed: %v", err)
	default:
	}
	mu.Lock()
	defer mu.Unlock()
	for inner, n := range delivered {
		if !sent[inner] {
			t.Errorf("handler saw an altered datagram: %q", inner)
		} else if n != 1 {
			t.Errorf("segment %q delivered %d times", inner, n)
		}
	}
	if len(delivered) != len(inners) {
		t.Errorf("delivered %d distinct segments, want %d", len(delivered), len(inners))
	}
	// Every segment's and (at least) the first ack's first copy was dropped.
	if st := pair.b.snapshot(); st.BadChecksum < uint64(len(inners)) {
		t.Errorf("receiver BadChecksum = %d, want >= %d", st.BadChecksum, len(inners))
	}
	if st := pair.a.snapshot(); st.BadChecksum == 0 || st.TransfersDone != 1 {
		t.Errorf("sender stats %+v, want corrupted acks dropped and the transfer done", st)
	}
}

func TestARQTransferSurvivesLoss(t *testing.T) {
	// 100 segments through 20% drop + 5% duplication + 5% reorder in both
	// directions: the selective-repeat machinery must deliver all of them
	// exactly once within the retry budget.
	var mu sync.Mutex
	delivered := make(map[string]int)
	lossA := netsim.NewFaults(1, 0.20, 0.05, 0.05)
	lossB := netsim.NewFaults(2, 0.20, 0.05, 0.05)
	pair := newARQPair(fastARQ(), lossA.Filter, lossB.Filter,
		func([]byte) bool { return true },
		func(inner []byte) bool {
			mu.Lock()
			delivered[string(inner)]++
			mu.Unlock()
			return true
		})
	defer pair.close()

	const n = 100
	inners := make([][]byte, n)
	for i := range inners {
		inners[i] = []byte(fmt.Sprintf("lossy-segment-%03d", i))
	}
	x, err := pair.a.send(testPeer, inners)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		s, _ := pair.a.active()
		if s == 0 {
			break
		}
		if time.Now().After(deadline) {
			st := pair.a.snapshot()
			t.Fatalf("transfer stuck: %+v", st)
		}
		select {
		case err := <-x.failed:
			t.Fatalf("budget exhausted at 20%% loss: %v (stats %+v)", err, pair.a.snapshot())
		case <-time.After(5 * time.Millisecond):
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(delivered) != n {
		t.Fatalf("delivered %d/%d distinct segments", len(delivered), n)
	}
	for k, c := range delivered {
		if c != 1 {
			t.Errorf("segment %q delivered %d times (dedupe broken)", k, c)
		}
	}
	st := pair.a.snapshot()
	if st.Retransmits+st.FastRetransmit == 0 {
		t.Error("no retransmissions recorded at 20% loss")
	}
	t.Logf("sender stats at 20%% loss: %+v", st)
	t.Logf("receiver stats: %+v", pair.b.snapshot())
}

func TestARQBudgetExhaustion(t *testing.T) {
	// A black-hole wire: the transfer must fail with ErrRetryBudget in
	// bounded time and leave no state behind.
	blackhole := func(d []byte, _ func([]byte) error) error { return nil }
	pair := newARQPair(fastARQ(), blackhole, nil,
		func([]byte) bool { return true },
		func([]byte) bool { return true })
	defer pair.close()

	x, err := pair.a.send(testPeer, [][]byte{[]byte("doomed")})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-x.failed:
		if !errors.Is(err, ErrRetryBudget) {
			t.Fatalf("failure error = %v, want ErrRetryBudget", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("budget exhaustion never signalled")
	}
	if s, _ := pair.a.active(); s != 0 {
		t.Errorf("%d transfers still tracked after failure", s)
	}
	if st := pair.a.snapshot(); st.TransfersFail != 1 {
		t.Errorf("TransfersFail = %d, want 1", st.TransfersFail)
	}
}

func TestARQCancelStopsTimers(t *testing.T) {
	blackhole := func(d []byte, _ func([]byte) error) error { return nil }
	pair := newARQPair(fastARQ(), blackhole, nil,
		func([]byte) bool { return true },
		func([]byte) bool { return true })
	defer pair.close()

	x, err := pair.a.send(testPeer, [][]byte{[]byte("cancelled")})
	if err != nil {
		t.Fatal(err)
	}
	pair.a.cancel(x)
	pair.a.cancel(x) // idempotent
	if s, _ := pair.a.active(); s != 0 {
		t.Fatalf("%d transfers tracked after cancel", s)
	}
	// The stopped timer must not fire a late failure.
	select {
	case err := <-x.failed:
		t.Fatalf("cancelled transfer signalled failure: %v", err)
	case <-time.After(300 * time.Millisecond):
	}
}

func TestARQCloseFailsPending(t *testing.T) {
	blackhole := func(d []byte, _ func([]byte) error) error { return nil }
	pair := newARQPair(fastARQ(), blackhole, nil,
		func([]byte) bool { return true },
		func([]byte) bool { return true })

	x, err := pair.a.send(testPeer, [][]byte{[]byte("orphaned")})
	if err != nil {
		t.Fatal(err)
	}
	pair.a.close()
	select {
	case err := <-x.failed:
		if !errors.Is(err, ErrLinkClosed) {
			t.Fatalf("failure error = %v, want ErrLinkClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("close never failed the pending transfer")
	}
	if _, err := pair.a.send(testPeer, [][]byte{[]byte("late")}); !errors.Is(err, ErrLinkClosed) {
		t.Errorf("send after close: err = %v, want ErrLinkClosed", err)
	}
	pair.b.close()
	pair.wg.Wait()
}

func TestARQReceiverDedupes(t *testing.T) {
	cfg := fastARQ()
	var acks [][]byte
	var mu sync.Mutex
	a := newARQ(cfg, func(_ netip.AddrPort, d []byte) error {
		mu.Lock()
		acks = append(acks, append([]byte(nil), d...))
		mu.Unlock()
		return nil
	}, nil)
	defer a.close()

	delivered := 0
	deliver := func([]byte) bool { delivered++; return true }
	seg := encodeRel(1, 0, 2, []byte("dup-me"))
	a.handleRel(testPeer, seg, deliver)
	a.handleRel(testPeer, seg, deliver)
	if delivered != 1 {
		t.Fatalf("delivered %d times, want 1", delivered)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(acks) != 2 {
		t.Fatalf("%d acks sent, want 2 (dup re-acked)", len(acks))
	}
	// Both acks advertise the hole at seq 1: cum=1, bitmap 0.
	for i, ack := range acks {
		xfer, cum, bitmap, err := decodeAck(opened(t, ack))
		if err != nil || xfer != 1 || cum != 1 || bitmap != 0 {
			t.Errorf("ack %d = xfer %d cum %d bitmap %b err %v", i, xfer, cum, bitmap, err)
		}
	}
	if st := a.snapshot(); st.DupSegments != 1 {
		t.Errorf("DupSegments = %d, want 1", st.DupSegments)
	}
}

func TestARQCompletedTransferReAcked(t *testing.T) {
	cfg := fastARQ()
	var acks int
	var mu sync.Mutex
	a := newARQ(cfg, func(_ netip.AddrPort, d []byte) error {
		mu.Lock()
		acks++
		mu.Unlock()
		return nil
	}, nil)
	defer a.close()

	delivered := 0
	deliver := func([]byte) bool { delivered++; return true }
	seg := encodeRel(9, 0, 1, []byte("once"))
	a.handleRel(testPeer, seg, deliver)
	// Late retransmits of a completed transfer: re-acked, not re-delivered.
	a.handleRel(testPeer, seg, deliver)
	a.handleRel(testPeer, seg, deliver)
	if delivered != 1 {
		t.Fatalf("delivered %d times, want 1", delivered)
	}
	mu.Lock()
	defer mu.Unlock()
	if acks != 3 {
		t.Fatalf("%d acks, want 3", acks)
	}
	if _, r := a.active(); r != 0 {
		t.Errorf("%d receive states linger after completion", r)
	}
}

func TestARQRefusedDeliveryNotAcked(t *testing.T) {
	// A delivery the upper layer refuses (full queue) must not be marked
	// received: the ack keeps advertising the hole so the sender resends.
	cfg := fastARQ()
	var lastAck []byte
	var mu sync.Mutex
	a := newARQ(cfg, func(_ netip.AddrPort, d []byte) error {
		mu.Lock()
		lastAck = append([]byte(nil), d...)
		mu.Unlock()
		return nil
	}, nil)
	defer a.close()

	refuse := true
	delivered := 0
	deliver := func([]byte) bool {
		if refuse {
			return false
		}
		delivered++
		return true
	}
	seg := encodeRel(4, 0, 1, []byte("try-again"))
	a.handleRel(testPeer, seg, deliver)
	mu.Lock()
	if lastAck != nil {
		mu.Unlock()
		t.Fatal("refused delivery was acknowledged")
	}
	mu.Unlock()
	refuse = false
	a.handleRel(testPeer, seg, deliver) // the retransmit
	if delivered != 1 {
		t.Fatalf("delivered %d times, want 1", delivered)
	}
	mu.Lock()
	defer mu.Unlock()
	if lastAck == nil {
		t.Fatal("accepted delivery not acknowledged")
	}
	if _, cum, _, _ := decodeAck(opened(t, lastAck)); cum != 1 {
		t.Errorf("final ack cum = %d, want 1", cum)
	}
}

func TestARQGapProbeAdvertisesHoles(t *testing.T) {
	// Deliver segment 1 of 3 only, then go silent: the receiver's gap
	// probe must re-advertise cum=0 with bit 1 set, and after the probe
	// budget the half-assembled transfer must be dropped.
	cfg := fastARQ()
	cfg.MaxRetries = 3
	var mu sync.Mutex
	var probes [][]byte
	a := newARQ(cfg, func(_ netip.AddrPort, d []byte) error {
		mu.Lock()
		probes = append(probes, append([]byte(nil), d...))
		mu.Unlock()
		return nil
	}, nil)
	defer a.close()

	seg := encodeRel(2, 1, 3, []byte("middle"))
	a.handleRel(testPeer, seg, func([]byte) bool { return true })
	if err := waitFor(func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(probes) >= 2 // initial ack + at least one gap probe
	}); err != nil {
		t.Fatal("gap probe never fired")
	}
	mu.Lock()
	for i, p := range probes {
		xfer, cum, bitmap, err := decodeAck(opened(t, p))
		if err != nil || xfer != 2 || cum != 0 || bitmap&0b10 == 0 {
			t.Errorf("probe %d = xfer %d cum %d bitmap %b err %v", i, xfer, cum, bitmap, err)
		}
	}
	mu.Unlock()
	// The probe budget eventually abandons the transfer.
	if err := waitFor(func() bool {
		_, r := a.active()
		return r == 0
	}); err != nil {
		t.Fatal("abandoned transfer never cleaned up")
	}
	if st := a.snapshot(); st.GapProbes == 0 {
		t.Error("no gap probes recorded")
	}
}

func TestARQSendValidation(t *testing.T) {
	a := newARQ(fastARQ(), func(_ netip.AddrPort, d []byte) error { return nil }, nil)
	defer a.close()
	if _, err := a.send(testPeer, nil); err == nil {
		t.Error("empty transfer accepted")
	}
	if _, err := a.send(testPeer, make([][]byte, maxSegments+1)); err == nil {
		t.Error("oversized transfer accepted")
	}
	if _, err := a.send(testPeer, [][]byte{make([]byte, maxRelInner+1)}); err == nil {
		t.Error("oversized segment accepted")
	}
}
