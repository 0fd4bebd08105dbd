package udptransport

// arq.go implements the selective-repeat ARQ layer that makes the
// control/configuration path survive a lossy network (docs/PROTOCOL.md §5).
//
// A reliable *transfer* is an ordered set of segments 0..total-1, each a
// complete inner datagram (type byte + body) wrapped in a MsgRel envelope
// carrying (transfer id, seq, total). The receiver acknowledges with
// MsgAck datagrams carrying a cumulative ack plus a 32-bit selective-ack
// bitmap; the sender keeps a bounded window of unacknowledged segments in
// flight, retransmits on a backed-off timer with a retry budget, and
// fast-retransmits segments a selective ack proves lost. The receiver
// deduplicates (a retransmitted segment is re-acked, not re-delivered)
// and, when a transfer stalls with holes, re-advertises them on a gap
// probe timer so the sender resends exactly the missing chunks instead of
// the receiver timing out the whole fetch.
//
// Transfer IDs are namespaced per direction: an ack for transfer X always
// refers to an outgoing transfer X of the ack's receiver, so the two
// endpoints allocate IDs independently.
//
// Every MsgRel and MsgAck datagram ends in a CRC-32C trailer over the whole
// datagram, checked before anything is decoded: most control messages are
// unsealed JSON, so without it a flipped bit would be delivered (and
// answered with an error) or would acknowledge segments that never
// arrived. A mismatch is dropped silently — corruption behaves like loss.
//
// Data-channel frames (MsgFrame) never pass through this layer: they stay
// fire-and-forget and allocation-free.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"net/netip"
	"sync"
	"time"

	"endbox/internal/core"
)

// RetransmitConfig tunes the ARQ layer; it is defined in internal/core so
// deployments can carry it without importing the transport.
type RetransmitConfig = core.RetransmitConfig

const (
	// relHeaderLen is the MsgRel envelope: type, transfer id, seq, total.
	relHeaderLen = 1 + 4 + 2 + 2
	// ackBodyLen is the MsgAck body: transfer id, cumulative ack, bitmap.
	ackBodyLen = 4 + 2 + 4
	// crcLen is the CRC-32C trailer closing every MsgRel and MsgAck.
	crcLen = 4
	// maxRelInner bounds the inner datagram a single segment can carry.
	maxRelInner = MaxDatagram - relHeaderLen - crcLen
	// maxSegments bounds a transfer's segment count. Derived from
	// MaxChunks so the largest configuration fetch the chunker may
	// produce is always sendable as one transfer (the uint16 seq space
	// is the hard ceiling).
	maxSegments = MaxChunks
	// doneRing is how many completed incoming transfers a peer remembers
	// so late retransmits are re-acked instead of re-delivered.
	doneRing = 128
	// maxRTO caps exponential backoff so long transfers keep probing.
	maxRTO = 5 * time.Second
	// peerSweepThreshold is the peer count above which creating another
	// peer first evicts idle ones — the bound on per-source state an
	// off-path sender can pin by spraying MsgRel datagrams from spoofed
	// addresses.
	peerSweepThreshold = 1024
	// peerIdleTimeout is how long a peer with no in-flight transfers
	// survives without traffic before a sweep may evict it (losing only
	// its duplicate-suppression ring).
	peerIdleTimeout = 60 * time.Second
	// peerSweepMinInterval rate-limits sweeps so a sustained spray costs
	// one map scan per interval, not one per datagram.
	peerSweepMinInterval = time.Second
)

// ErrRetryBudget reports a reliable transfer abandoned after exhausting
// its retransmission budget.
var ErrRetryBudget = fmt.Errorf("udptransport: retransmit budget exhausted")

// ErrLinkClosed reports a transfer aborted because its endpoint closed.
var ErrLinkClosed = fmt.Errorf("udptransport: link closed")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// putCRC fills a datagram's last crcLen bytes with the CRC-32C of
// everything before them and returns the datagram.
func putCRC(datagram []byte) []byte {
	n := len(datagram) - crcLen
	binary.BigEndian.PutUint32(datagram[n:], crc32.Checksum(datagram[:n], castagnoli))
	return datagram
}

// checkCRC verifies a received datagram's trailer and returns its body:
// the datagram without type byte and trailer.
func checkCRC(datagram []byte) ([]byte, bool) {
	n := len(datagram) - crcLen
	if n < 1 {
		return nil, false
	}
	return datagram[1:n], crc32.Checksum(datagram[:n], castagnoli) == binary.BigEndian.Uint32(datagram[n:])
}

// encodeRel wraps one inner datagram in a MsgRel envelope.
func encodeRel(xfer uint32, seq, total uint16, inner []byte) []byte {
	out := make([]byte, relHeaderLen+len(inner)+crcLen)
	out[0] = MsgRel
	binary.BigEndian.PutUint32(out[1:], xfer)
	binary.BigEndian.PutUint16(out[5:], seq)
	binary.BigEndian.PutUint16(out[7:], total)
	copy(out[relHeaderLen:], inner)
	return putCRC(out)
}

// decodeRel splits a MsgRel body (without the type byte and the verified
// trailer) into its header and inner datagram. The inner slice aliases
// body.
func decodeRel(body []byte) (xfer uint32, seq, total uint16, inner []byte, err error) {
	if len(body) < relHeaderLen-1 {
		return 0, 0, 0, nil, fmt.Errorf("udptransport: short reliable envelope (%d bytes)", len(body))
	}
	xfer = binary.BigEndian.Uint32(body)
	seq = binary.BigEndian.Uint16(body[4:])
	total = binary.BigEndian.Uint16(body[6:])
	if total == 0 || seq >= total {
		return 0, 0, 0, nil, fmt.Errorf("udptransport: bad reliable envelope seq %d/%d", seq, total)
	}
	return xfer, seq, total, body[8:], nil
}

// encodeAck builds a MsgAck datagram: cum is the next expected seq (all
// segments below it received); bitmap bit i reports segment cum+i.
func encodeAck(xfer uint32, cum uint16, bitmap uint32) []byte {
	out := make([]byte, 1+ackBodyLen+crcLen)
	out[0] = MsgAck
	binary.BigEndian.PutUint32(out[1:], xfer)
	binary.BigEndian.PutUint16(out[5:], cum)
	binary.BigEndian.PutUint32(out[7:], bitmap)
	return putCRC(out)
}

// decodeAck splits a MsgAck body (without the type byte and the verified
// trailer).
func decodeAck(body []byte) (xfer uint32, cum uint16, bitmap uint32, err error) {
	if len(body) != ackBodyLen {
		return 0, 0, 0, fmt.Errorf("udptransport: bad ack length %d", len(body))
	}
	return binary.BigEndian.Uint32(body),
		binary.BigEndian.Uint16(body[4:]),
		binary.BigEndian.Uint32(body[6:]), nil
}

// ARQStats count the reliability layer's work. Retransmits measure the
// overhead the benchmark records; DupSegments measure how much the
// receiver-side dedupe absorbed.
type ARQStats struct {
	TransfersSent  uint64 // outgoing transfers started
	TransfersDone  uint64 // outgoing transfers fully acknowledged
	TransfersFail  uint64 // outgoing transfers that exhausted the budget
	SegmentsSent   uint64 // first transmissions of a segment
	Retransmits    uint64 // timer-driven retransmissions
	FastRetransmit uint64 // selective-ack-driven retransmissions
	AcksSent       uint64
	DupSegments    uint64 // received segments dropped as duplicates
	GapProbes      uint64 // receiver-initiated hole advertisements
	BadChecksum    uint64 // received MsgRel/MsgAck dropped on a CRC mismatch
}

// arq is one endpoint's ARQ state over a datagram socket, shared by all
// peers reached through that socket (the server) or dedicated to one (a
// client link, whose connected socket needs no address: its one peer is the
// zero AddrPort). A peer is keyed by the address its datagrams come from.
type arq struct {
	cfg      RetransmitConfig
	transmit func(to netip.AddrPort, datagram []byte) error
	logf     func(format string, args ...any)

	mu        sync.Mutex
	closed    bool
	peers     map[netip.AddrPort]*arqPeer
	lastSweep time.Time
	stats     ARQStats
}

// arqPeer is the per-remote-endpoint state.
type arqPeer struct {
	lastSeen time.Time
	nextXfer uint32
	sends    map[uint32]*xmit
	recvs    map[uint32]*recvState
	done     [doneRing]uint32 // ring of recently completed incoming transfers
	doneLen  int
	doneNext int
}

// xmit is one outgoing reliable transfer.
type xmit struct {
	peer     netip.AddrPort
	xfer     uint32
	segs     [][]byte // framed datagrams; nil once acknowledged
	base     int      // lowest unacknowledged seq
	next     int      // next never-sent seq (window edge)
	pending  int      // unacknowledged count
	retries  int
	rto      time.Duration
	timer    *time.Timer
	lastFast time.Time // rate-limits ack-driven retransmission rounds
	// failed reports budget exhaustion or close; buffered so the ARQ
	// never blocks on a caller that stopped listening. Success is not
	// signalled — for requests the response is the signal, for pushed
	// transfers nobody waits.
	failed   chan error
	finished bool
}

// recvState is one incoming reliable transfer being reassembled.
type recvState struct {
	total uint16
	got   []bool
	// busy marks segments whose delivery is in progress outside the lock:
	// a second copy arriving meanwhile is dropped like a lost one, or two
	// serve workers would both deliver it.
	busy   []bool
	count  int
	probes int
	delay  time.Duration
	timer  *time.Timer // gap probe
}

// newARQ creates the layer. transmit is the raw (post-impairment) datagram
// send; logf may be nil.
func newARQ(cfg RetransmitConfig, transmit func(netip.AddrPort, []byte) error, logf func(string, ...any)) *arq {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &arq{
		cfg:      cfg.WithDefaults(),
		transmit: transmit,
		logf:     logf,
		peers:    make(map[netip.AddrPort]*arqPeer),
	}
}

func (a *arq) peer(key netip.AddrPort) *arqPeer {
	p := a.peers[key]
	if p == nil {
		if len(a.peers) >= peerSweepThreshold {
			a.sweepPeersLocked()
		}
		p = &arqPeer{
			// Transfer ids start at a random point: a peer that restarts
			// behind the same key (a fresh Link on a reused ephemeral port)
			// must not replay ids the other side still holds in its done
			// ring, or its first transfers are re-acked as duplicates and
			// never delivered.
			nextXfer: rand.Uint32(),
			sends:    make(map[uint32]*xmit),
			recvs:    make(map[uint32]*recvState),
		}
		a.peers[key] = p
	}
	p.lastSeen = time.Now()
	return p
}

// sweepPeersLocked evicts peers with no in-flight transfers that have
// been silent past the idle timeout, bounding the per-source state the
// open UDP port accumulates (NAT rebinds strand old keys; spoofed
// sources mint fresh ones). Half-open incoming transfers drain through
// the gap-probe budget first, so a swept peer only loses its
// duplicate-suppression ring. Callers hold a.mu.
func (a *arq) sweepPeersLocked() {
	now := time.Now()
	if now.Sub(a.lastSweep) < peerSweepMinInterval {
		return
	}
	a.lastSweep = now
	cutoff := now.Add(-peerIdleTimeout)
	for k, p := range a.peers {
		if len(p.sends) == 0 && len(p.recvs) == 0 && p.lastSeen.Before(cutoff) {
			delete(a.peers, k)
		}
	}
}

// send starts one reliable transfer carrying the given inner datagrams
// (one per segment) and returns a handle the caller may cancel or watch
// for failure. The inners are copied into framed segments; callers may
// reuse their buffers immediately.
func (a *arq) send(peer netip.AddrPort, inners [][]byte) (*xmit, error) {
	if len(inners) == 0 || len(inners) > maxSegments {
		return nil, fmt.Errorf("udptransport: reliable transfer needs 1..%d segments, got %d", maxSegments, len(inners))
	}
	for i, in := range inners {
		if len(in) > maxRelInner {
			return nil, fmt.Errorf("udptransport: segment %d exceeds %d bytes", i, maxRelInner)
		}
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return nil, ErrLinkClosed
	}
	p := a.peer(peer)
	p.nextXfer++
	x := &xmit{
		peer:    peer,
		xfer:    p.nextXfer,
		segs:    make([][]byte, len(inners)),
		pending: len(inners),
		rto:     a.cfg.Timeout,
		failed:  make(chan error, 1),
	}
	total := uint16(len(inners))
	for i, in := range inners {
		x.segs[i] = encodeRel(x.xfer, uint16(i), total, in)
	}
	p.sends[x.xfer] = x
	x.next = min(len(x.segs), a.cfg.Window)
	burst := make([][]byte, x.next)
	copy(burst, x.segs[:x.next])
	a.stats.TransfersSent++
	a.stats.SegmentsSent += uint64(x.next)
	x.timer = time.AfterFunc(x.rto, func() { a.onTimeout(x) })
	a.mu.Unlock()

	for _, seg := range burst {
		if err := a.transmit(peer, seg); err != nil {
			a.logf("udptransport: reliable send to %s: %v", peer, err)
		}
	}
	return x, nil
}

// onTimeout is the sender's RTO: retransmit every unacknowledged segment
// in the window, back off, and give up once the budget is spent.
func (a *arq) onTimeout(x *xmit) {
	a.mu.Lock()
	if a.closed || x.finished {
		a.mu.Unlock()
		return
	}
	p := a.peers[x.peer]
	if p == nil || p.sends[x.xfer] != x {
		a.mu.Unlock()
		return
	}
	x.retries++
	if x.retries > a.cfg.MaxRetries {
		x.finished = true
		delete(p.sends, x.xfer)
		a.stats.TransfersFail++
		a.mu.Unlock()
		x.failed <- fmt.Errorf("%w (transfer %d, %d segments unacknowledged)", ErrRetryBudget, x.xfer, x.pending)
		a.logf("udptransport: transfer %d to %q abandoned after %d retries", x.xfer, x.peer, a.cfg.MaxRetries)
		return
	}
	var resend [][]byte
	for i := x.base; i < x.next; i++ {
		if x.segs[i] != nil {
			resend = append(resend, x.segs[i])
		}
	}
	a.stats.Retransmits += uint64(len(resend))
	x.rto = time.Duration(float64(x.rto) * a.cfg.Backoff)
	if x.rto > maxRTO {
		x.rto = maxRTO
	}
	x.timer.Reset(x.rto)
	a.mu.Unlock()

	for _, seg := range resend {
		if err := a.transmit(x.peer, seg); err != nil {
			a.logf("udptransport: retransmit to %q: %v", x.peer, err)
		}
	}
}

// verify checks a received datagram's trailer (checkCRC), counting a
// mismatch.
func (a *arq) verify(datagram []byte) ([]byte, bool) {
	body, ok := checkCRC(datagram)
	if !ok {
		a.mu.Lock()
		a.stats.BadChecksum++
		a.mu.Unlock()
	}
	return body, ok
}

// handleAck processes one received MsgAck datagram for a peer: advance the
// window, fast-retransmit advertised holes, and open room for unsent
// segments. A corrupted ack is dropped — it must not acknowledge segments
// that never arrived.
func (a *arq) handleAck(peer netip.AddrPort, datagram []byte) {
	body, ok := a.verify(datagram)
	if !ok {
		return
	}
	xfer, cum, bitmap, err := decodeAck(body)
	if err != nil {
		return
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	p := a.peers[peer]
	if p == nil {
		a.mu.Unlock()
		return
	}
	x := p.sends[xfer]
	if x == nil {
		a.mu.Unlock()
		return
	}
	progress := false
	ackSeq := func(i int) {
		if i < len(x.segs) && x.segs[i] != nil {
			x.segs[i] = nil
			x.pending--
			progress = true
		}
	}
	for i := 0; i < int(cum); i++ {
		ackSeq(i)
	}
	highest := -1
	for i := 0; i < 32; i++ {
		if bitmap&(1<<i) != 0 {
			ackSeq(int(cum) + i)
			if int(cum)+i > highest {
				highest = int(cum) + i
			}
		}
	}
	if int(cum) > x.base {
		x.base = int(cum)
	}
	if x.pending == 0 && x.next == len(x.segs) {
		// Fully acknowledged: the transfer is done.
		x.finished = true
		x.timer.Stop()
		delete(p.sends, xfer)
		a.stats.TransfersDone++
		a.mu.Unlock()
		return
	}
	// Selective acks above unacknowledged segments prove those segments
	// lost (packets behind them arrived): resend them now rather than
	// waiting out the RTO. One round per half-RTO — every in-flight ack
	// repeats the same hole evidence, and resending per ack would
	// multiply the recovery traffic without speeding it up.
	var resend [][]byte
	if highest >= 0 && time.Since(x.lastFast) >= x.rto/2 {
		for i := x.base; i < highest && i < x.next; i++ {
			if x.segs[i] != nil {
				resend = append(resend, x.segs[i])
			}
		}
		if len(resend) > 0 {
			x.lastFast = time.Now()
		}
		a.stats.FastRetransmit += uint64(len(resend))
	}
	// Window advanced: feed never-sent segments into the opening.
	var fresh [][]byte
	for x.next < len(x.segs) && x.next < x.base+a.cfg.Window {
		fresh = append(fresh, x.segs[x.next])
		x.next++
	}
	a.stats.SegmentsSent += uint64(len(fresh))
	if progress {
		// Acknowledged progress refills the budget and re-arms the timer
		// at the base timeout: the budget bounds *fruitless* rounds.
		x.retries = 0
		x.rto = a.cfg.Timeout
		x.timer.Reset(x.rto)
	}
	a.mu.Unlock()

	for _, seg := range resend {
		if err := a.transmit(peer, seg); err != nil {
			a.logf("udptransport: fast retransmit to %q: %v", peer, err)
		}
	}
	for _, seg := range fresh {
		if err := a.transmit(peer, seg); err != nil {
			a.logf("udptransport: reliable send to %q: %v", peer, err)
		}
	}
}

// handleRel processes one received MsgRel datagram. A corrupted segment is
// dropped like a lost one: no ack, no delivery, no peer state. deliver
// hands the inner datagram upward and reports whether it was accepted; a
// refused delivery is treated as loss (not acknowledged) so the sender
// retries later. The inner slice aliases datagram and is lent to deliver
// for the duration of the call only.
func (a *arq) handleRel(peer netip.AddrPort, datagram []byte, deliver func(inner []byte) bool) {
	body, ok := a.verify(datagram)
	if !ok {
		return
	}
	xfer, seq, total, inner, err := decodeRel(body)
	if err != nil {
		return
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	p := a.peer(peer)
	for i := 0; i < p.doneLen; i++ {
		if p.done[i] == xfer {
			// A retransmit of a transfer we completed: re-ack so the
			// sender can finish, but deliver nothing twice.
			a.stats.DupSegments++
			a.stats.AcksSent++
			a.mu.Unlock()
			a.sendAck(peer, encodeAck(xfer, total, 0))
			return
		}
	}
	r := p.recvs[xfer]
	if r == nil {
		if int(total) > maxSegments {
			a.mu.Unlock()
			return
		}
		r = &recvState{total: total, got: make([]bool, total), busy: make([]bool, total), delay: a.cfg.AckDelay}
		p.recvs[xfer] = r
	}
	if r.total != total || int(seq) >= len(r.got) {
		// A sender that changes its mind about the segment count is
		// corrupt; drop the envelope.
		a.mu.Unlock()
		return
	}
	if r.got[seq] {
		a.stats.DupSegments++
		ack := r.ack(xfer)
		a.stats.AcksSent++
		a.mu.Unlock()
		a.sendAck(peer, ack)
		return
	}
	if r.busy[seq] {
		a.stats.DupSegments++
		a.mu.Unlock()
		return
	}
	r.busy[seq] = true
	a.mu.Unlock()

	// Delivery happens outside the lock (the server handler may send —
	// and therefore re-enter the ARQ to push its reliable response).
	accepted := deliver(inner)

	a.mu.Lock()
	r.busy[seq] = false
	if a.closed {
		a.mu.Unlock()
		return
	}
	p = a.peers[peer]
	if p == nil {
		a.mu.Unlock()
		return
	}
	r = p.recvs[xfer]
	if r == nil || int(seq) >= len(r.got) {
		a.mu.Unlock()
		return
	}
	if !accepted {
		// The upper layer shed the message (queue full): pretend the
		// segment was lost so the retransmit redelivers it. Arm the gap
		// probe so this half-open transfer still self-expires through
		// the probe budget if the sender gives up before redelivering.
		a.armGapProbe(peer, xfer, r)
		a.mu.Unlock()
		return
	}
	if !r.got[seq] {
		r.got[seq] = true
		r.count++
	}
	complete := r.count == int(r.total)
	ack := r.ack(xfer)
	a.stats.AcksSent++
	if complete {
		if r.timer != nil {
			r.timer.Stop()
		}
		delete(p.recvs, xfer)
		p.rememberDone(xfer)
	} else {
		// Re-arm the gap probe: if the stream stalls with holes, the
		// receiver re-advertises them instead of timing out the fetch.
		// Progress refills the probe budget and resets the probe delay —
		// an earlier stall must not leave later holes waiting out an
		// inflated backed-off delay.
		r.probes = 0
		r.delay = a.cfg.AckDelay
		a.armGapProbe(peer, xfer, r)
	}
	a.mu.Unlock()
	a.sendAck(peer, ack)
}

// ack builds the transfer's current cumulative + selective acknowledgment.
// Callers hold a.mu.
func (r *recvState) ack(xfer uint32) []byte {
	cum := 0
	for cum < len(r.got) && r.got[cum] {
		cum++
	}
	var bitmap uint32
	for i := 0; i < 32 && cum+i < len(r.got); i++ {
		if r.got[cum+i] {
			bitmap |= 1 << i
		}
	}
	return encodeAck(xfer, uint16(cum), bitmap)
}

// rememberDone records a completed incoming transfer for duplicate
// suppression. Callers hold a.mu.
func (p *arqPeer) rememberDone(xfer uint32) {
	p.done[p.doneNext] = xfer
	p.doneNext = (p.doneNext + 1) % doneRing
	if p.doneLen < doneRing {
		p.doneLen++
	}
}

// armGapProbe (re)schedules the receiver's hole advertisement for an
// incomplete transfer. Callers hold a.mu.
func (a *arq) armGapProbe(peer netip.AddrPort, xfer uint32, r *recvState) {
	if r.timer != nil {
		r.timer.Stop()
	}
	r.timer = time.AfterFunc(r.delay, func() { a.onGapProbe(peer, xfer) })
}

// onGapProbe fires when an incomplete transfer has been silent for the
// ack delay: re-send the current ack (advertising the holes) so the
// sender retransmits exactly the missing segments, with its own backoff
// and budget so abandoned transfers do not probe forever.
func (a *arq) onGapProbe(peer netip.AddrPort, xfer uint32) {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	p := a.peers[peer]
	if p == nil {
		a.mu.Unlock()
		return
	}
	r := p.recvs[xfer]
	if r == nil {
		a.mu.Unlock()
		return
	}
	r.probes++
	if r.probes > a.cfg.MaxRetries {
		// The sender is gone; drop the half-assembled transfer.
		if r.timer != nil {
			r.timer.Stop()
		}
		delete(p.recvs, xfer)
		a.mu.Unlock()
		a.logf("udptransport: incoming transfer %d from %q abandoned with %d/%d segments", xfer, peer, r.count, r.total)
		return
	}
	ack := r.ack(xfer)
	a.stats.GapProbes++
	a.stats.AcksSent++
	r.delay = time.Duration(float64(r.delay) * a.cfg.Backoff)
	if r.delay > maxRTO {
		r.delay = maxRTO
	}
	r.timer = time.AfterFunc(r.delay, func() { a.onGapProbe(peer, xfer) })
	a.mu.Unlock()
	a.sendAck(peer, ack)
}

func (a *arq) sendAck(to netip.AddrPort, ack []byte) {
	if err := a.transmit(to, ack); err != nil {
		a.logf("udptransport: ack: %v", err)
	}
}

// cancel abandons an outgoing transfer: the timer is stopped and late
// acks for it are ignored. Safe to call repeatedly and after completion.
func (a *arq) cancel(x *xmit) {
	if x == nil {
		return
	}
	a.mu.Lock()
	if x.finished {
		a.mu.Unlock()
		return
	}
	x.finished = true
	x.timer.Stop()
	if p := a.peers[x.peer]; p != nil {
		delete(p.sends, x.xfer)
	}
	a.mu.Unlock()
}

// close stops every timer and fails every outgoing transfer. The layer
// refuses new work afterwards.
func (a *arq) close() {
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		return
	}
	a.closed = true
	var failed []*xmit
	for _, p := range a.peers {
		for _, x := range p.sends {
			x.finished = true
			x.timer.Stop()
			failed = append(failed, x)
		}
		for _, r := range p.recvs {
			if r.timer != nil {
				r.timer.Stop()
			}
		}
	}
	a.peers = make(map[netip.AddrPort]*arqPeer)
	a.mu.Unlock()
	for _, x := range failed {
		select {
		case x.failed <- ErrLinkClosed:
		default:
		}
	}
}

// active reports in-flight transfer counts (tests assert zero after
// cancellation and close).
func (a *arq) active() (sends, recvs int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, p := range a.peers {
		sends += len(p.sends)
		recvs += len(p.recvs)
	}
	return sends, recvs
}

// snapshot returns the cumulative ARQ counters.
func (a *arq) snapshot() ARQStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.stats
}
