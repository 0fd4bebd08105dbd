package udptransport

import (
	"context"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"
	"time"

	"endbox/internal/attest"
	"endbox/internal/core"
	"endbox/internal/dataplane"
	"endbox/internal/netsim"
	"endbox/internal/policy"
	"endbox/internal/vpn"
	"endbox/internal/wire"
)

// typedServerErrors are the sentinel errors a client must be able to
// errors.Is-match even though MsgError carries only text: admission and
// policy refusals that callers branch on (retry vs give up vs re-attest).
// serverError re-types a MsgError body whose text embeds one of them.
var typedServerErrors = []error{
	attest.ErrMeasurementDenied,
	attest.ErrBadMeasurement,
	policy.ErrBuildRevoked,
}

// remoteError is a server-reported error whose text identified a known
// sentinel: Error() preserves the wire text, Unwrap() restores the typed
// identity for errors.Is.
type remoteError struct {
	msg      string
	sentinel error
}

func (e *remoteError) Error() string { return e.msg }
func (e *remoteError) Unwrap() error { return e.sentinel }

// serverError turns a MsgError body into the error a client call returns,
// re-typing it when the text embeds a known sentinel so refusals like
// ErrMeasurementDenied survive the wire with their identity intact.
func serverError(body []byte) error {
	msg := "udptransport: server: " + string(body)
	for _, sentinel := range typedServerErrors {
		if strings.Contains(string(body), sentinel.Error()) {
			return &remoteError{msg: msg, sentinel: sentinel}
		}
	}
	return fmt.Errorf("%s", msg)
}

// SendFilter intercepts control-path datagram transmission: it receives
// the outgoing datagram and the raw transmit function and decides what
// actually reaches the wire — dropping (return without transmitting),
// duplicating, or holding datagrams back. It is the loss-injection seam
// the ARQ layer is tested through; netsim.Faults provides a deterministic
// seeded implementation. The datagram is lent for the duration of the
// call. Data-channel frames (MsgFrame pushes and SendFrame) bypass the
// filter: impairment, like reliability, is a control-path concern here.
type SendFilter func(datagram []byte, transmit func([]byte) error) error

// ShedCounter is optionally implemented by server endpoints that want
// per-client accounting of frames shed by ingress overload protection
// (core.Deployment records them in the client's VIF statistics).
type ShedCounter interface {
	FrameShed(clientID string)
}

// Transport implements core.Transport over real UDP sockets: the server
// side binds one datagram socket and dispatches control messages into the
// deployment's ServerEndpoint; each client link dials its own socket. The
// same Deployment code that runs in-process therefore runs across machines
// unchanged — cmd/endbox-server and cmd/endbox-client are thin wrappers
// around this type.
//
// Control and configuration messages ride the selective-repeat ARQ layer
// (arq.go): requests arrive wrapped in MsgRel envelopes, responses —
// including multi-chunk configuration fetches — are pushed back as reliable
// transfers that are retransmitted until acknowledged. Control datagrams
// that arrive unwrapped are dropped.
type Transport struct {
	listen string
	// Logf, if set before BindServer, receives connection-level log lines
	// (registrations, handshakes, send failures).
	Logf func(format string, args ...any)

	mu         sync.Mutex
	ep         core.ServerEndpoint
	conn       *net.UDPConn
	addrs      map[string]netip.AddrPort // client ID -> last UDP address
	byAddr     map[netip.AddrPort]string // UDP address -> client ID (reverse index)
	closed     bool
	workers    int             // ingress pool width; 0 = handle frames inline
	pool       *dataplane.Pool // set by BindServer when workers > 0
	retransmit RetransmitConfig
	filter     SendFilter
	faults     *netsim.Faults // set by SetLossProfile; nil otherwise
	arq        *arq           // set by BindServer
}

// NewTransport creates a UDP transport that will listen on the given
// address once a server binds to it. Use ":0" to pick a free port (the
// effective address is available from Addr after BindServer).
func NewTransport(listen string) *Transport {
	return &Transport{
		listen: listen,
		addrs:  make(map[string]netip.AddrPort),
		byAddr: make(map[netip.AddrPort]string),
	}
}

func (t *Transport) logf(format string, args ...any) {
	if t.Logf != nil {
		t.Logf(format, args...)
	}
}

// SetWorkers implements core.WorkerTransport: pipeline the server's frame
// ingress across n workers. Frames from one client stay pinned to one
// worker (placement by the dataplane hash), preserving per-client
// ordering; control messages keep running on the serve goroutine, whose
// request/response pattern needs no pipelining. Must be called before
// BindServer.
func (t *Transport) SetWorkers(n int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.workers = n
}

// Workers reports the configured ingress pool width.
func (t *Transport) Workers() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.workers
}

// SetRetransmit implements core.ReliableTransport: tune the control-path
// ARQ layer. Must be called before BindServer. Client links opened through
// Link inherit the configuration, so both directions of a deployment share
// one tuning.
func (t *Transport) SetRetransmit(cfg RetransmitConfig) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.retransmit = cfg
}

// SetLossProfile implements core.LossyTransport: apply deterministic
// seeded impairment (netsim.Faults) to every control-path datagram this
// transport and the client links it creates send. Must be called before
// BindServer; a zero profile removes the filter.
func (t *Transport) SetLossProfile(p core.LossProfile) {
	if p.Zero() {
		t.mu.Lock()
		t.faults = nil
		t.mu.Unlock()
		t.SetSendFilter(nil)
		return
	}
	f := netsim.NewFaults(p.Seed, p.Drop, p.Duplicate, p.Reorder)
	f.SetCorruptEvery(p.CorruptEvery)
	t.mu.Lock()
	t.faults = f
	t.mu.Unlock()
	t.SetSendFilter(f.Filter)
}

// FaultStats reports the injected-impairment counters of the loss profile
// installed by SetLossProfile (zero value when none is installed) — how
// many control-path datagrams were genuinely dropped, duplicated,
// reordered or corrupted during a chaos run.
func (t *Transport) FaultStats() netsim.FaultStats {
	t.mu.Lock()
	f := t.faults
	t.mu.Unlock()
	if f == nil {
		return netsim.FaultStats{}
	}
	return f.Stats()
}

// SetSendFilter installs a raw control-path send filter (the seam behind
// SetLossProfile). Must be called before BindServer.
func (t *Transport) SetSendFilter(f SendFilter) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.filter = f
}

// ARQStats reports the server-side reliability counters (zero value while
// the transport is not bound).
func (t *Transport) ARQStats() ARQStats {
	t.mu.Lock()
	a := t.arq
	t.mu.Unlock()
	if a == nil {
		return ARQStats{}
	}
	return a.snapshot()
}

// transmitTo writes one control-path datagram through the send filter.
func (t *Transport) transmitTo(conn *net.UDPConn, to netip.AddrPort, datagram []byte) error {
	t.mu.Lock()
	filter := t.filter
	t.mu.Unlock()
	raw := func(d []byte) error {
		_, err := conn.WriteToUDPAddrPort(d, to)
		return err
	}
	if filter != nil {
		return filter(datagram, raw)
	}
	return raw(datagram)
}

// Addr returns the bound server address (valid after BindServer).
func (t *Transport) Addr() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.conn == nil {
		return t.listen
	}
	return t.conn.LocalAddr().String()
}

// BindServer implements core.Transport: bind the socket and start the
// datagram dispatch loop.
func (t *Transport) BindServer(ep core.ServerEndpoint) error {
	addr, err := net.ResolveUDPAddr("udp", t.listen)
	if err != nil {
		return err
	}
	conn, err := net.ListenUDP("udp", addr)
	if err != nil {
		return err
	}
	// Deep receive buffer (best effort; the kernel clamps to rmem_max):
	// a configuration fetch answers with a burst of ~60 kB chunks, and
	// every chunk the socket sheds is a retransmission round-trip.
	_ = conn.SetReadBuffer(recvBufferSize)
	t.mu.Lock()
	if t.ep != nil {
		t.mu.Unlock()
		conn.Close()
		return fmt.Errorf("udptransport: transport already bound")
	}
	t.ep = ep
	t.conn = conn
	a := newARQ(t.retransmit, func(to netip.AddrPort, datagram []byte) error {
		return t.transmitTo(conn, to, datagram)
	}, t.logf)
	t.arq = a
	if t.workers > 0 {
		t.pool = dataplane.NewPool(t.workers, 0, func(clientID string, frame []byte) {
			if err := ep.HandleFrame(clientID, frame); err != nil && t.Logf != nil {
				t.Logf("frame from %s: %v", clientID, err)
			}
		})
		// Receive buffers travel with their frames through the worker
		// queues and return to the shared pool as soon as the handler is
		// done — the zero-copy replacement for the old copy-before-dispatch.
		t.pool.SetRelease(wire.PutBuffer)
		// Overload shedding: data frames are shed drop-newest once a
		// worker queue passes the watermark, so a flood costs throughput
		// instead of collapsing latency for everyone behind the queue.
		// Per-client shed counts land in the VIF statistics when the
		// endpoint can record them.
		t.pool.SetWatermark(dataplane.DefaultWatermark)
		if sc, ok := ep.(ShedCounter); ok {
			t.pool.SetOnShed(sc.FrameShed)
		}
	}
	t.mu.Unlock()
	go t.serve(conn, ep, a)
	return nil
}

// serve is the datagram dispatch loop. Datagrams land in pooled receive
// buffers; a buffer is reused for the next read unless a frame dispatch
// transferred its ownership to the worker pool.
func (t *Transport) serve(conn *net.UDPConn, ep core.ServerEndpoint, a *arq) {
	buf := wire.GetBuffer(MaxDatagram)
	defer func() { wire.PutBuffer(buf) }()
	for {
		n, from, err := conn.ReadFromUDPAddrPort(buf[:MaxDatagram])
		if err != nil {
			t.mu.Lock()
			closed := t.closed
			t.mu.Unlock()
			if !closed {
				// An unexpected socket failure, not a deliberate Close: say
				// so loudly instead of leaving a silently deaf server.
				t.logf("udptransport: server socket failed, no longer serving: %v", err)
			}
			return
		}
		msgType, body, err := Decode(buf[:n])
		if err != nil {
			continue
		}
		if msgType == MsgFrame || msgType == MsgControl {
			if t.dispatchFrame(ep, body, buf[:n], from, msgType == MsgControl) {
				buf = wire.GetBuffer(MaxDatagram)
			}
			continue
		}
		switch msgType {
		case MsgRel:
			// Unwrap, acknowledge and deduplicate; on first delivery run
			// the control handler and push its response (single datagram
			// or a whole chunked configuration) as a reliable transfer.
			a.handleRel(from, buf[:n], func(inner []byte) bool {
				innerType, innerBody, err := Decode(inner)
				if err != nil || innerType == MsgFrame || innerType == MsgControl {
					return true // swallow: never re-deliver garbage
				}
				resp := t.handle(ep, innerType, innerBody, from)
				if len(resp) > 0 {
					if _, err := a.send(from, resp); err != nil {
						t.logf("udptransport: reliable reply to %s: %v", from, err)
					}
				}
				return true
			})
		case MsgAck:
			a.handleAck(from, buf[:n])
		}
		// Anything else is control that arrived outside a reliable
		// envelope, or an unknown type: dropped, never answered.
	}
}

// dispatchFrame routes one data frame, reporting whether ownership of the
// receive buffer (owner, whose tail is the frame body) moved to the worker
// pool. Without a pool the frame is handled inline on the serve goroutine:
// the endpoint may decrypt in place and must be done with the buffer when
// it returns — the buffer is only reused for the next datagram afterwards,
// which is the aliasing guarantee the old per-datagram copy bought, now
// for free. Control-class frames (MsgControl) are submitted past the
// shedding watermark so a data flood cannot starve them. The per-datagram
// log lines test Logf themselves instead of going through logf: boxing
// their arguments would allocate per dropped frame with nobody listening.
func (t *Transport) dispatchFrame(ep core.ServerEndpoint, body, owner []byte, from netip.AddrPort, control bool) bool {
	t.mu.Lock()
	clientID := t.byAddr[from]
	pool := t.pool
	t.mu.Unlock()
	if clientID == "" {
		// Data frames are fire-and-forget: replying with MsgError would
		// land in the sender's control queue and poison its next control
		// round trip, so just drop and log.
		if t.Logf != nil {
			t.Logf("udptransport: frame from unknown address %s dropped", from)
		}
		return false
	}
	if pool != nil {
		submit := pool.SubmitOwned
		if control {
			submit = pool.SubmitControlOwned
		}
		if !submit(clientID, body, owner) {
			if t.Logf != nil {
				t.Logf("udptransport: ingress queue full, frame from %s shed", clientID)
			}
			return false
		}
		return true
	}
	if err := ep.HandleFrame(clientID, body); err != nil && t.Logf != nil {
		t.Logf("frame from %s: %v", clientID, err)
	}
	return false
}

// bindAddr records the address a client's handshake or resume came from,
// dropping the reverse entry of the address it had before.
func (t *Transport) bindAddr(clientID string, from netip.AddrPort) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if prev, ok := t.addrs[clientID]; ok {
		delete(t.byAddr, prev)
	}
	t.addrs[clientID] = from
	t.byAddr[from] = clientID
}

// handle processes one control message and returns the response datagrams
// (nil for none; a configuration fetch yields the whole chunk list), which
// the caller pushes back as one reliable transfer.
func (t *Transport) handle(ep core.ServerEndpoint, msgType byte, body []byte, from netip.AddrPort) [][]byte {
	one := func(d []byte) [][]byte { return [][]byte{d} }
	switch msgType {
	case MsgRegister:
		var reg Register
		if err := DecodeJSON(body, &reg); err != nil {
			return one(Errorf("register: %v", err))
		}
		caPub, err := ep.RegisterPlatform(reg.PlatformID, reg.Key)
		if err != nil {
			return one(Errorf("register refused: %v", err))
		}
		t.logf("registered platform %s", reg.PlatformID)
		return one(Encode(MsgRegisterOK, caPub))

	case MsgQuote:
		var quote attest.Quote
		if err := DecodeJSON(body, &quote); err != nil {
			return one(Errorf("quote: %v", err))
		}
		prov, err := ep.Enroll(quote)
		if err != nil {
			return one(Errorf("enrolment refused: %v", err))
		}
		resp, err := EncodeJSON(MsgProvision, prov)
		if err != nil {
			return one(Errorf("provision: %v", err))
		}
		t.logf("enrolled platform %s (measurement %s)", quote.PlatformID, quote.Report.Measurement)
		return one(resp)

	case MsgHello:
		var hello vpn.ClientHello
		if err := DecodeJSON(body, &hello); err != nil {
			return one(Errorf("hello: %v", err))
		}
		sh, err := ep.AcceptHello(&hello)
		if err != nil {
			return one(Errorf("handshake refused: %v", err))
		}
		t.bindAddr(hello.ClientID, from)
		resp, err := EncodeJSON(MsgServerHello, sh)
		if err != nil {
			return one(Errorf("server hello: %v", err))
		}
		t.logf("client %s connected from %s", hello.ClientID, from)
		return one(resp)

	case MsgResume:
		var req vpn.ResumeRequest
		if err := DecodeJSON(body, &req); err != nil {
			return one(Errorf("resume: %v", err))
		}
		reply, err := ep.AcceptResume(&req)
		if err != nil {
			return one(Errorf("resume refused: %v", err))
		}
		// The resumed session's frames will come from this address; rebind
		// it exactly like a fresh handshake does.
		t.bindAddr(req.ClientID, from)
		resp, err := EncodeJSON(MsgResumeOK, reply)
		if err != nil {
			return one(Errorf("resume reply: %v", err))
		}
		t.logf("client %s resumed from %s", req.ClientID, from)
		return one(resp)

	case MsgFetch:
		if len(body) != 8 {
			return one(Errorf("fetch: bad version"))
		}
		version := binary.BigEndian.Uint64(body)
		blob, err := ep.FetchConfig(version)
		if err != nil {
			return one(Errorf("fetch v%d: %v", version, err))
		}
		chunks, err := EncodeChunks(blob)
		if err != nil {
			return one(Errorf("fetch v%d: %v", version, err))
		}
		return chunks

	default:
		return one(Errorf("unknown message type %c", msgType))
	}
}

// frameDatagram assembles a data-channel datagram (type byte + sealed frame)
// in a pooled buffer. It is lent to the socket write — the kernel copies it
// out — and the caller returns it with wire.PutBuffer straight after.
func frameDatagram(msgType byte, frame []byte) []byte {
	msg := wire.GetBuffer(1 + len(frame))
	msg[0] = msgType
	copy(msg[1:], frame)
	return msg
}

// SendToClient implements core.Transport: push a sealed frame to a client's
// last known address. The caller keeps ownership of frame.
func (t *Transport) SendToClient(clientID string, frame []byte) error {
	t.mu.Lock()
	addr, ok := t.addrs[clientID]
	conn := t.conn
	t.mu.Unlock()
	if conn == nil {
		return fmt.Errorf("udptransport: transport not bound")
	}
	if !ok {
		return fmt.Errorf("udptransport: no address for client %q", clientID)
	}
	msg := frameDatagram(MsgFrame, frame)
	_, err := conn.WriteToUDPAddrPort(msg, addr)
	wire.PutBuffer(msg)
	return err
}

// Link implements core.Transport: dial a fresh client socket to this
// transport's server. The clientID is informational — the server learns it
// from the handshake. The link inherits the transport's retransmit tuning
// and send filter, so a deployment configured with WithRetransmit or
// WithLossProfile applies them to both directions.
func (t *Transport) Link(ctx context.Context, clientID string) (core.ClientLink, error) {
	t.mu.Lock()
	cfg := t.retransmit
	filter := t.filter
	t.mu.Unlock()
	return Dial(ctx, t.Addr(), LinkRetransmit(cfg), LinkSendFilter(filter))
}

// Close implements core.Transport.
func (t *Transport) Close() error {
	t.mu.Lock()
	conn := t.conn
	pool := t.pool
	a := t.arq
	t.conn = nil
	t.pool = nil
	t.arq = nil
	t.closed = true
	t.mu.Unlock()
	var err error
	if a != nil {
		a.close()
	}
	if conn != nil {
		err = conn.Close()
	}
	if pool != nil {
		pool.Close()
	}
	return err
}

// recvBufferSize is the socket receive buffer both sides request (best
// effort — the kernel clamps it to net.core.rmem_max). It covers a full
// ARQ window of configuration chunks so a burst does not shed datagrams
// the sender will only have to retransmit.
const recvBufferSize = 4 << 20

// controlQueue sizes the control-response channel. It must cover at least
// one ARQ window of configuration chunks so the fetch loop never sheds a
// segment the ARQ layer is about to acknowledge.
const controlQueue = 64

// Link is the client side of the UDP transport: a request/response helper
// for control messages plus an async dispatch loop for pushed data frames.
// It implements core.ClientLink.
//
// Control round trips ride the ARQ layer: the request goes out as a
// reliable transfer (retransmitted on a backed-off timer until the server
// acknowledges it) and the response arrives as a reliable transfer from
// the server.
type Link struct {
	conn    *net.UDPConn
	control chan []byte // control responses (type+body), copied out of the read buffer
	frames  chan []byte // pushed data datagrams (type+body) in pooled buffers the queue owns

	cfg    RetransmitConfig
	arq    *arq
	filter SendFilter // control-path impairment seam (tests)

	ctrlMu sync.Mutex // serialises control-plane round trips

	mu        sync.Mutex
	deliverFn func(frames [][]byte) error
	dispatch  bool

	closeOnce sync.Once
	closed    chan struct{}
}

// DialOption configures a Link at Dial time.
type DialOption func(*Link)

// LinkRetransmit sets the link's ARQ tuning (zero value = defaults).
func LinkRetransmit(cfg RetransmitConfig) DialOption {
	return func(l *Link) { l.cfg = cfg }
}

// LinkSendFilter installs a control-path send filter (loss injection for
// tests; see SendFilter). Nil leaves sends unfiltered.
func LinkSendFilter(f SendFilter) DialOption {
	return func(l *Link) { l.filter = f }
}

// Dial connects a client link to an endbox server's UDP address.
func Dial(ctx context.Context, server string, opts ...DialOption) (*Link, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	addr, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return nil, err
	}
	// Absorb whole chunk bursts instead of shedding them (best effort).
	_ = conn.SetReadBuffer(recvBufferSize)
	l := &Link{
		conn:    conn,
		control: make(chan []byte, controlQueue),
		frames:  make(chan []byte, 256),
		closed:  make(chan struct{}),
	}
	for _, opt := range opts {
		opt(l)
	}
	l.arq = newARQ(l.cfg, func(_ netip.AddrPort, datagram []byte) error {
		return l.send(datagram)
	}, nil)
	go l.readLoop()
	return l, nil
}

// send writes one control-path datagram through the link's send filter.
func (l *Link) send(datagram []byte) error {
	raw := func(d []byte) error {
		_, err := l.conn.Write(d)
		return err
	}
	if l.filter != nil {
		return l.filter(datagram, raw)
	}
	return raw(datagram)
}

// ARQStats reports the link-side reliability counters.
func (l *Link) ARQStats() ARQStats { return l.arq.snapshot() }

// readLoop reads datagrams into pooled buffers. Data frames travel to the
// dispatch loop inside their receive buffer — ownership moves with them
// and the dispatcher releases the buffer after the handler's burst — while
// the cold control path copies and reuses the same buffer.
func (l *Link) readLoop() {
	buf := wire.GetBuffer(MaxDatagram)
	for {
		n, err := l.conn.Read(buf[:MaxDatagram])
		if err != nil {
			wire.PutBuffer(buf)
			close(l.frames)
			return
		}
		if n == 0 {
			continue
		}
		if buf[0] == MsgFrame || buf[0] == MsgControl {
			select {
			case l.frames <- buf[:n]:
				buf = wire.GetBuffer(MaxDatagram)
			default: // shed on overload like a real NIC queue; buffer reused
			}
			continue
		}
		switch buf[0] {
		case MsgRel:
			// Reliable control from the server: unwrap, deduplicate and
			// acknowledge. A full control queue refuses delivery, which
			// withholds the ack — the server retransmits, so nothing
			// acknowledged is ever shed.
			l.arq.handleRel(netip.AddrPort{}, buf[:n], func(inner []byte) bool {
				msg := append([]byte(nil), inner...)
				select {
				case l.control <- msg:
					return true
				default:
					return false
				}
			})
		case MsgAck:
			l.arq.handleAck(netip.AddrPort{}, buf[:n])
		}
		// The server only ever sends control inside reliable envelopes;
		// anything else is dropped.
	}
}

// drainControl drops stale responses from abandoned round trips so they
// cannot be mistaken for the answer to the next one. Callers hold ctrlMu.
func (l *Link) drainControl() {
	for {
		select {
		case <-l.control:
		default:
			return
		}
	}
}

// request performs one control round trip, honouring ctx: the request goes
// out as a reliable transfer, the response arrives as one, and failure
// surfaces as soon as the retry budget is spent.
func (l *Link) request(ctx context.Context, datagram []byte) (byte, []byte, error) {
	l.ctrlMu.Lock()
	defer l.ctrlMu.Unlock()
	l.drainControl()
	x, err := l.arq.send(netip.AddrPort{}, [][]byte{datagram})
	if err != nil {
		return 0, nil, err
	}
	defer l.arq.cancel(x)
	// The response is its own reliable transfer; allow the worst-case
	// schedule of both directions before declaring the server mute.
	deadline := time.NewTimer(2 * l.cfg.TransferDeadline())
	defer deadline.Stop()
	select {
	case resp := <-l.control:
		msgType, body, err := Decode(resp)
		if err != nil {
			return 0, nil, err
		}
		if msgType == MsgError {
			return 0, nil, serverError(body)
		}
		return msgType, body, nil
	case err := <-x.failed:
		return 0, nil, fmt.Errorf("udptransport: request undeliverable: %w", err)
	case <-ctx.Done():
		return 0, nil, ctx.Err()
	case <-l.closed:
		return 0, nil, ErrLinkClosed
	case <-deadline.C:
		return 0, nil, fmt.Errorf("udptransport: no response from server")
	}
}

// Register implements core.ClientLink.
func (l *Link) Register(ctx context.Context, platformID string, key ed25519.PublicKey) (ed25519.PublicKey, error) {
	msg, err := EncodeJSON(MsgRegister, Register{PlatformID: platformID, Key: key})
	if err != nil {
		return nil, err
	}
	msgType, body, err := l.request(ctx, msg)
	if err != nil {
		return nil, fmt.Errorf("udptransport: register: %w", err)
	}
	if msgType != MsgRegisterOK {
		return nil, fmt.Errorf("udptransport: register: unexpected response %c", msgType)
	}
	return ed25519.PublicKey(append([]byte(nil), body...)), nil
}

// Enroll implements core.ClientLink.
func (l *Link) Enroll(ctx context.Context, q attest.Quote) (*attest.Provision, error) {
	msg, err := EncodeJSON(MsgQuote, q)
	if err != nil {
		return nil, err
	}
	msgType, body, err := l.request(ctx, msg)
	if err != nil {
		return nil, err
	}
	if msgType != MsgProvision {
		return nil, fmt.Errorf("udptransport: unexpected enrolment response %c", msgType)
	}
	var prov attest.Provision
	if err := DecodeJSON(body, &prov); err != nil {
		return nil, err
	}
	return &prov, nil
}

// Hello implements core.ClientLink.
func (l *Link) Hello(ctx context.Context, h *vpn.ClientHello) (*vpn.ServerHello, error) {
	msg, err := EncodeJSON(MsgHello, h)
	if err != nil {
		return nil, err
	}
	msgType, body, err := l.request(ctx, msg)
	if err != nil {
		return nil, err
	}
	if msgType != MsgServerHello {
		return nil, fmt.Errorf("udptransport: unexpected handshake response %c", msgType)
	}
	var sh vpn.ServerHello
	if err := DecodeJSON(body, &sh); err != nil {
		return nil, err
	}
	return &sh, nil
}

// Resume implements core.ResumeLink: the MsgResume round trip.
func (l *Link) Resume(ctx context.Context, r *vpn.ResumeRequest) (*vpn.ResumeReply, error) {
	msg, err := EncodeJSON(MsgResume, r)
	if err != nil {
		return nil, err
	}
	msgType, body, err := l.request(ctx, msg)
	if err != nil {
		return nil, err
	}
	if msgType != MsgResumeOK {
		return nil, fmt.Errorf("udptransport: unexpected resume response %c", msgType)
	}
	var reply vpn.ResumeReply
	if err := DecodeJSON(body, &reply); err != nil {
		return nil, err
	}
	return &reply, nil
}

// FetchConfig implements core.ClientLink: request a blob (0 = latest) and
// reassemble the chunk stream. The chunk stream is a reliable transfer —
// lost chunks are retransmitted (and holes actively re-requested by the
// receiver's gap probes) instead of timing out the whole fetch; the
// Assembler rejects inconsistent chunk streams with typed errors.
func (l *Link) FetchConfig(ctx context.Context, version uint64) ([]byte, error) {
	l.ctrlMu.Lock()
	defer l.ctrlMu.Unlock()
	l.drainControl()
	var v [8]byte
	binary.BigEndian.PutUint64(v[:], version)
	x, err := l.arq.send(netip.AddrPort{}, [][]byte{Encode(MsgFetch, v[:])})
	if err != nil {
		return nil, err
	}
	defer l.arq.cancel(x)
	var asm Assembler
	// Request transfer plus a chunk-stream transfer, worst case.
	deadline := time.NewTimer(2 * l.cfg.TransferDeadline())
	defer deadline.Stop()
	for {
		select {
		case resp := <-l.control:
			msgType, body, err := Decode(resp)
			if err != nil {
				return nil, err
			}
			switch msgType {
			case MsgError:
				return nil, serverError(body)
			case MsgConfig:
				complete, err := asm.Add(body)
				if err != nil {
					return nil, err
				}
				if complete {
					return asm.Blob()
				}
			}
		case err := <-x.failed:
			return nil, fmt.Errorf("udptransport: fetch undeliverable: %w", err)
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-l.closed:
			return nil, ErrLinkClosed
		case <-deadline.C:
			got, want := asm.Received()
			return nil, fmt.Errorf("udptransport: configuration fetch timed out (%d/%d chunks)", got, want)
		}
	}
}

// SendFrame implements core.ClientLink.
func (l *Link) SendFrame(frame []byte) error {
	return l.writeFrame(MsgFrame, frame)
}

// SendControlFrame implements core.ControlLink: send one sealed frame in
// the control delivery class (MsgControl). The server submits it to its
// ingress pool past the shedding watermark, so keepalive pings, nacks and
// health reports keep arriving while a flood is shedding data frames.
func (l *Link) SendControlFrame(frame []byte) error {
	return l.writeFrame(MsgControl, frame)
}

func (l *Link) writeFrame(msgType byte, frame []byte) error {
	msg := frameDatagram(msgType, frame)
	_, err := l.conn.Write(msg)
	wire.PutBuffer(msg)
	return err
}

// maxDeliverBatch bounds how many queued frames one dispatch round hands
// to the batch handler (and therefore how many cross the client's enclave
// boundary in one ecall).
const maxDeliverBatch = 32

// SetDeliver implements core.ClientLink: install the per-frame handler for
// pushed server->client frames and start the dispatch loop.
func (l *Link) SetDeliver(fn func(frame []byte) error) {
	l.setDeliver(func(frames [][]byte) error {
		var firstErr error
		for _, f := range frames {
			if err := fn(f); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		return firstErr
	})
}

// SetDeliverBatch implements core.BatchClientLink: bursts of frames that
// queued while the handler was busy are handed over together, so the
// receiving client can open them in a single enclave crossing.
func (l *Link) SetDeliverBatch(fn func(frames [][]byte) error) {
	l.setDeliver(fn)
}

// setDeliver installs the burst handler and starts the dispatch loop once.
func (l *Link) setDeliver(fn func(frames [][]byte) error) {
	l.mu.Lock()
	l.deliverFn = fn
	start := !l.dispatch
	l.dispatch = true
	l.mu.Unlock()
	if !start {
		return
	}
	go func() {
		// The batch and its backing pooled datagrams are reused across
		// rounds; handlers get the frames for the duration of the call
		// only (the deployment's slab ingress copies them into its ecall
		// slab) and the buffers go back to the pool right after.
		batch := make([][]byte, 0, maxDeliverBatch)
		owners := make([][]byte, 0, maxDeliverBatch)
		release := func() {
			for _, o := range owners {
				wire.PutBuffer(o)
			}
			batch, owners = batch[:0], owners[:0]
		}
		for {
			select {
			case msg, ok := <-l.frames:
				if !ok {
					return
				}
				// Collect the burst that queued behind the first frame
				// without blocking for more.
				batch = append(batch, msg[1:])
				owners = append(owners, msg)
			drain:
				for len(batch) < maxDeliverBatch {
					select {
					case m, ok := <-l.frames:
						if !ok {
							break drain
						}
						batch = append(batch, m[1:])
						owners = append(owners, m)
					default:
						break drain
					}
				}
				l.mu.Lock()
				h := l.deliverFn
				l.mu.Unlock()
				if h != nil {
					_ = h(batch) // per-frame errors are data-path events, not link failures
				}
				release()
			case <-l.closed:
				return
			}
		}
	}()
}

// Close implements core.ClientLink. Pending reliable transfers fail with
// ErrLinkClosed and every ARQ timer is stopped.
func (l *Link) Close() error {
	var err error
	l.closeOnce.Do(func() {
		close(l.closed)
		l.arq.close()
		err = l.conn.Close()
	})
	return err
}
