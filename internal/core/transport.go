package core

import (
	"context"
	"crypto/ed25519"
	"fmt"
	"sync"
	"time"

	"endbox/internal/attest"
	"endbox/internal/click"
	"endbox/internal/vpn"
)

// ServerEndpoint is the server-side surface a Transport dispatches into:
// everything a remote client may ask of the operator — platform
// registration, remote attestation, the VPN handshake, configuration
// fetches and data-channel frames. Deployment implements it; transports
// must not assume any other methods.
type ServerEndpoint interface {
	// RegisterPlatform records a platform's quoting-enclave key with the
	// IAS (standing in for Intel's manufacturing provisioning) and returns
	// the CA public key clients bake into their enclave image.
	RegisterPlatform(platformID string, key ed25519.PublicKey) (ed25519.PublicKey, error)
	// Enroll submits an attestation quote to the CA (paper Fig. 4).
	Enroll(q attest.Quote) (*attest.Provision, error)
	// AcceptHello runs the server side of the VPN handshake.
	AcceptHello(h *vpn.ClientHello) (*vpn.ServerHello, error)
	// AcceptResume runs the server side of a fast session resume
	// (MsgResume): a ticket check and one signature verification instead
	// of the full handshake — and no attestation or enrolment round
	// trips upstream of it.
	AcceptResume(r *vpn.ResumeRequest) (*vpn.ResumeReply, error)
	// HandleFrame processes one sealed client->server frame. The frame
	// buffer is lent for the duration of the call: the endpoint may
	// decrypt it in place, and the transport may recycle it as soon as
	// HandleFrame returns — neither side retains it (see DESIGN.md
	// "Buffer ownership").
	HandleFrame(clientID string, frame []byte) error
	// FetchConfig retrieves a sealed configuration blob; version 0 selects
	// the latest published version.
	FetchConfig(version uint64) ([]byte, error)
}

// ClientLink is one client's endpoint of a Transport: control-plane round
// trips plus the sealed data channel. All methods are safe for concurrent
// use once the link is established.
type ClientLink interface {
	// Register performs platform registration, returning the CA key.
	Register(ctx context.Context, platformID string, key ed25519.PublicKey) (ed25519.PublicKey, error)
	// Enroll performs remote attestation.
	Enroll(ctx context.Context, q attest.Quote) (*attest.Provision, error)
	// Hello performs the VPN handshake round trip.
	Hello(ctx context.Context, h *vpn.ClientHello) (*vpn.ServerHello, error)
	// FetchConfig retrieves a sealed configuration blob (0 = latest).
	FetchConfig(ctx context.Context, version uint64) ([]byte, error)
	// SendFrame transmits one sealed client->server frame. The frame is
	// lent for the duration of the call; the caller may recycle its buffer
	// once SendFrame returns.
	SendFrame(frame []byte) error
	// SetDeliver installs the handler for server->client frames. It must be
	// called before the handshake; frames arriving earlier may be dropped.
	// Frames are lent to the handler for the duration of the call only —
	// handlers that keep them must copy.
	SetDeliver(fn func(frame []byte) error)
	// Close releases the link.
	Close() error
}

// ControlLink is optionally implemented by client links whose transport
// distinguishes delivery classes: SendControlFrame transmits a sealed
// frame marked control-class, which the server's ingress pool accepts
// past its overload-shedding watermark. Keepalive pings, nacks and health
// reports ride it so a data flood cannot silence the signals that manage
// the fleet. Links without it (the in-process transport never sheds) use
// SendFrame for everything.
type ControlLink interface {
	// SendControlFrame transmits one sealed control-class frame. Lending
	// semantics match SendFrame.
	SendControlFrame(frame []byte) error
}

// ResumeLink is optionally implemented by client links that can carry
// the fast-resume round trip (MsgResume). Both built-in transports do;
// a deployment resuming a client over a link without it falls back to a
// full handshake error so the caller can AddClient instead.
type ResumeLink interface {
	// Resume performs the resume round trip.
	Resume(ctx context.Context, r *vpn.ResumeRequest) (*vpn.ResumeReply, error)
}

// BatchClientLink is optionally implemented by client links that can
// deliver server->client frames in bursts. A deployment prefers
// SetDeliverBatch over SetDeliver when available, so a burst of queued
// frames crosses the client's enclave boundary in one ecall instead of
// one per frame.
type BatchClientLink interface {
	// SetDeliverBatch installs the burst handler for server->client
	// frames. Like SetDeliver it must be called before the handshake;
	// installing it replaces any per-frame handler.
	SetDeliverBatch(fn func(frames [][]byte) error)
}

// WorkerTransport is optionally implemented by transports whose server
// ingress can be pipelined across a worker pool. SetWorkers must be called
// before BindServer.
type WorkerTransport interface {
	// SetWorkers sets the ingress worker count (0 restores the
	// single-goroutine serve loop).
	SetWorkers(n int)
}

// RetransmitConfig tunes the control-path ARQ layer of transports that
// support reliable delivery over a lossy datagram network (see
// ReliableTransport and docs/PROTOCOL.md). The zero value selects the
// defaults. Data-channel frames are never retransmitted — reliability
// applies to the control/configuration path only, so the zero-allocation
// data path is untouched.
type RetransmitConfig struct {
	// Timeout is the initial retransmit timeout (RTO) armed when a
	// transfer's first segments go out (default 200ms).
	Timeout time.Duration
	// Backoff multiplies the RTO after each fruitless timeout (default 2).
	Backoff float64
	// MaxRetries is the retry budget: how many consecutive fruitless
	// timeout rounds a transfer survives before it fails (default 5).
	// Acknowledged progress refills the budget.
	MaxRetries int
	// AckDelay is the receiver's gap-probe delay: how long an incomplete
	// transfer waits for more segments before re-advertising its holes,
	// asking the sender for exactly the missing chunks (default 50ms).
	AckDelay time.Duration
	// Window bounds how many unacknowledged segments a transfer keeps in
	// flight (default 32; clamped to 32, the selective-ack bitmap width —
	// a wider window would put segments in flight that acks cannot
	// selectively report, silently degrading recovery to full-window
	// timeout retransmits).
	Window int
}

// WithDefaults fills unset fields with the default ARQ tuning.
func (c RetransmitConfig) WithDefaults() RetransmitConfig {
	if c.Timeout <= 0 {
		c.Timeout = 200 * time.Millisecond
	}
	if c.Backoff < 1 {
		c.Backoff = 2
	}
	if c.MaxRetries <= 0 {
		c.MaxRetries = 5
	}
	if c.AckDelay <= 0 {
		c.AckDelay = 50 * time.Millisecond
	}
	if c.Window <= 0 || c.Window > 32 {
		c.Window = 32
	}
	return c
}

// TransferDeadline is the worst-case lifetime of one reliable transfer:
// the full retransmission schedule (initial timeout plus every backed-off
// retry) and the receiver's gap-probe delay. Round trips that span two
// transfers (request plus response) should allow twice this.
func (c RetransmitConfig) TransferDeadline() time.Duration {
	c = c.WithDefaults()
	d := c.AckDelay
	rto := c.Timeout
	for i := 0; i <= c.MaxRetries; i++ {
		d += rto
		rto = time.Duration(float64(rto) * c.Backoff)
	}
	return d
}

// ReliableTransport is optionally implemented by transports whose
// control/configuration path can retransmit lost datagrams.
// SetRetransmit must be called before BindServer.
type ReliableTransport interface {
	// SetRetransmit installs the ARQ tuning (zero value = defaults).
	SetRetransmit(cfg RetransmitConfig)
}

// LossProfile describes simulated network impairment applied to a
// transport's control-path datagrams — the testing seam behind
// WithLossProfile. Probabilities are in [0, 1]; the zero value impairs
// nothing. The profile drives a deterministic, seeded model
// (netsim.Faults), so a test that completes under a given profile
// completes every run.
type LossProfile struct {
	// Drop is the probability a datagram is silently discarded.
	Drop float64
	// Duplicate is the probability a datagram is delivered twice.
	Duplicate float64
	// Reorder is the probability a datagram is held back and delivered
	// after the next one.
	Reorder float64
	// CorruptEvery flips one seeded bit in every Nth surviving datagram
	// (0 = never). Sealed frames so mangled must fail authentication at
	// the receiver — the corruption-tolerance testing seam.
	CorruptEvery uint64
	// Seed seeds the deterministic fault sequence.
	Seed int64
}

// Zero reports whether the profile impairs nothing.
func (p LossProfile) Zero() bool {
	return p.Drop == 0 && p.Duplicate == 0 && p.Reorder == 0 && p.CorruptEvery == 0
}

// LossyTransport is optionally implemented by transports that can inject
// simulated control-path impairment for loss-tolerance tests.
// SetLossProfile must be called before BindServer.
type LossyTransport interface {
	// SetLossProfile installs (or, with a zero profile, removes) the
	// simulated impairment on control-path sends.
	SetLossProfile(p LossProfile)
}

// Transport moves sealed VPN frames and control-plane messages between the
// server side of a deployment and its clients. The same Deployment code
// drives an in-process transport (direct calls, zero copies — the unit-test
// and benchmark configuration) or a socket transport (cmd/endbox-server and
// cmd/endbox-client over UDP); implementations must be safe for concurrent
// use.
type Transport interface {
	// BindServer attaches the server-side endpoint. It is called exactly
	// once, before any Link or SendToClient.
	BindServer(ep ServerEndpoint) error
	// SendToClient pushes a sealed server->client frame.
	SendToClient(clientID string, frame []byte) error
	// Link opens the client-side endpoint for one client.
	Link(ctx context.Context, clientID string) (ClientLink, error)
	// Close releases all transport resources.
	Close() error
}

// Observer receives deployment-wide data-path events. It replaces the bare
// OnDeliver/Deliver/OnAlert callbacks of the original API: one composable
// interface, with the client identified explicitly so a single observer can
// watch any number of clients. Implementations must be safe for concurrent
// use; the deployment invokes them from whichever goroutine carried the
// packet.
type Observer interface {
	// PacketDelivered fires when a client packet is accepted into the
	// managed network (server side, after middlebox + policy checks).
	PacketDelivered(clientID string, ip []byte)
	// PacketReceived fires when an inbound packet is delivered to a client
	// application (client side, after in-enclave processing).
	PacketReceived(clientID string, ip []byte)
	// Alert fires for middlebox alerts raised inside a client's enclave.
	Alert(clientID string, a click.Alert)
}

// LifecycleObserver is optionally implemented by Observers that also
// want session lifecycle events: evictions by the liveness sweep, fast
// resumes, and admission-control refusals. The deployment type-asserts
// its observer once; a plain Observer sees only data-path events.
type LifecycleObserver interface {
	// SessionEvicted fires when the liveness sweep evicts an idle
	// session (its VIF address and shard slot have been reclaimed).
	SessionEvicted(clientID string)
	// SessionResumed fires when a client re-establishes its session from
	// a resumption ticket.
	SessionResumed(clientID string)
	// AdmissionRefused fires when admission control turns a handshake or
	// resume away; err is ErrAdmissionThrottled or ErrServerFull.
	AdmissionRefused(clientID string, err error)
}

// RevocationObserver is optionally implemented by Observers that also
// want build-revocation events. It is separate from LifecycleObserver so
// existing implementors keep compiling; the deployment type-asserts it
// independently.
type RevocationObserver interface {
	// SessionRevoked fires when a live session is evicted because its
	// attested enclave build was revoked (policy.Registry.Revoke). build
	// is the registered build name. Liveness evictions fire
	// SessionEvicted instead.
	SessionRevoked(clientID, build string)
}

// FaultObserver is optionally implemented by Observers that also want
// robustness events: element faults (recovered panics, quarantine trips)
// inside client enclaves, and announced configuration versions a client
// could not apply. The deployment type-asserts its observer once, like
// LifecycleObserver; a plain Observer sees only data-path events.
type FaultObserver interface {
	// OnElementFault fires for every containment event in a client's
	// pipeline: each recovered panic, and the trip that quarantines the
	// element (Quarantined true).
	OnElementFault(clientID string, f click.ElementFault)
	// OnUpdateFailed fires when a client fails to apply a
	// server-announced configuration version — previously only visible
	// by polling Client.LastUpdateError.
	OnUpdateFailed(clientID string, version uint64, err error)
}

// ObserverFuncs adapts plain functions to Observer (and, via the
// lifecycle and fault fields, to LifecycleObserver and FaultObserver);
// nil fields ignore the corresponding event.
type ObserverFuncs struct {
	OnDelivered   func(clientID string, ip []byte)
	OnReceived    func(clientID string, ip []byte)
	OnAlert       func(clientID string, a click.Alert)
	OnEvicted     func(clientID string)
	OnResumed     func(clientID string)
	OnRefused     func(clientID string, err error)
	OnRevoked     func(clientID, build string)
	OnFault       func(clientID string, f click.ElementFault)
	OnUpdateError func(clientID string, version uint64, err error)
}

// PacketDelivered implements Observer.
func (o ObserverFuncs) PacketDelivered(clientID string, ip []byte) {
	if o.OnDelivered != nil {
		o.OnDelivered(clientID, ip)
	}
}

// PacketReceived implements Observer.
func (o ObserverFuncs) PacketReceived(clientID string, ip []byte) {
	if o.OnReceived != nil {
		o.OnReceived(clientID, ip)
	}
}

// Alert implements Observer.
func (o ObserverFuncs) Alert(clientID string, a click.Alert) {
	if o.OnAlert != nil {
		o.OnAlert(clientID, a)
	}
}

// SessionEvicted implements LifecycleObserver.
func (o ObserverFuncs) SessionEvicted(clientID string) {
	if o.OnEvicted != nil {
		o.OnEvicted(clientID)
	}
}

// SessionResumed implements LifecycleObserver.
func (o ObserverFuncs) SessionResumed(clientID string) {
	if o.OnResumed != nil {
		o.OnResumed(clientID)
	}
}

// AdmissionRefused implements LifecycleObserver.
func (o ObserverFuncs) AdmissionRefused(clientID string, err error) {
	if o.OnRefused != nil {
		o.OnRefused(clientID, err)
	}
}

// SessionRevoked implements RevocationObserver.
func (o ObserverFuncs) SessionRevoked(clientID, build string) {
	if o.OnRevoked != nil {
		o.OnRevoked(clientID, build)
	}
}

// OnElementFault implements FaultObserver.
func (o ObserverFuncs) OnElementFault(clientID string, f click.ElementFault) {
	if o.OnFault != nil {
		o.OnFault(clientID, f)
	}
}

// OnUpdateFailed implements FaultObserver.
func (o ObserverFuncs) OnUpdateFailed(clientID string, version uint64, err error) {
	if o.OnUpdateError != nil {
		o.OnUpdateError(clientID, version, err)
	}
}

// MultiObserver fans events out to several observers in order.
func MultiObserver(obs ...Observer) Observer { return multiObserver(obs) }

type multiObserver []Observer

func (m multiObserver) PacketDelivered(clientID string, ip []byte) {
	for _, o := range m {
		o.PacketDelivered(clientID, ip)
	}
}

func (m multiObserver) PacketReceived(clientID string, ip []byte) {
	for _, o := range m {
		o.PacketReceived(clientID, ip)
	}
}

func (m multiObserver) Alert(clientID string, a click.Alert) {
	for _, o := range m {
		o.Alert(clientID, a)
	}
}

// multiObserver also fans out lifecycle events, to whichever members
// implement LifecycleObserver.

func (m multiObserver) SessionEvicted(clientID string) {
	for _, o := range m {
		if lo, ok := o.(LifecycleObserver); ok {
			lo.SessionEvicted(clientID)
		}
	}
}

func (m multiObserver) SessionResumed(clientID string) {
	for _, o := range m {
		if lo, ok := o.(LifecycleObserver); ok {
			lo.SessionResumed(clientID)
		}
	}
}

func (m multiObserver) AdmissionRefused(clientID string, err error) {
	for _, o := range m {
		if lo, ok := o.(LifecycleObserver); ok {
			lo.AdmissionRefused(clientID, err)
		}
	}
}

func (m multiObserver) SessionRevoked(clientID, build string) {
	for _, o := range m {
		if ro, ok := o.(RevocationObserver); ok {
			ro.SessionRevoked(clientID, build)
		}
	}
}

// multiObserver fans fault events out to whichever members implement
// FaultObserver.

func (m multiObserver) OnElementFault(clientID string, f click.ElementFault) {
	for _, o := range m {
		if fo, ok := o.(FaultObserver); ok {
			fo.OnElementFault(clientID, f)
		}
	}
}

func (m multiObserver) OnUpdateFailed(clientID string, version uint64, err error) {
	for _, o := range m {
		if fo, ok := o.(FaultObserver); ok {
			fo.OnUpdateFailed(clientID, version, err)
		}
	}
}

// InProcessTransport links clients to the server by direct function calls —
// the configuration every in-memory deployment, test and benchmark uses.
// Sends are synchronous: a SendFrame runs the server's frame handling on
// the caller's stack, exactly like the original hardwired function
// pointers, so the data path costs no goroutine hops.
type InProcessTransport struct {
	mu    sync.RWMutex
	ep    ServerEndpoint
	links map[string]*inprocLink
}

// NewInProcessTransport creates an empty in-process transport.
func NewInProcessTransport() *InProcessTransport {
	return &InProcessTransport{links: make(map[string]*inprocLink)}
}

// BindServer implements Transport.
func (t *InProcessTransport) BindServer(ep ServerEndpoint) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ep != nil {
		return fmt.Errorf("core: transport already bound")
	}
	t.ep = ep
	return nil
}

// SendToClient implements Transport.
func (t *InProcessTransport) SendToClient(clientID string, frame []byte) error {
	t.mu.RLock()
	l, ok := t.links[clientID]
	t.mu.RUnlock()
	if !ok {
		return fmt.Errorf("core: no transport link to client %q", clientID)
	}
	return l.deliverFrame(frame)
}

// Link implements Transport.
func (t *InProcessTransport) Link(ctx context.Context, clientID string) (ClientLink, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ep == nil {
		return nil, fmt.Errorf("core: transport not bound to a server")
	}
	if _, dup := t.links[clientID]; dup {
		return nil, fmt.Errorf("core: client %q already linked", clientID)
	}
	l := &inprocLink{t: t, clientID: clientID}
	t.links[clientID] = l
	return l, nil
}

// Close implements Transport.
func (t *InProcessTransport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.links = make(map[string]*inprocLink)
	return nil
}

// unlink removes a closed link from the registry.
func (t *InProcessTransport) unlink(clientID string, l *inprocLink) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.links[clientID] == l {
		delete(t.links, clientID)
	}
}

// inprocLink is the client side of an InProcessTransport.
type inprocLink struct {
	t        *InProcessTransport
	clientID string

	mu      sync.RWMutex
	deliver func(frame []byte) error
	closed  bool
}

func (l *inprocLink) endpoint() (ServerEndpoint, error) {
	l.mu.RLock()
	closed := l.closed
	l.mu.RUnlock()
	if closed {
		return nil, fmt.Errorf("core: link %q closed", l.clientID)
	}
	l.t.mu.RLock()
	ep := l.t.ep
	l.t.mu.RUnlock()
	if ep == nil {
		return nil, fmt.Errorf("core: transport not bound to a server")
	}
	return ep, nil
}

// Register implements ClientLink.
func (l *inprocLink) Register(ctx context.Context, platformID string, key ed25519.PublicKey) (ed25519.PublicKey, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ep, err := l.endpoint()
	if err != nil {
		return nil, err
	}
	return ep.RegisterPlatform(platformID, key)
}

// Enroll implements ClientLink.
func (l *inprocLink) Enroll(ctx context.Context, q attest.Quote) (*attest.Provision, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ep, err := l.endpoint()
	if err != nil {
		return nil, err
	}
	return ep.Enroll(q)
}

// Hello implements ClientLink.
func (l *inprocLink) Hello(ctx context.Context, h *vpn.ClientHello) (*vpn.ServerHello, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ep, err := l.endpoint()
	if err != nil {
		return nil, err
	}
	return ep.AcceptHello(h)
}

// Resume implements ResumeLink.
func (l *inprocLink) Resume(ctx context.Context, r *vpn.ResumeRequest) (*vpn.ResumeReply, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ep, err := l.endpoint()
	if err != nil {
		return nil, err
	}
	return ep.AcceptResume(r)
}

// FetchConfig implements ClientLink.
func (l *inprocLink) FetchConfig(ctx context.Context, version uint64) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ep, err := l.endpoint()
	if err != nil {
		return nil, err
	}
	return ep.FetchConfig(version)
}

// SendFrame implements ClientLink.
func (l *inprocLink) SendFrame(frame []byte) error {
	ep, err := l.endpoint()
	if err != nil {
		return err
	}
	return ep.HandleFrame(l.clientID, frame)
}

// SetDeliver implements ClientLink.
func (l *inprocLink) SetDeliver(fn func(frame []byte) error) {
	l.mu.Lock()
	l.deliver = fn
	l.mu.Unlock()
}

// deliverFrame pushes a server->client frame into the registered handler.
func (l *inprocLink) deliverFrame(frame []byte) error {
	l.mu.RLock()
	fn := l.deliver
	closed := l.closed
	l.mu.RUnlock()
	if closed {
		return fmt.Errorf("core: link %q closed", l.clientID)
	}
	if fn == nil {
		return fmt.Errorf("core: client %q has no frame handler", l.clientID)
	}
	return fn(frame)
}

// Close implements ClientLink.
func (l *inprocLink) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.mu.Unlock()
	l.t.unlink(l.clientID, l)
	return nil
}
