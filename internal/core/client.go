package core

import (
	"context"
	"crypto/ed25519"
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"endbox/internal/attest"
	"endbox/internal/click"
	"endbox/internal/flow"
	"endbox/internal/packet"
	"endbox/internal/sgx"
	"endbox/internal/tlstap"
	"endbox/internal/vpn"
	"endbox/internal/wire"
)

// ClientOptions configures an EndBox client.
type ClientOptions struct {
	// ID identifies the client to the VPN server. Required.
	ID string
	// CPU is the client machine's SGX processor. Required.
	CPU *sgx.CPU
	// Mode selects enclave execution: sgx.ModeSimulation ("EndBox SIM") or
	// sgx.ModeHardware ("EndBox SGX"). Required.
	Mode sgx.Mode
	// BurnCPU makes hardware-mode enclave transitions consume real CPU
	// time so wall-clock benchmarks observe SGX overhead.
	BurnCPU bool
	// TransitionCost overrides the per-transition cost (0 = default).
	TransitionCost time.Duration
	// CAPub is the CA public key baked into the enclave image. Required.
	CAPub ed25519.PublicKey
	// BuildVersion selects the enclave image build the client runs
	// (ClientImageVersion); the empty string is the default build. The
	// version changes the enclave measurement, so a build must be
	// allowlisted (policy registry / CA) before its clients can enrol.
	BuildVersion string
	// QE is the local platform's Quoting Enclave. Required unless
	// SealedIdentity is provided.
	QE *attest.QuotingEnclave
	// Enroll submits a quote to the remote CA (paper Fig. 4 steps 3-6).
	// Required unless SealedIdentity is provided.
	Enroll func(attest.Quote) (*attest.Provision, error)
	// SealedIdentity restores a previously sealed identity instead of
	// re-attesting (paper §III-C: "an enclave only has to be attested
	// once").
	SealedIdentity []byte
	// ClickConfig is the initial middlebox configuration. Required.
	ClickConfig string
	// RuleSets provides named IDPS rule sets for the initial config.
	RuleSets map[string]string
	// ConfigVersion is the version of the initial configuration.
	ConfigVersion uint64
	// WireMode selects data-channel protection (default ModeEncrypted;
	// the ISP scenario uses ModeIntegrityOnly, paper §IV-A).
	WireMode wire.Mode
	// MinTLS is enforced inside the enclave (default TLS12).
	MinTLS uint16
	// FlagClientToClient enables the 0xeb QoS optimisation (paper §IV-A).
	FlagClientToClient bool
	// FlowCapacity bounds the enclave flow table (concurrent tracked
	// flows); 0 selects the default (16384). Past the bound, the
	// oldest-idle flow is evicted deterministically.
	FlowCapacity int
	// FlowTTL is how long a flow may stay idle before expiring; 0 selects
	// the default (2 minutes).
	FlowTTL time.Duration
	// BatchEcalls selects the optimised single-ecall-per-packet data path
	// (true, EndBox's design) or the naive multi-ecall path used by the
	// §V-G(1) ablation (false).
	BatchEcalls bool
	// FetchConfig retrieves a sealed update blob by version from the
	// configuration file server. Required for updates.
	FetchConfig func(version uint64) ([]byte, error)
	// Send transmits frames to the VPN server. Required.
	Send func(frame []byte) error
	// SendControl transmits control-class frames (pings, nacks, health
	// reports). Wire it to ControlLink.SendControlFrame on transports that
	// shed data under overload so control survives a flood. Optional;
	// defaults to Send.
	SendControl func(frame []byte) error
	// Deliver hands accepted inbound packets to applications. Optional.
	Deliver func(ip []byte)
	// OnAlert receives middlebox alerts. Optional.
	OnAlert func(click.Alert)
	// FailurePolicy configures in-enclave element fault containment
	// (panic recovery, quarantine, fail-open/closed). The zero value
	// disables containment; Deployment enables it by default.
	FailurePolicy click.FailurePolicy
	// OnElementFault receives containment events (element panics,
	// quarantine trips) from the enclave pipeline. Optional.
	OnElementFault func(click.ElementFault)
	// OnUpdateFailed fires when a server-announced configuration version
	// cannot be applied, so operators need not poll LastUpdateError.
	// Optional.
	OnUpdateFailed func(version uint64, err error)
	// LKGVersion seeds the last-known-good configuration version (e.g.
	// restored from an -lkg-state file across a restart). 0 means none
	// yet: the first successful update establishes it.
	LKGVersion uint64
	// Clock for ping timestamps (default time.Now).
	Clock func() time.Time
}

// Client is a complete EndBox client: an enclave hosting the sensitive
// halves of OpenVPN and Click, plus the untrusted runtime around it.
type Client struct {
	opts    ClientOptions
	enclave *sgx.Enclave
	vpn     *vpn.Client
	sealed  []byte
	alerts  *alertQueue
	faults  *faultQueue

	appliedMu chan struct{} // 1-token semaphore guarding update state
	version   uint64
	updateErr error
	// lkgVersion is the last configuration version that applied cleanly
	// before the current one — the local rollback point when a fresh
	// configuration trips quarantine. badVersions records versions the
	// client has rolled back from, so a keepalive re-announcing one is
	// nacked instead of re-applied (the flap damper until the server's
	// canary rollback republishes good content under a new version).
	lkgVersion  uint64
	badVersions map[uint64]string

	ticketMu sync.Mutex
	ticket   []byte // latest server-issued resumption ticket (opaque)
}

// alertQueue buffers middlebox alerts raised inside an ecall until the
// boundary is released. Alerts fire from the Click pipeline, which runs
// under the enclave's execution lock; invoking user callbacks there would
// deadlock any handler that re-enters the client (e.g. sending a report
// packet in reaction to an IDS alert). Each data-path entry point flushes
// the queue after its ecall returns, so delivery stays synchronous from
// the caller's point of view.
type alertQueue struct {
	fn func(click.Alert)

	mu      sync.Mutex
	pending []click.Alert
}

// enqueue is the in-enclave alert hook (called under the execution lock).
func (q *alertQueue) enqueue(a click.Alert) {
	q.mu.Lock()
	q.pending = append(q.pending, a)
	q.mu.Unlock()
}

// flush delivers buffered alerts on the caller's stack, outside the
// enclave.
func (q *alertQueue) flush() {
	q.mu.Lock()
	pending := q.pending
	q.pending = nil
	q.mu.Unlock()
	for _, a := range pending {
		q.fn(a)
	}
}

// faultQueue is the containment analogue of alertQueue: element faults
// fire inside an ecall under the enclave execution lock, so they are
// buffered and delivered after the boundary is released — the fault
// handler re-enters the enclave (health report, self-revert).
type faultQueue struct {
	fn func(click.ElementFault) // set once at construction, before traffic

	mu      sync.Mutex
	pending []click.ElementFault
}

func (q *faultQueue) enqueue(f click.ElementFault) {
	q.mu.Lock()
	q.pending = append(q.pending, f)
	q.mu.Unlock()
}

func (q *faultQueue) flush() {
	q.mu.Lock()
	pending := q.pending
	q.pending = nil
	q.mu.Unlock()
	for _, f := range pending {
		if q.fn != nil {
			q.fn(f)
		}
	}
}

// flushEvents drains both post-ecall queues (alerts, then faults) on the
// caller's stack.
func (c *Client) flushEvents() {
	c.alerts.flush()
	c.faults.flush()
}

// NewClient creates the enclave, performs (or restores) attestation, and
// prepares the client for Connect. It does not contact the VPN server yet.
func NewClient(opts ClientOptions) (*Client, error) {
	switch {
	case opts.ID == "":
		return nil, fmt.Errorf("core: ClientOptions.ID required")
	case opts.CPU == nil:
		return nil, fmt.Errorf("core: ClientOptions.CPU required")
	case len(opts.CAPub) == 0:
		return nil, fmt.Errorf("core: ClientOptions.CAPub required")
	case opts.ClickConfig == "":
		return nil, fmt.Errorf("core: ClientOptions.ClickConfig required")
	case opts.Send == nil:
		return nil, fmt.Errorf("core: ClientOptions.Send required")
	}
	if opts.WireMode == 0 {
		opts.WireMode = wire.ModeEncrypted
	}
	if opts.MinTLS == 0 {
		opts.MinTLS = vpn.TLS12
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	alert := opts.OnAlert
	if alert == nil {
		alert = func(click.Alert) {}
	}
	alerts := &alertQueue{fn: alert}
	faults := &faultQueue{}

	encl, err := opts.CPU.CreateEnclave(ClientImageVersion(opts.CAPub, opts.BuildVersion), sgx.Config{
		Mode:           opts.Mode,
		BurnCPU:        opts.BurnCPU,
		TransitionCost: opts.TransitionCost,
	})
	if err != nil {
		return nil, err
	}
	if err := registerEcalls(encl, opts.CAPub, alerts.enqueue, faults.enqueue); err != nil {
		encl.Destroy()
		return nil, err
	}
	if err := encl.Init(); err != nil {
		encl.Destroy()
		return nil, err
	}

	c := &Client{
		opts:       opts,
		enclave:    encl,
		alerts:     alerts,
		faults:     faults,
		version:    opts.ConfigVersion,
		lkgVersion: opts.LKGVersion,
		appliedMu:  make(chan struct{}, 1),
	}
	faults.fn = c.handleFault

	// Bootstrap identity: restore a sealed one, or run remote attestation.
	if len(opts.SealedIdentity) > 0 {
		if _, err := encl.Ecall(ecallRestore, opts.SealedIdentity); err != nil {
			encl.Destroy()
			return nil, err
		}
		c.sealed = opts.SealedIdentity
	} else {
		if opts.QE == nil || opts.Enroll == nil {
			encl.Destroy()
			return nil, fmt.Errorf("core: QE and Enroll required without a sealed identity")
		}
		repAny, err := encl.Ecall(ecallKeygen, nil)
		if err != nil {
			encl.Destroy()
			return nil, err
		}
		quote, err := opts.QE.Quote(repAny.(sgx.Report))
		if err != nil {
			encl.Destroy()
			return nil, err
		}
		prov, err := opts.Enroll(quote)
		if err != nil {
			encl.Destroy()
			return nil, fmt.Errorf("core: enrolment: %w", err)
		}
		sealedAny, err := encl.Ecall(ecallProvision, provisionArg{prov: prov})
		if err != nil {
			encl.Destroy()
			return nil, err
		}
		c.sealed = sealedAny.([]byte)
	}

	// Install the middlebox inside the enclave.
	if _, err := encl.Ecall(ecallInitClick, initClickArg{
		clickConfig:  opts.ClickConfig,
		ruleSets:     opts.RuleSets,
		version:      opts.ConfigVersion,
		flagC2C:      opts.FlagClientToClient,
		mode:         opts.WireMode,
		minTLS:       opts.MinTLS,
		flowCapacity: opts.FlowCapacity,
		flowTTL:      opts.FlowTTL,
		failure:      opts.FailurePolicy,
	}); err != nil {
		encl.Destroy()
		return nil, err
	}

	cli, err := vpn.NewClient(vpn.ClientOptions{
		ID:            opts.ID,
		Plane:         c.dataPlane(),
		Send:          opts.Send,
		SendControl:   opts.SendControl,
		Deliver:       opts.Deliver,
		Clock:         vpn.Clock(opts.Clock),
		ConfigVersion: func() uint64 { return c.AppliedVersion() },
		OnAnnounce:    c.onAnnounce,
	})
	if err != nil {
		encl.Destroy()
		return nil, err
	}
	c.vpn = cli
	return c, nil
}

// dataPlane returns the DataPlane implementation matching the ecall
// batching option.
func (c *Client) dataPlane() vpn.DataPlane {
	if c.opts.BatchEcalls {
		return &batchedPlane{c: c}
	}
	return &naivePlane{c: c}
}

// batchedPlane is EndBox's optimised data path: one ecall per slab in each
// direction (paper §IV-A "Enclave transitions") — 2 transitions and zero
// per-packet allocations at the boundary, whether the slab holds a burst
// or a lone packet. Result slabs are pooled; the vpn client releases them.
type batchedPlane struct{ c *Client }

func (p *batchedPlane) SealSlab(slab []byte) ([]byte, error) {
	return p.c.enclave.EcallBytes(ecallProcessOutBatch, slab)
}

func (p *batchedPlane) OpenSlab(slab []byte) ([]byte, error) {
	return p.c.enclave.EcallBytes(ecallProcessInBatch, slab)
}

// SlabBudget bounds slabs by what one enclave crossing may carry.
func (p *batchedPlane) SlabBudget() int { return p.c.enclave.MaxBoundaryBytes() }

// naivePlane crosses the boundary once per processing stage (Click,
// encrypt, MAC) for every packet — the unoptimised design the §V-G(1)
// ablation quantifies. It is a reference, so it walks the slab entry by
// entry and lets each stage allocate.
type naivePlane struct{ c *Client }

func (p *naivePlane) SealSlab(slab []byte) ([]byte, error) {
	return vpn.MapSlab(slab, func(payload []byte) ([]byte, error) {
		if len(payload) > 0 && payload[0] == vpn.FrameData {
			out, err := p.c.enclave.EcallBytes(ecallNaiveClick, payload)
			if err != nil {
				return nil, err
			}
			payload = out
		}
		payload, err := p.c.enclave.EcallBytes(ecallNaiveCrypt, payload)
		if err != nil {
			return nil, err
		}
		return p.c.enclave.EcallBytes(ecallNaiveMAC, payload)
	})
}

// OpenSlab pays the extra per-stage round trip, then opens each frame
// through the batched ecall as a slab of one and unpacks its one result.
func (p *naivePlane) OpenSlab(slab []byte) ([]byte, error) {
	return vpn.MapSlab(slab, func(frame []byte) ([]byte, error) {
		if _, err := p.c.enclave.EcallBytes(ecallNaiveCrypt, frame); err != nil {
			return nil, err
		}
		one, err := p.c.enclave.EcallBytes(ecallProcessInBatch, vpn.AppendSlabEntry(nil, frame))
		if err != nil {
			return nil, err
		}
		r := vpn.NewResultReader(one)
		payload, entryErr, _ := r.Next()
		return payload, entryErr
	})
}

func (p *naivePlane) SlabBudget() int { return p.c.enclave.MaxBoundaryBytes() }

// Connect performs the VPN handshake against a server reachable through
// accept (in-process or via a transport adapter). The context bounds the
// handshake; transports that block on the network must honour it.
func (c *Client) Connect(ctx context.Context, accept func(*vpn.ClientHello) (*vpn.ServerHello, error)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	sign := func(transcript []byte) ([]byte, error) {
		sig, err := c.enclave.Ecall(ecallHsSign, transcript)
		if err != nil {
			return nil, err
		}
		return sig.([]byte), nil
	}
	cert, err := c.certificate()
	if err != nil {
		return err
	}
	hello, st, err := vpn.NewClientHello(c.opts.ID, cert, c.AppliedVersion(), vpn.TLS13, sign)
	if err != nil {
		return err
	}
	sh, err := accept(hello)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if _, err := c.enclave.Ecall(ecallHsFinish, hsFinishArg{st: st, sh: sh}); err != nil {
		return err
	}
	c.setTicket(sh.Ticket)
	return nil
}

// Resume re-establishes the VPN session from a resumption ticket
// (paper-faithful fast reconnect: no attestation, no enrolment, no
// certificate walk — one signed round trip). secret is the enclave-sealed
// resume secret from ResumeSecret; empty resumes from the enclave's
// in-memory session (the in-place case, e.g. after the server evicted an
// idle session). send performs the MsgResume round trip.
func (c *Client) Resume(ctx context.Context, secret, ticket []byte, send func(*vpn.ResumeRequest) (*vpn.ResumeReply, error)) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(ticket) == 0 {
		ticket = c.Ticket()
	}
	if len(ticket) == 0 {
		return fmt.Errorf("core: no resumption ticket for %q", c.opts.ID)
	}
	sign := func(transcript []byte) ([]byte, error) {
		sig, err := c.enclave.Ecall(ecallHsSign, transcript)
		if err != nil {
			return nil, err
		}
		return sig.([]byte), nil
	}
	req, err := vpn.NewResumeRequest(c.opts.ID, ticket, c.AppliedVersion(), sign)
	if err != nil {
		return err
	}
	reply, err := send(req)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if _, err := c.enclave.Ecall(ecallResumeFinish, resumeFinishArg{sealed: secret, req: req, reply: reply}); err != nil {
		return err
	}
	c.setTicket(reply.Ticket)
	return nil
}

// ResumeSecret exports the current session secret sealed to this enclave
// — together with Ticket it is everything a restarted client needs to
// resume without re-attesting. Fails with ErrNoSession before Connect.
func (c *Client) ResumeSecret() ([]byte, error) {
	res, err := c.enclave.Ecall(ecallExportResume, nil)
	if err != nil {
		return nil, err
	}
	return res.([]byte), nil
}

// Ticket returns the latest server-issued resumption ticket (nil before
// Connect). The ticket is opaque and public-safe: the session secret
// inside is sealed under the server's in-memory key.
func (c *Client) Ticket() []byte {
	c.ticketMu.Lock()
	defer c.ticketMu.Unlock()
	return append([]byte(nil), c.ticket...)
}

func (c *Client) setTicket(t []byte) {
	c.ticketMu.Lock()
	c.ticket = append([]byte(nil), t...)
	c.ticketMu.Unlock()
}

// certificate exports the provisioned certificate from the enclave. The
// certificate is public data; only the private keys stay enclave-internal.
func (c *Client) certificate() (*attest.Certificate, error) {
	raw, err := c.enclave.Ecall(ecallGetCert, nil)
	if err != nil {
		return nil, err
	}
	return attest.ParseCertificate(raw.([]byte))
}

// SendPacket tunnels one application packet (egress).
func (c *Client) SendPacket(ip []byte) error {
	defer c.flushEvents()
	return c.vpn.SendPacket(ip)
}

// SendPackets tunnels a batch of application packets in a single enclave
// crossing (on the batched data path), amortising the per-ecall transition
// cost across the whole batch. Packets dropped by the middlebox are skipped;
// it returns the number of packets handed to the transport and the first
// error encountered (middlebox drops included).
func (c *Client) SendPackets(ips [][]byte) (int, error) {
	defer c.flushEvents()
	return c.vpn.SendPackets(ips)
}

// HandleFrame processes a frame arriving from the server (ingress).
func (c *Client) HandleFrame(frame []byte) error {
	defer c.flushEvents()
	return c.vpn.HandleFrame(frame)
}

// HandleFrames processes a burst of frames arriving from the server in a
// single enclave crossing (on the batched data path), amortising the
// per-ecall transition cost across the burst. Dropped frames are skipped;
// it returns the number of frames fully handled and the first error
// encountered (middlebox drops included).
func (c *Client) HandleFrames(frames [][]byte) (int, error) {
	defer c.flushEvents()
	return c.vpn.HandleFrames(frames)
}

// SendPing reports the applied configuration version to the server.
func (c *Client) SendPing() error { return c.vpn.SendPing() }

// ForwardTLSKey is the management-interface entry point the modified TLS
// library calls with freshly negotiated session keys (paper §III-D).
func (c *Client) ForwardTLSKey(flow packet.Flow, key tlstap.SessionKey) error {
	_, err := c.enclave.Ecall(ecallForwardKey, forwardKeyArg{flow: flow, key: key})
	return err
}

// PipelineStats snapshots the per-element runtime counters — packets,
// drops, alerts per element instance — of the middlebox pipeline running
// inside the enclave (the observability surface stateful custom functions
// need; counters survive hot-swaps for elements that keep their name and
// class). Elements appear in configuration declaration order.
func (c *Client) PipelineStats() ([]click.ElementStats, error) {
	res, err := c.enclave.Ecall(ecallPipelineStats, nil)
	if err != nil {
		return nil, err
	}
	return res.([]click.ElementStats), nil
}

// FlowStats snapshots the enclave flow table's counters: active flows,
// capacity, lookup/hit/insert totals, and how many flows the TTL wheel
// expired or capacity pressure evicted. The table is shared by every
// stateful element and survives configuration hot-swaps.
func (c *Client) FlowStats() (flow.Stats, error) {
	res, err := c.enclave.Ecall(ecallFlowStats, nil)
	if err != nil {
		return flow.Stats{}, err
	}
	return res.(flow.Stats), nil
}

// AppliedVersion reports the active middlebox configuration version.
func (c *Client) AppliedVersion() uint64 {
	c.appliedMu <- struct{}{}
	v := c.version
	<-c.appliedMu
	return v
}

// LastUpdateError reports the most recent background update failure.
func (c *Client) LastUpdateError() error {
	c.appliedMu <- struct{}{}
	err := c.updateErr
	<-c.appliedMu
	return err
}

// onAnnounce reacts to a server ping announcing a new configuration
// version: fetch the blob (untrusted), apply it inside the enclave, and
// prove the update with a ping (paper Fig. 5 steps 5-9). It runs inline;
// the fetch and decrypt do not stall traffic because the caller's ping
// handling is already off the data path.
//
// Failures are no longer silent: a version the client has rolled back
// from is nacked without re-applying (the damper against announce/revert
// flapping), and any apply failure pushes a typed Nack so the server's
// canary watcher learns immediately instead of waiting out its deadline.
func (c *Client) onAnnounce(version uint64, _ time.Duration) {
	c.appliedMu <- struct{}{}
	reason, known := c.badVersions[version]
	<-c.appliedMu
	if known {
		_ = c.vpn.SendNack(vpn.Nack{Version: version, Reason: "rolled back: " + reason})
		return
	}
	_, timing, err := c.applyVersion(version)
	if err != nil {
		c.appliedMu <- struct{}{}
		c.updateErr = err
		<-c.appliedMu
		if c.opts.OnUpdateFailed != nil {
			c.opts.OnUpdateFailed(version, err)
		}
		_ = c.vpn.SendNack(vpn.Nack{Version: version, Reason: err.Error()})
		return
	}
	// Ack with swap timing, then prove the update (best effort; the next
	// periodic ping also carries the version).
	_ = c.vpn.SendHealth(vpn.HealthReport{
		Version:   version,
		OK:        true,
		SwapNanos: timing.Hotswap.Nanoseconds(),
	})
	_ = c.SendPing()
}

// ApplyUpdateBlob verifies and applies a fetched update blob, returning the
// in-enclave timing breakdown. The previously applied version becomes the
// client's last-known-good rollback point.
func (c *Client) ApplyUpdateBlob(blob []byte) (SwapTiming, error) {
	defer c.flushEvents()
	res, err := c.enclave.Ecall(ecallApplyConfig, applyConfigArg{blob: blob})
	if err != nil {
		return SwapTiming{}, err
	}
	applied := res.(applyResult)
	c.appliedMu <- struct{}{}
	if c.version != applied.version {
		c.lkgVersion = c.version
	}
	c.version = applied.version
	c.updateErr = nil
	<-c.appliedMu
	return applied.timing, nil
}

// handleFault delivers containment events raised inside the enclave. A
// quarantine trip on the running pipeline means the configuration itself
// is suspect: the client reports unhealthy to the server and, if it has a
// last-known-good version, self-reverts locally rather than limping on a
// quarantined pipeline until the server notices.
func (c *Client) handleFault(f click.ElementFault) {
	if c.opts.OnElementFault != nil {
		c.opts.OnElementFault(f)
	}
	if !f.Quarantined {
		return
	}
	if h, err := c.HealthReport(); err == nil {
		h.OK = false
		h.Fault = f.Element
		_ = c.vpn.SendHealth(h)
	}
	c.selfRevert(f)
}

// selfRevert rolls the pipeline back to the last-known-good version after
// the current configuration tripped quarantine. The revert is guarded by
// an in-enclave compare-and-swap on the applied version (expectApplied),
// so a server-side rollback landing concurrently wins: the stale revert
// is rejected inside the enclave instead of downgrading a fresh config.
func (c *Client) selfRevert(f click.ElementFault) {
	c.appliedMu <- struct{}{}
	bad, lkg := c.version, c.lkgVersion
	_, alreadyBad := c.badVersions[bad]
	revert := lkg != 0 && bad != lkg && !alreadyBad
	if revert {
		if c.badVersions == nil {
			c.badVersions = make(map[uint64]string)
		}
		c.badVersions[bad] = fmt.Sprintf("element %s quarantined: %s", f.Element, f.Err)
	}
	<-c.appliedMu
	if !revert {
		return
	}
	if c.opts.FetchConfig == nil {
		return
	}
	blob, err := c.opts.FetchConfig(lkg)
	if err != nil {
		return
	}
	if err := c.applyRollback(blob, bad); err != nil {
		return
	}
	_ = c.SendPing()
	_ = c.vpn.SendNack(vpn.Nack{Version: bad, Reason: "self-revert: " + f.Err})
}

// applyRollback applies a last-known-good blob with the enclave's
// monotonic-version check waived (the blob is still CA-signed, so the
// replay surface is limited to operator-shipped configurations) and a CAS
// on the currently applied version. On success the applied version moves
// backwards; the LKG pointer is left untouched.
func (c *Client) applyRollback(blob []byte, expectApplied uint64) error {
	defer c.flushEvents()
	res, err := c.enclave.Ecall(ecallApplyConfig, applyConfigArg{
		blob:          blob,
		allowRollback: true,
		expectApplied: expectApplied,
	})
	if err != nil {
		return err
	}
	applied := res.(applyResult)
	c.appliedMu <- struct{}{}
	c.version = applied.version
	c.updateErr = nil
	<-c.appliedMu
	return nil
}

// HealthReport snapshots the client's pipeline health: the applied
// version, last swap timing, cumulative panic/drop counters, and any
// quarantined elements. OK is true iff nothing is quarantined.
func (c *Client) HealthReport() (vpn.HealthReport, error) {
	res, err := c.enclave.Ecall(ecallHealthReport, nil)
	if err != nil {
		return vpn.HealthReport{}, err
	}
	h := res.(vpn.HealthReport)
	h.OK = h.Quarantined == 0
	return h, nil
}

// LKGVersion reports the last-known-good configuration version — the
// local rollback point, suitable for persisting across restarts (the
// endbox-client -lkg-state flag).
func (c *Client) LKGVersion() uint64 {
	c.appliedMu <- struct{}{}
	v := c.lkgVersion
	<-c.appliedMu
	return v
}

// applyVersion fetches and applies a specific version.
func (c *Client) applyVersion(version uint64) (uint64, SwapTiming, error) {
	if c.opts.FetchConfig == nil {
		return 0, SwapTiming{}, fmt.Errorf("core: no FetchConfig configured")
	}
	blob, err := c.opts.FetchConfig(version)
	if err != nil {
		return 0, SwapTiming{}, err
	}
	timing, err := c.ApplyUpdateBlob(blob)
	if err != nil {
		return 0, SwapTiming{}, err
	}
	return version, timing, nil
}

// SealedIdentity returns the sealed identity blob for persistence across
// restarts (attestation happens once per machine).
func (c *Client) SealedIdentity() []byte {
	return append([]byte(nil), c.sealed...)
}

// EnclaveStats exposes boundary counters for the transition ablation.
func (c *Client) EnclaveStats() sgx.Stats { return c.enclave.Stats() }

// Close destroys the enclave. The client is unusable afterwards — exactly
// the consequence a DoS-ing host inflicts on itself (paper §V-A).
func (c *Client) Close() { c.enclave.Destroy() }

// marshalIdentity / unmarshalIdentity serialise the sealed identity.
func marshalIdentity(id sealedIdentity) ([]byte, error) {
	b, err := json.Marshal(id)
	if err != nil {
		return nil, fmt.Errorf("core: marshal identity: %w", err)
	}
	return b, nil
}

func unmarshalIdentity(b []byte) (sealedIdentity, error) {
	var id sealedIdentity
	if err := json.Unmarshal(b, &id); err != nil {
		return sealedIdentity{}, fmt.Errorf("core: unmarshal identity: %w", err)
	}
	return id, nil
}
