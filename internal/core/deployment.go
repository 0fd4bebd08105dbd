package core

import (
	"cmp"
	"context"
	"crypto/ed25519"
	"encoding/binary"
	"fmt"
	"maps"
	"slices"
	"sync"
	"time"

	"endbox/internal/attest"
	"endbox/internal/click"
	"endbox/internal/idps"
	"endbox/internal/lifecycle"
	"endbox/internal/packet"
	"endbox/internal/policy"
	"endbox/internal/sgx"
	"endbox/internal/vpn"
	"endbox/internal/wire"
)

// DeploymentOptions configures a complete EndBox deployment: IAS, CA, VPN
// server, configuration server and any number of clients — the programmatic
// equivalent of the paper's testbed. The zero value is a working encrypted
// in-process deployment.
type DeploymentOptions struct {
	// Mode is the data-channel protection (default encrypted).
	Mode wire.Mode
	// EncryptConfigs selects the enterprise-style encrypted rule
	// distribution.
	EncryptConfigs bool
	// Clock is the shared time source (default time.Now).
	Clock func() time.Time
	// Observer watches the deployment's data path: packets accepted into
	// the managed network, packets delivered to client applications, and
	// middlebox alerts. Nil observes nothing. Packet slices handed to the
	// observer alias pooled buffers and are only valid for the duration of
	// the callback; observers that keep packets must copy.
	Observer Observer
	// Transport carries frames and control messages between the server and
	// its clients. Nil selects the in-process transport (direct calls).
	Transport Transport
	// EchoNetwork reflects delivered packets back to the sending client
	// (src/dst swapped), modelling a server answering — used by latency
	// measurements.
	EchoNetwork bool
	// RouteBetweenClients relays packets addressed to another connected
	// client's tunnel address, preserving the 0xeb flag (paper §IV-A
	// client-to-client communication).
	RouteBetweenClients bool
	// Shards is the server session-table shard count: session lookups and
	// per-client statistics contend only within a shard, so frames from
	// many clients proceed in parallel. 0 picks a count matching the CPU;
	// 1 reproduces the monolithic single-lock table (the pre-dataplane
	// baseline).
	Shards int
	// UDPWorkers pipelines the UDP server's ingress across a worker pool
	// of this size when the transport supports it (clients stay pinned to
	// one worker, preserving per-client frame ordering). 0 keeps the
	// transport's single serve goroutine.
	UDPWorkers int
	// Retransmit tunes the control-path ARQ layer when the transport
	// supports reliable delivery (the UDP transport does; the in-process
	// transport cannot lose messages and ignores it). The zero value keeps
	// the defaults. Data frames are never retransmitted.
	Retransmit RetransmitConfig
	// LossProfile injects deterministic, seeded control-path impairment
	// (drop/duplicate/reorder) when the transport supports it — the
	// loss-tolerance testing seam. The zero value impairs nothing.
	LossProfile LossProfile
	// FlowCapacity bounds every client enclave's flow table (concurrent
	// tracked flows); 0 selects the default (16384). ClientSpec can
	// override per client.
	FlowCapacity int
	// FlowTTL is the flow idle timeout; 0 selects the default (2
	// minutes). ClientSpec can override per client.
	FlowTTL time.Duration
	// SessionTTL enables liveness-driven session eviction: a client that
	// produces no authenticated frames (data or keepalive pongs) for this
	// long is evicted by the background sweep, its tunnel address and
	// session-table slot reclaimed. 0 disables eviction (the
	// pre-lifecycle behaviour: sessions live forever).
	SessionTTL time.Duration
	// SweepInterval is how often the background sweep runs when
	// SessionTTL is set (default SessionTTL/4, floor 10ms). Tests with a
	// virtual Clock disable it with a negative value and call
	// SweepSessions directly.
	SweepInterval time.Duration
	// Admission bounds the handshake/resume path: handshake rate, the
	// concurrent-handshake cost cap and a hard session bound, checked
	// before any expensive crypto. The zero value admits everything.
	Admission lifecycle.AdmissionConfig
	// TicketTTL bounds how long a resumption ticket stays valid (0 = for
	// the life of the server process; a restart always invalidates all
	// tickets because the sealing key is in-memory only).
	TicketTTL time.Duration
	// Policy is the attested-identity policy registry: named enclave
	// builds, lineage and revocation. When set, every build registered at
	// NewDeployment time is allowlisted with the CA (RegisterBuild handles
	// later ones), measurement selectors and MinBuild resolve against it,
	// and Revoke propagates live — new handshakes and resumes from the
	// revoked build are refused before any crypto, and its live sessions
	// are evicted (RevocationObserver.SessionRevoked). Nil disables
	// attested-identity policy (only the default client build may enrol).
	Policy *policy.Registry
	// FailurePolicy tunes element fault containment in every client
	// enclave. The zero value selects the deployment default: containment
	// on, fail-closed, stock trip threshold and cooldown. Set FailOpen to
	// bypass quarantined elements instead of dropping at them.
	FailurePolicy click.FailurePolicy
}

// ClientSpec configures one client joining a deployment. Data-path events
// (inbound packets, alerts) are reported through the deployment's Observer.
//
// Pipeline is compiled and validated at AddClient time — a zero Pipeline,
// or one that does not build, returns an error wrapping ErrBadPipeline
// instead of failing inside the enclave.
type ClientSpec struct {
	// Mode is the enclave execution mode. Required.
	Mode sgx.Mode
	// BurnCPU makes hardware transitions cost real CPU (benchmarks).
	BurnCPU bool
	// TransitionCost overrides the enclave transition cost.
	TransitionCost time.Duration
	// Pipeline is the middlebox function the client boots with (build
	// with the public mbox package: mbox.Chain, mbox.Raw, mbox.Stock).
	// Required.
	Pipeline click.Pipeline
	// ExtraRuleSets adds named IDPS rule sets beyond the community set.
	ExtraRuleSets map[string]string
	// Labels attach operator-defined metadata to the client, matched by
	// Deployment.Rollout selectors for targeted configuration rollouts
	// (e.g. {"site": "berlin", "ring": "canary"}).
	Labels map[string]string
	// FlagClientToClient enables the 0xeb optimisation.
	FlagClientToClient bool
	// NaiveEcalls selects the multi-ecall ablation data path.
	NaiveEcalls bool
	// FlowCapacity overrides the deployment's flow-table bound for this
	// client (0 inherits DeploymentOptions.FlowCapacity).
	FlowCapacity int
	// FlowTTL overrides the deployment's flow idle timeout for this
	// client (0 inherits DeploymentOptions.FlowTTL).
	FlowTTL time.Duration
	// BuildVersion selects the enclave image build this client runs
	// (ClientImageVersion); "" is the default build ("1.0.0"). Non-default
	// builds change the enclave measurement and must be allowlisted first
	// (Deployment.RegisterBuild), or enrolment is refused.
	BuildVersion string
}

// mergedRuleSets is the community set plus the given extras — what a
// client resolves rule-set names against.
func mergedRuleSets(extra map[string]string) map[string]string {
	ruleSets := CommunityRuleSets()
	for name, text := range extra {
		ruleSets[name] = text
	}
	return ruleSets
}

// Deployment is a wired-up EndBox system. It is safe for concurrent use:
// any number of goroutines may add clients, push traffic and publish
// updates simultaneously.
type Deployment struct {
	IAS    *attest.IAS
	CA     *attest.CA
	Server *Server

	opts      DeploymentOptions
	transport Transport

	// admission is nil unless DeploymentOptions.Admission enables a
	// check; sweepStop stops the background eviction loop.
	admission *lifecycle.Admission
	sweepStop chan struct{}
	sweepOnce sync.Once

	// watch is the active canary observation, nil outside RolloutCanary.
	// Client nacks and health reports are fed to it by the VPN server's
	// sealed-frame hooks.
	watchMu sync.Mutex
	watch   *canaryWatch

	mu        sync.Mutex
	clients   map[string]*Client
	links     map[string]ClientLink
	labels    map[string]map[string]string // client ID -> rollout labels
	joinSeq   map[string]uint64            // client ID -> join generation (see Rollout)
	lastSeq   uint64
	addrs     map[packet.Addr]string // tunnel address -> client ID
	addrByID  map[string]packet.Addr // reverse index (O(1) ClientAddr)
	freeAddrs []packet.Addr          // released by RemoveClient, reused first
	nextIP    byte
}

// CommunityRuleSets is the default rule-set map: the generated 377-rule
// community set under the name the standard configurations reference.
func CommunityRuleSets() map[string]string {
	return map[string]string{
		"community": idps.CommunityRules(),
	}
}

// NewDeployment builds the server side: IAS, CA, VPN + config servers. The
// deployment's transport is bound and ready for clients — in-process ones
// via AddClient, or remote ones connecting through a socket transport.
func NewDeployment(opts DeploymentOptions) (*Deployment, error) {
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if err := opts.Admission.Validate(); err != nil {
		return nil, err
	}
	ias, err := attest.NewIAS()
	if err != nil {
		return nil, err
	}
	ca, err := attest.NewCA(ias)
	if err != nil {
		return nil, err
	}
	// Keep the CA on the same clock as the rest of the deployment so
	// virtual-time experiments issue certificates consistently.
	ca.SetTimeSource(opts.Clock)
	// The operator approves the client enclave build once, up front; every
	// platform enrolling through the transport is checked against it.
	ca.AllowMeasurement(ClientImage(ca.PublicKey()).Measure())
	// Builds registered with the policy before the deployment existed are
	// approved too (minus already-revoked ones); RegisterBuild covers
	// builds named later.
	if opts.Policy != nil {
		for _, b := range opts.Policy.Builds() {
			if !b.Revoked {
				ca.AllowMeasurement(b.Measurement)
			}
		}
	}

	d := &Deployment{
		IAS:      ias,
		CA:       ca,
		opts:     opts,
		clients:  make(map[string]*Client),
		links:    make(map[string]ClientLink),
		labels:   make(map[string]map[string]string),
		joinSeq:  make(map[string]uint64),
		addrs:    make(map[packet.Addr]string),
		addrByID: make(map[string]packet.Addr),
		nextIP:   2, // 10.8.0.1 is the server
	}
	if opts.Admission.Enabled() {
		d.admission = lifecycle.NewAdmission(opts.Admission)
	}

	d.transport = opts.Transport
	if d.transport == nil {
		d.transport = NewInProcessTransport()
	}
	if opts.UDPWorkers > 0 {
		if wt, ok := d.transport.(WorkerTransport); ok {
			wt.SetWorkers(opts.UDPWorkers)
		}
	}
	if rt, ok := d.transport.(ReliableTransport); ok {
		rt.SetRetransmit(opts.Retransmit)
	}
	if !opts.LossProfile.Zero() {
		if lt, ok := d.transport.(LossyTransport); ok {
			lt.SetLossProfile(opts.LossProfile)
		}
	}

	srv, err := NewServer(ServerOptions{
		CA:             ca,
		Mode:           opts.Mode,
		Clock:          opts.Clock,
		EncryptConfigs: opts.EncryptConfigs,
		Deliver:        d.deliver,
		SendTo:         d.transport.SendToClient,
		Shards:         opts.Shards,
		SessionTTL:     opts.SessionTTL,
		TicketTTL:      opts.TicketTTL,
		OnNack:         d.onNack,
		OnHealth:       d.onHealth,
		Policy:         opts.Policy,
	})
	if err != nil {
		return nil, err
	}
	d.Server = srv

	// Revocation propagates live: the CA stops certifying the build, the
	// VPN server refuses its handshakes (via the policy gate wired above)
	// and its established sessions are evicted. Subscribed after the
	// server exists so the callback can reach the session table.
	if opts.Policy != nil {
		opts.Policy.OnRevoke(d.revokeBuild)
	}

	if err := d.transport.BindServer(d); err != nil {
		return nil, err
	}
	if opts.SessionTTL > 0 && opts.SweepInterval >= 0 {
		interval := opts.SweepInterval
		if interval == 0 {
			interval = opts.SessionTTL / 4
		}
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
		d.sweepStop = make(chan struct{})
		go d.sweepLoop(interval)
	}
	return d, nil
}

// sweepLoop periodically evicts idle sessions until the deployment closes.
// The ticker runs on wall time; the liveness decision itself reads the
// deployment Clock, so virtual-time tests call SweepSessions directly
// (with SweepInterval < 0 to suppress this loop).
func (d *Deployment) sweepLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-d.sweepStop:
			return
		case <-t.C:
			d.SweepSessions()
		}
	}
}

// SweepSessions advances the liveness wheel once, evicting every session
// whose TTL lapsed and reclaiming its deployment state: tunnel address
// (returned to the free list for reuse), transport link, rollout labels
// and — for in-process clients — the enclave. It returns the evicted
// client IDs. The background sweep calls this on a timer; tests with a
// virtual clock call it directly.
func (d *Deployment) SweepSessions() []string {
	evicted := d.Server.VPN().SweepExpired()
	for _, id := range evicted {
		d.reclaim(id)
		if lo, ok := d.observe().(LifecycleObserver); ok {
			lo.SessionEvicted(id)
		}
	}
	return evicted
}

// revokeBuild propagates one build revocation (the policy registry's
// OnRevoke callback): the CA stops certifying the measurement, and every
// live session running the build is evicted and its deployment state
// reclaimed. New handshakes and resumes are refused by the policy gate
// wired into the VPN server. Runs on the Revoke caller's goroutine,
// outside the registry lock.
func (d *Deployment) revokeBuild(b policy.Build) {
	d.CA.RevokeMeasurement(b.Measurement)
	for _, id := range d.Server.VPN().EvictRevoked(b.Measurement) {
		d.reclaim(id)
		if ro, ok := d.observe().(RevocationObserver); ok {
			ro.SessionRevoked(id, b.Name)
		}
	}
}

// RegisterBuild names a client build in the policy registry and approves
// its measurement with the CA, returning the measurement — the one call
// that turns a ClientSpec.BuildVersion into an enrollable, targetable,
// revocable identity. buildVersion "" names the default build.
func (d *Deployment) RegisterBuild(name, buildVersion string) (sgx.Measurement, error) {
	if d.opts.Policy == nil {
		return sgx.Measurement{}, fmt.Errorf("core: deployment has no policy registry (set DeploymentOptions.Policy)")
	}
	m := ClientImageVersion(d.CA.PublicKey(), buildVersion).Measure()
	if err := d.opts.Policy.Register(name, m); err != nil {
		return sgx.Measurement{}, err
	}
	d.CA.AllowMeasurement(m)
	return m, nil
}

// RevokeBuild revokes a named build: new handshakes and resumes from it
// are refused before any crypto, its live sessions are evicted
// (RevocationObserver.SessionRevoked fires per session), and the CA stops
// certifying it. Shorthand for Policy().Revoke(name).
func (d *Deployment) RevokeBuild(name string) error {
	if d.opts.Policy == nil {
		return fmt.Errorf("core: deployment has no policy registry (set DeploymentOptions.Policy)")
	}
	return d.opts.Policy.Revoke(name)
}

// Policy returns the deployment's attested-identity policy registry (nil
// when the deployment was built without one).
func (d *Deployment) Policy() *policy.Registry { return d.opts.Policy }

// reclaim releases the deployment-side state of a session the VPN layer
// already evicted. Unlike RemoveClient it must not touch the VPN session
// table: the slot may already be owned by a successor (takeover).
func (d *Deployment) reclaim(id string) {
	d.mu.Lock()
	cli := d.clients[id]
	link := d.links[id]
	delete(d.clients, id)
	delete(d.links, id)
	delete(d.labels, id)
	delete(d.joinSeq, id)
	if addr, ok := d.addrByID[id]; ok {
		delete(d.addrs, addr)
		delete(d.addrByID, id)
		d.freeAddrs = append(d.freeAddrs, addr)
	}
	d.mu.Unlock()
	d.Server.VPN().Policy().ForgetClient(id)
	if link != nil {
		link.Close()
	}
	if cli != nil {
		cli.Close()
	}
}

// Transport returns the transport carrying this deployment's traffic.
func (d *Deployment) Transport() Transport { return d.transport }

// noopObserver is the shared do-nothing observer, boxed once so the
// per-packet deliver path never re-allocates the interface value.
var noopObserver Observer = ObserverFuncs{}

// observer returns the configured observer or a no-op.
func (d *Deployment) observe() Observer {
	if d.opts.Observer != nil {
		return d.opts.Observer
	}
	return noopObserver
}

// onNack routes a client's sealed configuration rejection to the active
// canary watch (if any).
func (d *Deployment) onNack(clientID string, n vpn.Nack) {
	d.watchMu.Lock()
	w := d.watch
	d.watchMu.Unlock()
	if w != nil {
		w.onNack(clientID, n)
	}
}

// onHealth routes a client's sealed health report to the active canary
// watch (if any).
func (d *Deployment) onHealth(clientID string, h vpn.HealthReport) {
	d.watchMu.Lock()
	w := d.watch
	d.watchMu.Unlock()
	if w != nil {
		w.onHealth(clientID, h)
	}
}

// RegisterPlatform implements ServerEndpoint: record the platform key with
// the IAS and hand back the CA public key (paper Fig. 4 step 0: in real
// deployments the CA key ships inside the enclave image).
func (d *Deployment) RegisterPlatform(platformID string, key ed25519.PublicKey) (ed25519.PublicKey, error) {
	if platformID == "" || len(key) == 0 {
		return nil, fmt.Errorf("core: platform registration requires an ID and key")
	}
	d.IAS.RegisterPlatformKey(platformID, key)
	return d.CA.PublicKey(), nil
}

// Enroll implements ServerEndpoint.
func (d *Deployment) Enroll(q attest.Quote) (*attest.Provision, error) {
	return d.CA.Enroll(q)
}

// admit runs the admission gate (when configured) before the expensive
// handshake crypto. It returns the release for the concurrency slot; the
// caller must invoke it when the handshake finishes either way.
func (d *Deployment) admit(clientID string) (func(), error) {
	if d.admission == nil {
		return func() {}, nil
	}
	done, err := d.admission.Begin(d.Server.VPN().ClientCount(), d.opts.Clock().UnixNano())
	if err != nil {
		if lo, ok := d.observe().(LifecycleObserver); ok {
			lo.AdmissionRefused(clientID, err)
		}
		return nil, err
	}
	return done, nil
}

// AcceptHello implements ServerEndpoint. The revocation and admission
// gates run first: a revoked build or a throttled/full server refuses
// here, before certificate verification, ECDH and ticket sealing burn any
// CPU (and before a revoked build can burn an admission token).
func (d *Deployment) AcceptHello(h *vpn.ClientHello) (*vpn.ServerHello, error) {
	if d.opts.Policy != nil && h != nil && h.Cert != nil {
		if err := d.opts.Policy.CheckMeasurement(h.Cert.Measurement); err != nil {
			return nil, err
		}
	}
	done, err := d.admit(h.ClientID)
	if err != nil {
		return nil, err
	}
	defer done()
	return d.Server.VPN().Accept(h)
}

// AcceptResume implements ServerEndpoint: the fast-resume path. It
// shares the admission gate with AcceptHello — resumes are cheap but not
// free, and a replayed-ticket storm must not bypass the rate limit.
func (d *Deployment) AcceptResume(r *vpn.ResumeRequest) (*vpn.ResumeReply, error) {
	done, err := d.admit(r.ClientID)
	if err != nil {
		return nil, err
	}
	defer done()
	reply, err := d.Server.VPN().Resume(r)
	if err != nil {
		return nil, err
	}
	if lo, ok := d.observe().(LifecycleObserver); ok {
		lo.SessionResumed(r.ClientID)
	}
	return reply, nil
}

// HandleFrame implements ServerEndpoint.
func (d *Deployment) HandleFrame(clientID string, frame []byte) error {
	return d.Server.VPN().HandleFrame(clientID, frame)
}

// FrameShed implements the transport's optional shed-accounting hook:
// a frame discarded by ingress overload shedding is recorded against the
// client's virtual interface (VIFStats.Shed).
func (d *Deployment) FrameShed(clientID string) {
	d.Server.VPN().CountShed(clientID)
}

// FetchConfig implements ServerEndpoint. Version 0 resolves to the
// latest globally published version — not the store's absolute latest,
// which a targeted rollout may have advanced past the fleet-wide
// configuration. Booting an untargeted client into a canary-only
// version would get all its traffic rejected as stale, so a deployment
// that has only ever published targeted rollouts deliberately fails the
// boot fetch (ErrNotFound) until a global configuration exists.
func (d *Deployment) FetchConfig(version uint64) ([]byte, error) {
	if version == 0 {
		version = d.Server.LatestGlobal()
	}
	return d.Server.Configs().Fetch(version)
}

// deliver routes packets accepted into the managed network: observer hook,
// optional echo, optional client-to-client relay.
func (d *Deployment) deliver(clientID string, ip []byte) {
	d.observe().PacketDelivered(clientID, ip)
	var p packet.IPv4
	if err := p.Parse(ip); err != nil {
		return
	}
	if d.opts.RouteBetweenClients {
		d.mu.Lock()
		dstID, ok := d.addrs[p.Dst]
		d.mu.Unlock()
		if ok && dstID != clientID {
			// Relay between EndBox clients: the 0xeb flag survives so the
			// receiver can skip re-processing.
			_ = d.Server.VPN().SendTo(dstID, ip, true)
			return
		}
	}
	if d.opts.EchoNetwork {
		echo := echoOf(p)
		_ = d.Server.VPN().SendTo(clientID, echo, false) // SendTo copies
		wire.PutBuffer(echo)
	}
}

// echoOf is the managed network's answer to p: the same packet with the
// addresses swapped and the header checksum re-serialised, an ICMP echo
// request turned into its reply. It is written into a pooled buffer the
// caller returns with wire.PutBuffer; the bytes p was parsed from are
// only read (PacketDelivered observers hold them).
func echoOf(p packet.IPv4) []byte {
	p.Src, p.Dst = p.Dst, p.Src
	echo := wire.GetBuffer(p.Len())
	p.MarshalTo(echo)
	if p.Protocol == packet.ProtoICMP {
		// Only a well-formed request (valid ICMP checksum) is answered.
		icmp := echo[p.HeaderLen():]
		if len(icmp) >= packet.ICMPHeaderLen && icmp[0] == packet.ICMPEchoRequest && packet.Checksum(icmp) == 0 {
			icmp[0] = packet.ICMPEchoReply
			icmp[2], icmp[3] = 0, 0
			binary.BigEndian.PutUint16(icmp[2:4], packet.Checksum(icmp))
		}
	}
	return echo
}

// AddClient creates, attests, enrols and connects a client through the
// deployment's transport. The returned client is ready to send traffic.
// The context bounds the whole join sequence (attestation, enrolment,
// handshake); it is safe to call from concurrent goroutines.
func (d *Deployment) AddClient(ctx context.Context, id string, spec ClientSpec) (*Client, error) {
	return d.join(ctx, id, spec, nil)
}

// join runs the shared join sequence (Join) for one of the deployment's
// clients — afresh, or resuming from state — displacing a previous
// incarnation under the same ID where that is allowed, and records the
// connected client: link, rollout labels, join generation and tunnel
// address (the resumed session's previous one when still free).
func (d *Deployment) join(ctx context.Context, id string, spec ClientSpec, resume *ResumeState) (*Client, error) {
	// Compile and validate the middlebox configuration before any link,
	// enclave or attestation work: a bad pipeline fails here with a typed
	// error instead of deep inside ecallInitClick.
	ruleSets := mergedRuleSets(spec.ExtraRuleSets)
	cfg, err := spec.Pipeline.Compile(nil, ruleSets)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	_, dup := d.clients[id]
	d.mu.Unlock()
	if dup {
		// A resume replaces any lingering local incarnation: the ticket
		// plus a signature under the attested key is proof the same
		// principal is reclaiming its slot. A fresh join under a connected
		// ID is a crashed-and-rebooted client: if the old session's
		// liveness lapsed, reclaim it and let the join take the slot over;
		// a still-live duplicate is refused — the VPN handshake would
		// reject it anyway, and failing here keeps the error identical
		// across transports and avoids the attestation work.
		if resume == nil && !d.Server.VPN().SessionExpired(id) {
			return nil, fmt.Errorf("core: client %q already connected", id)
		}
		d.RemoveClient(id)
	}
	obs := d.observe()
	opts := ClientOptions{
		ID: id,
		// The same seed rebuilds the same virtual CPU, so a resumed client's
		// sealed blobs unseal — the simulation's equivalent of restarting
		// on the same physical machine.
		CPU:                sgx.NewCPU("client-cpu-" + id),
		Mode:               spec.Mode,
		BurnCPU:            spec.BurnCPU,
		TransitionCost:     spec.TransitionCost,
		BuildVersion:       spec.BuildVersion,
		ClickConfig:        cfg,
		RuleSets:           ruleSets,
		WireMode:           d.opts.Mode,
		FlagClientToClient: spec.FlagClientToClient,
		BatchEcalls:        !spec.NaiveEcalls,
		FlowCapacity:       cmp.Or(spec.FlowCapacity, d.opts.FlowCapacity),
		FlowTTL:            cmp.Or(spec.FlowTTL, d.opts.FlowTTL),
		Deliver:            func(ip []byte) { obs.PacketReceived(id, ip) },
		OnAlert:            func(a click.Alert) { obs.Alert(id, a) },
		FailurePolicy:      d.opts.FailurePolicy,
		OnElementFault: func(f click.ElementFault) {
			if fo, ok := obs.(FaultObserver); ok {
				fo.OnElementFault(id, f)
			}
		},
		OnUpdateFailed: func(version uint64, err error) {
			if fo, ok := obs.(FaultObserver); ok {
				fo.OnUpdateFailed(id, version, err)
			}
		},
		Clock: d.opts.Clock,
	}
	// Unlike the raw library (whose zero policy is inert), a deployment
	// always contains element panics: a managed fleet should degrade one
	// element, not crash a client's data path.
	opts.FailurePolicy.Contain = true
	var prevAddr packet.Addr
	if resume != nil {
		opts.CAPub = d.CA.PublicKey()
		opts.ConfigVersion = resume.Version
		opts.LKGVersion = resume.LKG
		prevAddr = resume.Addr
	}

	link, err := d.transport.Link(ctx, id)
	if err != nil {
		return nil, err
	}
	cli, err := Join(ctx, link, JoinOptions{Client: opts, Resume: resume})
	if err != nil {
		link.Close()
		return nil, err
	}

	d.mu.Lock()
	addr, ok := d.takeAddrLocked(prevAddr)
	if !ok {
		d.mu.Unlock()
		d.Server.VPN().Disconnect(id)
		cli.Close()
		link.Close()
		return nil, fmt.Errorf("core: tunnel address space exhausted (10.8.0.0/24)")
	}
	d.clients[id] = cli
	d.links[id] = link
	d.lastSeq++
	d.joinSeq[id] = d.lastSeq
	if len(spec.Labels) > 0 {
		d.labels[id] = maps.Clone(spec.Labels)
	}
	d.addrs[addr] = id
	d.addrByID[id] = addr
	d.mu.Unlock()
	return cli, nil
}

// takeAddrLocked hands out a tunnel address: the session's previous one
// when it sits on the free list (same VIF across resume, the common case),
// otherwise an address released by RemoveClient, otherwise the next unused
// one. It never hands out an address the allocator has not released: an
// arbitrary prev could collide with nextIP's future allocations. Callers
// hold d.mu.
func (d *Deployment) takeAddrLocked(prev packet.Addr) (packet.Addr, bool) {
	if n := len(d.freeAddrs); n > 0 {
		i := n - 1
		if prev != (packet.Addr{}) {
			if j := slices.Index(d.freeAddrs, prev); j >= 0 {
				i = j
			}
		}
		addr := d.freeAddrs[i]
		d.freeAddrs = slices.Delete(d.freeAddrs, i, i+1)
		return addr, true
	}
	if d.nextIP == 255 { // 10.8.0.1 is the server; .255 is broadcast
		return packet.Addr{}, false
	}
	addr := packet.AddrFrom(10, 8, 0, d.nextIP)
	d.nextIP++
	return addr, true
}

// ResumeState is everything a client needs to re-establish its session
// without repeating attestation, enrolment or the full handshake: the
// enclave-sealed identity and session secret, the server's opaque
// resumption ticket, the applied configuration version, and the tunnel
// address to reclaim. The two sealed blobs are useless off the client's
// own (virtual) CPU; the ticket is useless without the attested signing
// key. Snapshot it with Deployment.ResumeState before a planned restart,
// or persist it the way cmd/endbox-client does.
type ResumeState struct {
	ClientID string
	Addr     packet.Addr
	Version  uint64
	// LKG is the last-known-good configuration version — the client's
	// local rollback point, preserved across the restart so a bad update
	// applied right after resuming can still be self-reverted.
	LKG            uint64
	SealedIdentity []byte
	Secret         []byte
	Ticket         []byte
}

// ResumeState snapshots a connected client's resumption state.
func (d *Deployment) ResumeState(id string) (ResumeState, error) {
	d.mu.Lock()
	cli := d.clients[id]
	addr := d.addrByID[id]
	d.mu.Unlock()
	if cli == nil {
		return ResumeState{}, fmt.Errorf("core: client %q not connected", id)
	}
	secret, err := cli.ResumeSecret()
	if err != nil {
		return ResumeState{}, err
	}
	return ResumeState{
		ClientID:       id,
		Addr:           addr,
		Version:        cli.AppliedVersion(),
		LKG:            cli.LKGVersion(),
		SealedIdentity: cli.SealedIdentity(),
		Secret:         secret,
		Ticket:         cli.Ticket(),
	}, nil
}

// ResumeClient re-establishes a client from a ResumeState snapshot: the
// enclave is rebuilt from the sealed identity (no attestation, no
// enrolment round trips), the session from the resumption ticket (no
// certificate walk, no ECDH), and the previous tunnel address is
// reclaimed when still free. Any lingering local incarnation of the
// client is replaced.
func (d *Deployment) ResumeClient(ctx context.Context, state ResumeState, spec ClientSpec) (*Client, error) {
	id := state.ClientID
	if id == "" || len(state.SealedIdentity) == 0 || len(state.Secret) == 0 || len(state.Ticket) == 0 {
		return nil, fmt.Errorf("core: incomplete resume state for client %q", id)
	}
	return d.join(ctx, id, spec, &state)
}

// LifecycleStats snapshots the deployment's session lifecycle counters:
// active/tracked sessions, evictions, resumes, takeovers, revocations,
// per-build session counts, and the admission gate's
// admitted/throttled/refused tallies.
func (d *Deployment) LifecycleStats() lifecycle.Stats {
	st := lifecycle.Stats{Sessions: d.Server.VPN().SessionStats()}
	if counts := d.Server.VPN().SessionsByMeasurement(); len(counts) > 0 {
		byBuild := make(map[string]int, len(counts))
		for m, n := range counts {
			if m.IsZero() {
				continue // pre-policy sessions carry no measurement
			}
			name := m.String()
			if d.opts.Policy != nil {
				name = d.opts.Policy.NameOf(m)
			}
			byBuild[name] = n
		}
		if len(byBuild) > 0 {
			st.Sessions.ByBuild = byBuild
		}
	}
	if d.admission != nil {
		st.Admission = d.admission.Stats()
	}
	return st
}

// ClientStats returns a connected client's virtual-interface counters,
// read from the sharded session table's shard-local atomics.
func (d *Deployment) ClientStats(id string) (vpn.VIFStats, error) {
	return d.Server.VPN().Stats(id)
}

// AggregateStats sums virtual-interface counters over all connected
// clients (the paper's §V-E aggregate-throughput view).
func (d *Deployment) AggregateStats() vpn.VIFStats {
	return d.Server.VPN().AggregateStats()
}

// ClientAddr returns the tunnel address of a connected client.
func (d *Deployment) ClientAddr(id string) (packet.Addr, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	addr, ok := d.addrByID[id]
	return addr, ok
}

// Client returns a connected client by ID.
func (d *Deployment) Client(id string) (*Client, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c, ok := d.clients[id]
	return c, ok
}

// RemoveClient disconnects one client, releasing its session, link, tunnel
// address and enclave.
func (d *Deployment) RemoveClient(id string) {
	d.Server.VPN().Disconnect(id)
	d.reclaim(id)
}

// Close destroys all client enclaves and the transport.
func (d *Deployment) Close() {
	if d.sweepStop != nil {
		d.sweepOnce.Do(func() { close(d.sweepStop) })
	}
	d.mu.Lock()
	clients := d.clients
	links := d.links
	d.clients = make(map[string]*Client)
	d.links = make(map[string]ClientLink)
	d.labels = make(map[string]map[string]string)
	d.joinSeq = make(map[string]uint64)
	d.addrs = make(map[packet.Addr]string)
	d.addrByID = make(map[string]packet.Addr)
	d.freeAddrs = nil
	d.nextIP = 2
	d.mu.Unlock()
	for _, l := range links {
		l.Close()
	}
	for id, c := range clients {
		d.Server.VPN().Policy().ForgetClient(id)
		c.Close()
	}
	d.transport.Close()
}
