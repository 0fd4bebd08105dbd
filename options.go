package endbox

import (
	"time"

	"endbox/internal/core"
)

// Option configures a Deployment built with New.
type Option func(*core.DeploymentOptions)

// WithWireMode selects the data-channel protection: WireEncrypted (the
// enterprise default) or WireIntegrityOnly (the ISP opt-in, paper §IV-A).
func WithWireMode(m WireMode) Option {
	return func(o *core.DeploymentOptions) { o.Mode = m }
}

// WithEncryptedConfigs encrypts published configuration updates with the
// CA's shared key so only attested enclaves can read the rules (the
// enterprise scenario; the ISP scenario publishes plaintext).
func WithEncryptedConfigs() Option {
	return func(o *core.DeploymentOptions) { o.EncryptConfigs = true }
}

// WithObserver installs the deployment's data-path observer. Repeated use
// composes: all observers receive every event.
func WithObserver(obs Observer) Option {
	return func(o *core.DeploymentOptions) {
		if o.Observer != nil {
			o.Observer = MultiObserver(o.Observer, obs)
			return
		}
		o.Observer = obs
	}
}

// WithTransport selects the transport carrying frames between the server
// and its clients (default: in-process direct calls).
func WithTransport(t Transport) Option {
	return func(o *core.DeploymentOptions) { o.Transport = t }
}

// WithUDPWorkers pipelines the UDP server's datagram ingress across n
// workers when the deployment's transport supports it (the in-process
// transport ignores it). Each client is pinned to one worker by the same
// hash that places it in a table shard, preserving per-client frame
// ordering while different clients' frames proceed in parallel.
func WithUDPWorkers(n int) Option {
	return func(o *core.DeploymentOptions) { o.UDPWorkers = n }
}

// WithRetransmit tunes the control-path ARQ layer of transports that
// support reliable delivery (the UDP transport; the in-process transport
// cannot lose messages and ignores it). The ARQ layer has sensible default
// timers — use this option to tighten them for tests or widen them for
// high-latency links. Data-channel frames are never retransmitted:
// reliability is a control/configuration concern, and the zero-allocation
// data path is untouched. See docs/PROTOCOL.md for the ACK/retransmit state
// machines.
func WithRetransmit(cfg RetransmitConfig) Option {
	return func(o *core.DeploymentOptions) { o.Retransmit = cfg }
}

// WithLossProfile injects deterministic, seeded impairment — drops,
// duplicates, reorders — into every control-path datagram a supporting
// transport sends, in both directions. It exists so loss-tolerance tests
// are reproducible: the same seed impairs the same datagrams every run,
// and the ARQ layer (WithRetransmit) must recover. A zero profile impairs
// nothing. Data frames bypass the profile along with the ARQ layer.
func WithLossProfile(p LossProfile) Option {
	return func(o *core.DeploymentOptions) { o.LossProfile = p }
}

// WithFlowTable sizes every client enclave's flow-state table: capacity
// is the bound on concurrently tracked flows (past it the oldest-idle
// flow is evicted deterministically — a SYN flood recycles entries
// instead of growing the heap), ttl the idle timeout after which flows
// expire. Zero values keep the defaults (16384 flows, 2 minutes).
// ClientSpec.FlowCapacity/FlowTTL override per client.
func WithFlowTable(capacity int, ttl time.Duration) Option {
	return func(o *core.DeploymentOptions) {
		o.FlowCapacity = capacity
		o.FlowTTL = ttl
	}
}

// WithEchoNetwork makes the managed network reflect delivered packets back
// to the sending client (src/dst swapped, ICMP echoes answered) —
// modelling a server answering, used by latency measurements and demos.
func WithEchoNetwork() Option {
	return func(o *core.DeploymentOptions) { o.EchoNetwork = true }
}

// WithSessionTTL enables liveness-driven session eviction: a client whose
// frames and keepalive answers stop arriving for ttl is swept, its VPN
// session torn down and its virtual-interface address reclaimed for reuse.
// A background sweeper runs every ttl/4 (override with WithSweepInterval).
// Zero disables eviction — sessions live until RemoveClient, the pre-v1
// behaviour. Evicted clients can reconnect (full handshake) or resume
// (Deployment.ResumeClient) at any time.
func WithSessionTTL(ttl time.Duration) Option {
	return func(o *core.DeploymentOptions) { o.SessionTTL = ttl }
}

// WithSweepInterval overrides the eviction sweeper's cadence (default
// SessionTTL/4). A negative interval disables the background goroutine so
// tests with fake clocks can drive Deployment.SweepSessions manually.
func WithSweepInterval(interval time.Duration) Option {
	return func(o *core.DeploymentOptions) { o.SweepInterval = interval }
}

// WithAdmission enables handshake admission control: a token bucket on
// handshake starts, a cap on concurrently in-flight handshakes, and a hard
// bound on total sessions — all enforced before any expensive asymmetric
// crypto runs, so a connect storm is refused cheaply instead of collapsing
// the server (typed errors ErrAdmissionThrottled / ErrServerFull). The
// zero config disables admission entirely; zero-valued fields within a
// non-zero config leave that particular limit unenforced.
func WithAdmission(cfg AdmissionConfig) Option {
	return func(o *core.DeploymentOptions) { o.Admission = cfg }
}

// WithFailurePolicy tunes element fault containment: the number of
// recovered panics that quarantines an element (default 3) and whether a
// quarantined stage fails closed (drop, the default — an IDPS that cannot
// inspect must not forward) or open (bypass, for functions whose absence
// is safer than a blackhole, e.g. a NOP accounting stage). Containment
// itself is always on under this option.
func WithFailurePolicy(p FailurePolicy) Option {
	return func(o *core.DeploymentOptions) { o.FailurePolicy = p }
}

// WithPolicy attaches an attested-identity policy registry to the
// deployment: registered builds may enrol (Deployment.RegisterBuild names
// new ones), rollout selectors gain Measurements/MinBuild predicates
// resolved against the registry, and Policy.Revoke (or
// Deployment.RevokeBuild) propagates live — new handshakes and resumes
// from the revoked build are refused before any crypto, and its live
// sessions are evicted (RevocationObserver.SessionRevoked fires).
func WithPolicy(p *Policy) Option {
	return func(o *core.DeploymentOptions) { o.Policy = p }
}
