// Package endbox is a reproduction of "EndBox: Scalable Middlebox
// Functions Using Client-Side Trusted Execution" (Goltzsche et al.,
// DSN 2018): a system that executes middlebox functions — firewalls,
// intrusion detection, load balancing, DDoS prevention, TLS inspection —
// on untrusted client machines, protected by SGX enclaves and reachable
// only through a VPN whose keys live inside those enclaves.
//
// This package is the public API facade over the implementation in
// internal/: create a Deployment (the operator side: IAS, CA, VPN server,
// configuration server), add Clients (each with its own simulated SGX
// enclave hosting the sensitive halves of the VPN and a Click modular
// router), and push traffic. Deployments are safe for concurrent use and
// transport-pluggable: the same code runs in-process (direct calls) or
// over UDP sockets, where control and configuration messages ride a
// selective-repeat ARQ layer so attestation and multi-chunk rule
// rollouts survive lossy networks (tune with WithRetransmit, inject
// deterministic loss for tests with WithLossProfile; the wire protocol
// is specified in docs/PROTOCOL.md).
//
// Middlebox functions are open and typed: the sibling package mbox
// registers custom element classes into the enclave router
// (mbox.Register) and builds validated pipelines (mbox.Chain, mbox.Raw,
// mbox.Stock) for ClientSpec.Pipeline; Deployment.Rollout publishes a
// typed update to a label-selected subset of clients with per-group grace
// periods; and Client.PipelineStats reads per-element packet/drop/alert
// counters out of the enclave. See examples/ for runnable scenarios and
// DESIGN.md for the architecture and the substitutions made for SGX
// hardware.
//
//	d, err := endbox.New(
//	    endbox.WithObserver(endbox.ObserverFuncs{
//	        OnDelivered: func(clientID string, ip []byte) { /* ... */ },
//	    }),
//	)
//	client, err := d.AddClient(ctx, "laptop-1", endbox.ClientSpec{
//	    Mode:     endbox.ModeSimulation,
//	    Pipeline: mbox.Stock(endbox.UseCaseFW),
//	})
//	err = client.SendPacket(ipPacket)
package endbox

import (
	"endbox/internal/attest"
	"endbox/internal/click"
	"endbox/internal/config"
	"endbox/internal/core"
	"endbox/internal/lifecycle"
	"endbox/internal/policy"
	"endbox/internal/sgx"
	"endbox/internal/udptransport"
	"endbox/internal/vpn"
	"endbox/internal/wire"
	"endbox/mbox"
)

// Deployment is a complete EndBox system: attestation infrastructure
// (IAS + CA), the VPN server that is the managed network's only entry
// point, the configuration file server, and the connected clients. It is
// safe for concurrent use: goroutines may add clients, push traffic and
// publish updates simultaneously.
type Deployment = core.Deployment

// ClientSpec configures one client joining a deployment.
type ClientSpec = core.ClientSpec

// Client is an EndBox client: an SGX enclave hosting the VPN data-channel
// crypto and the Click middlebox, plus the untrusted runtime around it.
type Client = core.Client

// ClientOptions configures a standalone client (AddClient wires these
// automatically; construct directly for custom transports).
type ClientOptions = core.ClientOptions

// Server is the managed network's server side: VPN endpoint, configuration
// file server and management interface.
type Server = core.Server

// ServerOptions configures a standalone Server.
type ServerOptions = core.ServerOptions

// Transport moves sealed VPN frames and control-plane messages between a
// deployment's server side and its clients. The in-process implementation
// is the default; NewUDPTransport runs the same deployment over sockets.
type Transport = core.Transport

// RetransmitConfig tunes the control-path ARQ layer of transports that
// support reliable delivery over lossy networks (see WithRetransmit and
// docs/PROTOCOL.md). The zero value selects the defaults with the layer
// enabled.
type RetransmitConfig = core.RetransmitConfig

// LossProfile describes deterministic simulated impairment of a
// transport's control-path datagrams (see WithLossProfile).
type LossProfile = core.LossProfile

// ClientLink is one client's endpoint of a Transport.
type ClientLink = core.ClientLink

// ServerEndpoint is the server-side surface a Transport dispatches into;
// Deployment implements it.
type ServerEndpoint = core.ServerEndpoint

// Observer receives deployment-wide data-path events: packets accepted
// into the managed network, packets delivered to client applications, and
// middlebox alerts.
type Observer = core.Observer

// ObserverFuncs adapts plain functions to Observer; nil fields ignore the
// corresponding event.
type ObserverFuncs = core.ObserverFuncs

// Alert is a middlebox alert raised inside a client's enclave, carrying
// the raising element's instance name and class.
type Alert = click.Alert

// Pipeline is a typed, validated middlebox function description. Build
// one with the mbox package (mbox.Chain, mbox.Raw, mbox.Stock) and set it
// on ClientSpec.Pipeline or Rollout.Pipeline; it is compiled and
// validated before anything reaches an enclave, and misconfigurations
// surface as errors wrapping ErrBadPipeline.
type Pipeline = mbox.Pipeline

// Stage is one element instance in a Pipeline (see mbox's stage
// constructors: mbox.Firewall, mbox.IDS, mbox.Custom, ...).
type Stage = mbox.Stage

// ElementStats is one pipeline element's runtime counters — packets,
// drops, alerts, live flow-state records — read per client via
// Client.PipelineStats.
type ElementStats = mbox.ElementStats

// FlowStats is a snapshot of one client enclave's flow-table counters
// (active flows, capacity, hits, expiries, evictions), read via
// Client.FlowStats. Size the table with WithFlowTable or
// ClientSpec.FlowCapacity/FlowTTL.
type FlowStats = mbox.FlowStats

// Rollout describes a middlebox configuration rollout: a pipeline, the
// version it publishes as, a grace period, and a Selector choosing which
// clients it applies to. Publish it with Deployment.Rollout — the one
// publish call. A Selector naming exactly one Measurement seals the update
// to that build (see ErrSealedToOtherBuild).
type Rollout = core.Rollout

// Selector picks the clients a targeted Rollout applies to, by ID and/or
// by ClientSpec.Labels. The zero Selector means every client.
type Selector = core.Selector

// RolloutResult reports the published version and the clients a rollout
// was announced to.
type RolloutResult = core.RolloutResult

// CanaryRollout stages a Rollout to a fraction of the selected clients
// first, gates promotion on the cohort's sealed health reports over a
// deadline, and rolls the cohort back to the last-known-good
// configuration automatically on a nack, a quarantine report, or a
// missed acknowledgement. Run it with Deployment.RolloutCanary.
type CanaryRollout = core.CanaryRollout

// CanaryResult reports what a canary rollout did: the cohort it staged
// to, whether the version was promoted fleet-wide or rolled back (and
// why), and the health reports and nacks collected during the watch.
type CanaryResult = core.CanaryResult

// FailurePolicy tunes element fault containment inside client enclaves:
// the trip threshold that quarantines a repeatedly panicking element and
// whether a quarantined stage fails closed (drop, the default) or open
// (bypass). Set it with WithFailurePolicy; containment itself is always on.
type FailurePolicy = click.FailurePolicy

// ElementFault is one containment event in a client's pipeline — a
// recovered element panic, and possibly the trip that quarantined the
// element. Delivered to FaultObserver implementations.
type ElementFault = click.ElementFault

// FaultObserver is optionally implemented by Observers that also want
// robustness events: element faults inside client enclaves and announced
// configuration versions a client could not apply (ObserverFuncs.OnFault
// / ObserverFuncs.OnUpdateError adapt plain functions).
type FaultObserver = core.FaultObserver

// HealthReport is a client's sealed self-assessment of one applied
// configuration version: hot-swap timing on success, panic/quarantine
// counters and the faulting element on failure. Canary rollouts gate
// promotion on these; read one directly via Client.HealthReport.
type HealthReport = vpn.HealthReport

// Nack is a client's sealed, typed rejection of an announced
// configuration version, carrying the reason it could not be applied.
type Nack = vpn.Nack

// ErrBadPipeline is the typed error AddClient, ResumeClient,
// Deployment.Rollout, RolloutCanary and mbox.Compile return for a zero
// Pipeline or one that cannot be compiled into a runnable router.
var ErrBadPipeline = mbox.ErrBadPipeline

// VIFStats are one client's virtual-interface counters (packets/bytes in
// each direction plus drops), read via Deployment.ClientStats or
// aggregated over all clients via Deployment.AggregateStats (paper §V-E).
type VIFStats = vpn.VIFStats

// AdmissionConfig tunes handshake admission control (see WithAdmission):
// a token bucket on handshake starts, a concurrent-handshake cap and a
// hard session bound, all enforced before expensive crypto.
type AdmissionConfig = lifecycle.AdmissionConfig

// LifecycleStats is the session-lifecycle snapshot read via
// Deployment.LifecycleStats: active/tracked/evicted/resumed session
// counters plus admission-control accept/throttle/reject totals.
type LifecycleStats = lifecycle.Stats

// ResumeState is the portable snapshot that lets a client re-establish
// its session after a process restart without re-running attestation —
// capture with Deployment.ResumeState, replay with Deployment.ResumeClient.
type ResumeState = core.ResumeState

// ErrAdmissionThrottled is returned (wrapped) when admission control
// refuses a handshake because the token bucket is empty or too many
// handshakes are already in flight; the client should back off and retry.
var ErrAdmissionThrottled = lifecycle.ErrAdmissionThrottled

// ErrServerFull is returned (wrapped) when the deployment is at its
// configured hard session bound; retrying is useless until sessions are
// evicted or removed.
var ErrServerFull = lifecycle.ErrServerFull

// MultiObserver fans events out to several observers in order.
func MultiObserver(obs ...Observer) Observer { return core.MultiObserver(obs...) }

// SwapTiming is the in-enclave phase breakdown of applying an update
// (decrypt + hot-swap durations).
type SwapTiming = core.SwapTiming

// UseCase names one of the five evaluated middlebox functions;
// mbox.Stock(u) is its pipeline.
type UseCase = click.UseCase

// The five middlebox functions of the paper's evaluation (§V-B).
const (
	UseCaseNOP  = click.UseCaseNOP
	UseCaseLB   = click.UseCaseLB
	UseCaseFW   = click.UseCaseFW
	UseCaseIDPS = click.UseCaseIDPS
	UseCaseDDoS = click.UseCaseDDoS
)

// EnclaveMode selects how client enclaves execute.
type EnclaveMode = sgx.Mode

// Enclave execution modes: simulation (no transition costs, like the SGX
// SDK simulation mode) and hardware (calibrated transition costs and EPC
// accounting).
const (
	ModeSimulation = sgx.ModeSimulation
	ModeHardware   = sgx.ModeHardware
)

// WireMode selects data-channel protection.
type WireMode = wire.Mode

// Data-channel protection modes: full encryption (enterprise scenario) or
// integrity-only (ISP scenario opt-in, paper §IV-A).
const (
	WireEncrypted     = wire.ModeEncrypted
	WireIntegrityOnly = wire.ModeIntegrityOnly
)

// CA is the operator-run certificate authority that verifies enclave
// quotes and provisions configuration keys.
type CA = attest.CA

// Certificate binds an attested enclave's keys to its measurement.
type Certificate = attest.Certificate

// Policy is the attested-identity policy registry: named enclave builds,
// their lineage (which build supersedes which) and revocation state.
// Create one with NewPolicy, attach it with WithPolicy, name builds with
// Deployment.RegisterBuild, and revoke them live with
// Deployment.RevokeBuild (new handshakes refused before crypto, live
// sessions evicted).
type Policy = policy.Registry

// Build is one registered enclave build: an operator-chosen name bound
// to the enclave measurement that build attests with.
type Build = policy.Build

// Measurement is an enclave code identity (MRENCLAVE): a SHA-256 digest
// over the enclave image. It is what attestation proves and what the
// policy engine names, targets and revokes.
type Measurement = sgx.Measurement

// ParseMeasurement parses the 64-hex-char form Measurement.String prints.
func ParseMeasurement(s string) (Measurement, error) { return sgx.ParseMeasurement(s) }

// NewPolicy creates an empty attested-identity policy registry.
func NewPolicy() *Policy { return policy.NewRegistry() }

// RevocationObserver is optionally implemented by Observers that also
// want build-revocation events (ObserverFuncs.OnRevoked adapts a plain
// function).
type RevocationObserver = core.RevocationObserver

// ErrBuildRevoked is returned (wrapped) when a handshake or resume is
// refused because the client's attested enclave build was revoked.
var ErrBuildRevoked = policy.ErrBuildRevoked

// ErrSealedToOtherBuild is the typed error a client reports when an
// update blob is measurement-sealed to a different enclave build: the
// client cannot decrypt it and keeps its last-known-good configuration.
var ErrSealedToOtherBuild = config.ErrSealedToOtherBuild

// ErrMeasurementDenied is returned (wrapped) when the CA refuses to
// certify an enclave whose measurement is not allowlisted — including
// builds whose measurement was revoked. It survives errors.Is across
// both transports.
var ErrMeasurementDenied = attest.ErrMeasurementDenied

// New builds the operator side of an EndBox system from functional
// options. With no options it is an encrypted in-process deployment.
func New(opts ...Option) (*Deployment, error) {
	var o core.DeploymentOptions
	for _, opt := range opts {
		opt(&o)
	}
	return core.NewDeployment(o)
}

// NewInProcessTransport returns the default transport: clients linked to
// the server by direct function calls in one process.
func NewInProcessTransport() Transport { return core.NewInProcessTransport() }

// NewUDPTransport returns a transport that binds the deployment's server
// side to a UDP socket on listen (":0" picks a free port) and dials a
// socket per client link. cmd/endbox-server and cmd/endbox-client are thin
// wrappers around it.
func NewUDPTransport(listen string) *udptransport.Transport {
	return udptransport.NewTransport(listen)
}

// CommunityRuleSets returns the default IDPS rule-set map (the generated
// 377-rule community set).
func CommunityRuleSets() map[string]string { return core.CommunityRuleSets() }
