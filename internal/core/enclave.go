// Package core composes EndBox from its substrates: the SGX-protected
// client (VPN crypto + Click middlebox inside an enclave), the VPN server
// that is the managed network's sole entry point, the management plane for
// configuration updates, and the baseline deployments the paper compares
// against (vanilla OpenVPN and server-side OpenVPN+Click).
//
// The partitioning follows paper Fig. 3: packet en-/decryption, MAC
// handling, Click processing, configuration decryption and key material
// live inside the enclave (this file); fragmentation, encapsulation, socket
// I/O and configuration fetching stay outside (client.go).
package core

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"endbox/internal/attest"
	"endbox/internal/click"
	"endbox/internal/config"
	"endbox/internal/flow"
	"endbox/internal/idps"
	"endbox/internal/packet"
	"endbox/internal/sgx"
	"endbox/internal/tlstap"
	"endbox/internal/vpn"
	"endbox/internal/wire"
)

// ClientImage is the enclave image of the EndBox client. Its InitData
// carries the CA public key, pre-deployed at compile time to prevent MITM
// attacks during bootstrap (paper §III-C).
func ClientImage(caPub ed25519.PublicKey) sgx.Image {
	return ClientImageVersion(caPub, "")
}

// ClientImageVersion is the enclave image of a specific client build:
// the version string participates in the measurement, so every build the
// operator ships has a distinct code identity the policy registry can
// name, target and revoke. The empty version selects the default build
// ("1.0.0", identical to ClientImage).
func ClientImageVersion(caPub ed25519.PublicKey, version string) sgx.Image {
	if version == "" {
		version = "1.0.0"
	}
	return sgx.Image{
		Name:     "endbox-client",
		Version:  version,
		Code:     []byte("openvpn-sensitive+talos+click+sgxsdk"),
		InitData: append([]byte("ca-public-key:"), caPub...),
	}
}

// Ecall names of the EndBox enclave interface. Only the two starred calls
// run per packet (the paper's hot interface is four — §IV-B: "ENDBOX
// defines only 4 ecalls that are executed during normal operation" — ours
// folds the per-packet pair into the slab pair, a lone packet being a slab
// of one) and are byte-typed at the boundary, as are the naive per-stage
// calls; the rest are initialisation, management and statistics.
const (
	ecallKeygen          = "keygen"
	ecallProvision       = "provision"
	ecallRestore         = "restore"
	ecallHsSign          = "hs_sign"
	ecallHsFinish        = "hs_finish"
	ecallExportResume    = "export_resume"
	ecallResumeFinish    = "resume_finish"
	ecallInitClick       = "init_click"
	ecallProcessOutBatch = "process_out_batch" // *
	ecallProcessInBatch  = "process_in_batch"  // *
	ecallApplyConfig     = "apply_config"
	ecallForwardKey      = "forward_tls_key"
	ecallGetCert         = "get_cert"
	ecallPipelineStats   = "pipeline_stats"
	ecallFlowStats       = "flow_stats"
	ecallHealthReport    = "health_report"
	// Naive per-stage ecalls used only by the §V-G(1) ablation.
	ecallNaiveClick = "naive_click"
	ecallNaiveCrypt = "naive_encrypt"
	ecallNaiveMAC   = "naive_mac"
)

// Enclave-state errors.
var (
	ErrNotProvisioned = errors.New("core: enclave not provisioned")
	ErrNoSession      = errors.New("core: VPN session not established")
	ErrStaleUpdate    = errors.New("core: configuration version not newer than applied")
)

// enclaveState is everything that must never leave the enclave. It is only
// reachable through the registered ecalls.
type enclaveState struct {
	caPub ed25519.PublicKey

	signPriv ed25519.PrivateKey
	boxPriv  *ecdh.PrivateKey
	cert     *attest.Certificate
	shared   []byte
	// buildKey is the per-measurement configuration key the CA provisioned
	// alongside the fleet-shared key: updates sealed to this enclave's
	// build decrypt under it, and only enclaves attesting the same
	// measurement ever receive it (config.SealTo / OpenFor).
	buildKey []byte

	session *wire.Session
	// master is the current VPN session's master secret, retained for
	// fast resume: the resumed master is derived from it inside the
	// enclave, so it never crosses the boundary except sealed.
	master  []byte
	router  *click.Instance
	keys    *tlstap.KeyTable
	applied uint64
	flagC2C bool
	mode    wire.Mode
	minTLS  uint16
	ruleSet map[string]string

	// marshalBuf is the reusable serialisation scratch for packets the
	// middlebox rewrote. Ecall handlers run serialised (single TCS), so
	// one scratch per enclave is race-free; its contents are only valid
	// until the next ecall.
	marshalBuf []byte

	lastSwap SwapTiming
}

// SwapTiming is the in-enclave phase breakdown of a configuration update
// (Table II's decrypt and hotswap rows).
type SwapTiming struct {
	Decrypt time.Duration
	Hotswap time.Duration
}

// sealedIdentity is the enclave-persistent identity (paper §III-C step 7:
// "the enclave persistently stores the generated key pair as well as the
// certificate using the SGX sealing feature").
type sealedIdentity struct {
	SignPriv []byte `json:"sign_priv"`
	BoxPriv  []byte `json:"box_priv"`
	Cert     []byte `json:"cert"`
	Shared   []byte `json:"shared"`
	BuildKey []byte `json:"build_key,omitempty"`
}

// provisionArg crosses the boundary for ecallProvision.
type provisionArg struct {
	prov *attest.Provision
}

// hsFinishArg crosses the boundary for ecallHsFinish.
type hsFinishArg struct {
	st *vpn.HandshakeState
	sh *vpn.ServerHello
}

// sealedResume is the enclave-sealed session secret a client exports to
// survive a restart: presenting it back (with the server's resumption
// ticket) re-establishes the session without re-attesting.
type sealedResume struct {
	Master []byte `json:"master"`
}

// resumeFinishArg crosses the boundary for ecallResumeFinish. sealed is
// the exported resume secret; empty selects the in-memory master (an
// in-place resume after the server evicted the session).
type resumeFinishArg struct {
	sealed []byte
	req    *vpn.ResumeRequest
	reply  *vpn.ResumeReply
}

// initClickArg configures the in-enclave Click instance.
type initClickArg struct {
	clickConfig  string
	ruleSets     map[string]string
	version      uint64
	flagC2C      bool
	mode         wire.Mode
	minTLS       uint16
	flowCapacity int
	flowTTL      time.Duration
	failure      click.FailurePolicy
}

// applyConfigArg carries a fetched (possibly encrypted) update blob.
// allowRollback waives the monotonic-version check for the client's local
// self-revert to last-known-good: the blob is still CA-signed (any
// previously published version can be re-applied, nothing else), so the
// replay surface is limited to configurations the operator shipped.
// expectApplied is a compare-and-swap guard for rollbacks: the revert is
// rejected unless the currently applied version still equals it, so a
// self-revert racing a server-side rollback cannot downgrade a fresher
// configuration that landed in between.
type applyConfigArg struct {
	blob          []byte
	allowRollback bool
	expectApplied uint64
}

// applyResult reports the applied version and phase timings back across
// the boundary (both are public information).
type applyResult struct {
	version uint64
	timing  SwapTiming
}

// forwardKeyArg carries one TLS session key from the management interface.
type forwardKeyArg struct {
	flow packet.Flow
	key  tlstap.SessionKey
}

// registerEcalls installs the full EndBox enclave interface onto e. The
// returned state pointer is captured only by the handlers — mirroring
// memory that exists only inside the enclave.
func registerEcalls(e *sgx.Enclave, caPub ed25519.PublicKey, alert func(click.Alert), fault func(click.ElementFault)) error {
	st := &enclaveState{
		caPub:   caPub,
		keys:    tlstap.NewKeyTable(),
		ruleSet: make(map[string]string),
	}

	reg := func(name string, fn sgx.EcallFunc) error { return e.RegisterEcall(name, fn) }

	if err := reg(ecallKeygen, func(ctx *sgx.Ctx, _ any) (any, error) {
		signPub, signPriv, err := ed25519.GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("core: keygen: %w", err)
		}
		boxPriv, err := ecdh.X25519().GenerateKey(rand.Reader)
		if err != nil {
			return nil, fmt.Errorf("core: keygen: %w", err)
		}
		st.signPriv = signPriv
		st.boxPriv = boxPriv
		keys := attest.EnclaveKeys{SignPub: signPub, BoxPub: boxPriv.PublicKey().Bytes()}
		return ctx.CreateReport(keys.UserData()), nil
	}); err != nil {
		return err
	}

	if err := reg(ecallProvision, func(ctx *sgx.Ctx, arg any) (any, error) {
		a, ok := arg.(provisionArg)
		if !ok || a.prov == nil || a.prov.Certificate == nil {
			return nil, fmt.Errorf("core: bad provision argument")
		}
		// Verify the certificate chains to the CA key baked into the
		// image before accepting it (paper Fig. 4 step 7).
		if err := a.prov.Certificate.Verify(st.caPub, ctx.TrustedTime()); err != nil {
			return nil, fmt.Errorf("core: provisioned certificate: %w", err)
		}
		shared, err := attest.BoxOpen(st.boxPriv, a.prov.EphemeralPub, a.prov.SealedKey)
		if err != nil {
			return nil, err
		}
		// The per-measurement configuration key rides the same provision
		// under its own box: older CAs omit it, and the client then simply
		// cannot open build-sealed updates (fail-safe: it keeps LKG).
		var buildKey []byte
		if len(a.prov.BuildKeyPub) > 0 {
			buildKey, err = attest.BoxOpen(st.boxPriv, a.prov.BuildKeyPub, a.prov.SealedBuildKey)
			if err != nil {
				return nil, err
			}
		}
		st.cert = a.prov.Certificate
		st.shared = shared
		st.buildKey = buildKey
		// Seal the identity so attestation happens only once per machine.
		certRaw, err := st.cert.Marshal()
		if err != nil {
			return nil, err
		}
		blob, err := marshalIdentity(sealedIdentity{
			SignPriv: st.signPriv,
			BoxPriv:  st.boxPriv.Bytes(),
			Cert:     certRaw,
			Shared:   shared,
			BuildKey: buildKey,
		})
		if err != nil {
			return nil, err
		}
		return ctx.Seal(blob, []byte("endbox-identity"))
	}); err != nil {
		return err
	}

	if err := reg(ecallRestore, func(ctx *sgx.Ctx, arg any) (any, error) {
		sealed, ok := arg.([]byte)
		if !ok {
			return nil, fmt.Errorf("core: bad restore argument")
		}
		blob, err := ctx.Unseal(sealed, []byte("endbox-identity"))
		if err != nil {
			return nil, err
		}
		id, err := unmarshalIdentity(blob)
		if err != nil {
			return nil, err
		}
		boxPriv, err := ecdh.X25519().NewPrivateKey(id.BoxPriv)
		if err != nil {
			return nil, fmt.Errorf("core: restore box key: %w", err)
		}
		cert, err := attest.ParseCertificate(id.Cert)
		if err != nil {
			return nil, err
		}
		if err := cert.Verify(st.caPub, ctx.TrustedTime()); err != nil {
			return nil, fmt.Errorf("core: restored certificate: %w", err)
		}
		st.signPriv = ed25519.PrivateKey(id.SignPriv)
		st.boxPriv = boxPriv
		st.cert = cert
		st.shared = id.Shared
		st.buildKey = id.BuildKey
		return nil, nil
	}); err != nil {
		return err
	}

	if err := reg(ecallHsSign, func(_ *sgx.Ctx, arg any) (any, error) {
		transcript, ok := arg.([]byte)
		if !ok {
			return nil, fmt.Errorf("core: bad transcript argument")
		}
		if st.signPriv == nil {
			return nil, ErrNotProvisioned
		}
		return ed25519.Sign(st.signPriv, transcript), nil
	}); err != nil {
		return err
	}

	if err := reg(ecallHsFinish, func(_ *sgx.Ctx, arg any) (any, error) {
		a, ok := arg.(hsFinishArg)
		if !ok {
			return nil, fmt.Errorf("core: bad handshake-finish argument")
		}
		// Client-side downgrade check happens here, inside the enclave
		// (paper §V-A "Downgrade attacks").
		master, err := vpn.FinishClient(a.st, a.sh, st.caPub, st.minTLS)
		if err != nil {
			return nil, err
		}
		sess, err := wire.NewSession(master, st.mode, true)
		if err != nil {
			return nil, err
		}
		st.session = sess
		st.master = master
		return nil, nil
	}); err != nil {
		return err
	}

	// Export the current session secret sealed to this enclave, so a
	// restarted client can resume without re-attesting (the resume
	// analogue of the sealed identity).
	if err := reg(ecallExportResume, func(ctx *sgx.Ctx, _ any) (any, error) {
		if st.master == nil {
			return nil, ErrNoSession
		}
		blob, err := json.Marshal(sealedResume{Master: st.master})
		if err != nil {
			return nil, fmt.Errorf("core: marshal resume secret: %w", err)
		}
		return ctx.Seal(blob, []byte("endbox-resume"))
	}); err != nil {
		return err
	}

	// Finish a fast resume: verify the server's reply and derive the
	// rotated master inside the enclave — the previous master (sealed or
	// in-memory) never crosses the boundary in the clear, mirroring
	// ecallHsFinish. The client-side downgrade floor was already pinned
	// at the original handshake; resume cannot renegotiate it.
	if err := reg(ecallResumeFinish, func(ctx *sgx.Ctx, arg any) (any, error) {
		a, ok := arg.(resumeFinishArg)
		if !ok || a.req == nil || a.reply == nil {
			return nil, fmt.Errorf("core: bad resume-finish argument")
		}
		prev := st.master
		if len(a.sealed) > 0 {
			blob, err := ctx.Unseal(a.sealed, []byte("endbox-resume"))
			if err != nil {
				return nil, err
			}
			var sr sealedResume
			if err := json.Unmarshal(blob, &sr); err != nil {
				return nil, fmt.Errorf("core: unmarshal resume secret: %w", err)
			}
			prev = sr.Master
		}
		if prev == nil {
			return nil, ErrNoSession
		}
		master, err := vpn.FinishResume(a.req, a.reply, st.caPub, prev)
		if err != nil {
			return nil, err
		}
		sess, err := wire.NewSession(master, st.mode, true)
		if err != nil {
			return nil, err
		}
		st.session = sess
		st.master = master
		return nil, nil
	}); err != nil {
		return err
	}

	if err := reg(ecallInitClick, func(ctx *sgx.Ctx, arg any) (any, error) {
		a, ok := arg.(initClickArg)
		if !ok {
			return nil, fmt.Errorf("core: bad click-init argument")
		}
		st.mode = a.mode
		st.minTLS = a.minTLS
		st.flagC2C = a.flagC2C
		st.applied = a.version
		for name, text := range a.ruleSets {
			st.ruleSet[name] = text
		}
		inst, err := click.NewInstance(a.clickConfig, nil, &click.Context{
			TrustedTime: func() time.Time { return ctx.TrustedTime() },
			RuleSet: func(name string) (string, error) {
				if text, ok := st.ruleSet[name]; ok {
					return text, nil
				}
				// Scaled provider names regenerate deterministically
				// inside the enclave instead of riding the update blob.
				if text, ok, err := idps.ResolveGenerated(name); ok {
					return text, err
				}
				return "", fmt.Errorf("core: unknown rule set %q", name)
			},
			Keys:  st.keys,
			Alert: alert,
			// Fault containment: a panicking element is recovered at the
			// router boundary instead of unwinding out of the ecall, and
			// containment events surface through the fault hook (queued
			// outside the enclave exactly like alerts).
			Failure: a.failure,
			Fault:   fault,
			// Flow expiry reads the cheap untrusted clock: a skewed clock
			// can only age flows out early or late, never corrupt state.
			// The hash seed is drawn per enclave so an attacker cannot
			// precompute 5-tuples that collide in the flow table.
			Flows: flow.NewContext(flow.Config{
				Capacity: a.flowCapacity,
				TTL:      a.flowTTL,
				Seed:     flow.RandomSeed(),
			}),
			// No DeviceSetup: OpenVPN owns the tunnel device, the reason
			// EndBox hot-swaps faster than vanilla Click (Table II).
		})
		if err != nil {
			return nil, err
		}
		st.router = inst
		return nil, nil
	}); err != nil {
		return err
	}

	// Egress: one boundary crossing seals a slab — a burst, or a lone
	// packet as a slab of one — packed into a single length-prefixed buffer
	// in each direction, so the boundary cost AND the per-packet allocations
	// are both amortised to (almost) zero (the transition-amortisation the
	// paper's single-ecall design enables, taken one step further for
	// send-heavy workloads).
	if err := e.RegisterBytesEcall(ecallProcessOutBatch, func(_ *sgx.Ctx, slab []byte) ([]byte, error) {
		n, err := vpn.SlabCount(slab)
		if err != nil {
			return nil, err
		}
		res := wire.GetBuffer(vpn.ResultSlabCap(len(slab), n))[:0]
		r := vpn.NewSlabReader(slab)
		for {
			payload, ok := r.Next()
			if !ok {
				break
			}
			res = st.appendSealedOutbound(res, payload)
		}
		return res, nil
	}); err != nil {
		return err
	}

	// Ingress: one boundary crossing opens a received slab — the mirror of
	// ecallProcessOutBatch. Frames are decrypted in place inside the request
	// slab; opened payloads are packed into the pooled result slab.
	if err := e.RegisterBytesEcall(ecallProcessInBatch, func(_ *sgx.Ctx, slab []byte) ([]byte, error) {
		return vpn.MapSlab(slab, st.openInbound)
	}); err != nil {
		return err
	}

	if err := reg(ecallApplyConfig, func(ctx *sgx.Ctx, arg any) (any, error) {
		a, ok := arg.(applyConfigArg)
		if !ok {
			return nil, fmt.Errorf("core: bad apply-config argument")
		}
		t0 := time.Now()
		// OpenFor enforces measurement sealing with this enclave's own
		// attested identity: an update sealed to another build fails here
		// with ErrSealedToOtherBuild — before the version check, so the
		// applied version (and LKG) are untouched.
		u, err := config.OpenFor(a.blob, st.caPub, st.shared, ctx.Measurement().String(), st.buildKey)
		if err != nil {
			return nil, err
		}
		decryptDur := time.Since(t0)
		// Replay protection: versions increase monotonically (paper
		// §III-E: "To prevent clients from replaying old configuration
		// files, the version number ... is incorporated inside the update
		// itself"). The one sanctioned exception is an explicit local
		// rollback to a previously applied (CA-signed) version, used by
		// the self-revert path when a fresh configuration trips
		// quarantine.
		if u.Version <= st.applied && !a.allowRollback {
			return nil, fmt.Errorf("%w: %d <= %d", ErrStaleUpdate, u.Version, st.applied)
		}
		if a.allowRollback && st.applied != a.expectApplied {
			return nil, fmt.Errorf("%w: rollback expected applied %d, have %d",
				ErrStaleUpdate, a.expectApplied, st.applied)
		}
		if st.router == nil {
			return nil, ErrNoSession
		}
		for name, text := range u.RuleSets {
			st.ruleSet[name] = text
		}
		swapDur, err := st.router.Swap(u.ClickConfig)
		if err != nil {
			return nil, err
		}
		st.applied = u.Version
		st.lastSwap = SwapTiming{Decrypt: decryptDur, Hotswap: swapDur}
		return applyResult{version: u.Version, timing: st.lastSwap}, nil
	}); err != nil {
		return err
	}

	if err := reg(ecallFlowStats, func(_ *sgx.Ctx, _ any) (any, error) {
		if st.router == nil {
			return nil, ErrNoSession
		}
		return st.router.FlowStats(), nil
	}); err != nil {
		return err
	}

	if err := reg(ecallPipelineStats, func(_ *sgx.Ctx, _ any) (any, error) {
		if st.router == nil {
			return nil, ErrNoSession
		}
		// The snapshot is freshly allocated counter values — no enclave
		// state crosses the boundary.
		return st.router.Stats(), nil
	}); err != nil {
		return err
	}

	// Health summary for canary rollouts: the applied version, the last
	// swap's timing, and the pipeline's cumulative fault counters. All
	// public information (counters, not packet contents).
	if err := reg(ecallHealthReport, func(_ *sgx.Ctx, _ any) (any, error) {
		if st.router == nil {
			return nil, ErrNoSession
		}
		h := vpn.HealthReport{
			Version:   st.applied,
			SwapNanos: st.lastSwap.Hotswap.Nanoseconds(),
		}
		for _, s := range st.router.Stats() {
			h.Panics += s.Panics
			h.Drops += s.Drops
			if s.Quarantined {
				h.Quarantined++
				h.Fault = s.Name
			}
		}
		return h, nil
	}); err != nil {
		return err
	}

	if err := reg(ecallGetCert, func(_ *sgx.Ctx, _ any) (any, error) {
		if st.cert == nil {
			return nil, ErrNotProvisioned
		}
		// The certificate is public; exporting it is safe.
		return st.cert.Marshal()
	}); err != nil {
		return err
	}

	if err := reg(ecallForwardKey, func(_ *sgx.Ctx, arg any) (any, error) {
		a, ok := arg.(forwardKeyArg)
		if !ok {
			return nil, fmt.Errorf("core: bad key-forward argument")
		}
		st.keys.Put(a.flow, a.key)
		return nil, nil
	}); err != nil {
		return err
	}

	// Naive per-stage ecalls for the enclave-transition ablation
	// (paper §IV-A / §V-G(1)): Click, encryption and MAC each cross the
	// boundary separately, the design EndBox's batching replaced.
	if err := e.RegisterBytesEcall(ecallNaiveClick, func(_ *sgx.Ctx, payload []byte) ([]byte, error) {
		out, err := st.clickOutbound(payload)
		if err != nil {
			return nil, err
		}
		// Rewritten packets land in the enclave's marshal scratch, which
		// the next ecall reuses — and the naive plane makes two more
		// ecalls (crypt, MAC) with this result while other goroutines'
		// ecalls may interleave. Copy out; this is the deliberately
		// unoptimised ablation path, so the allocation is the point.
		return append([]byte(nil), out...), nil
	}); err != nil {
		return err
	}
	if err := e.RegisterBytesEcall(ecallNaiveCrypt, func(_ *sgx.Ctx, payload []byte) ([]byte, error) {
		// The split design encrypts here and MACs in a third crossing; the
		// wire codec fuses both, so the MAC call below re-enters with the
		// sealed frame.
		if st.session == nil {
			return nil, ErrNoSession
		}
		return payload, nil
	}); err != nil {
		return err
	}
	if err := e.RegisterBytesEcall(ecallNaiveMAC, func(_ *sgx.Ctx, payload []byte) ([]byte, error) {
		if st.session == nil {
			return nil, ErrNoSession
		}
		return st.session.Seal(payload)
	}); err != nil {
		return err
	}

	return nil
}

// appendSealedOutbound is the egress path (paper Fig. 3 steps 1-4): Click
// processing, client-to-client flagging, then encrypt+MAC one encapsulated
// payload, writing the sealed frame directly into the result slab (or the
// error entry that excluded the packet).
func (st *enclaveState) appendSealedOutbound(res, payload []byte) []byte {
	if st.session == nil {
		return vpn.AppendResultErr(res, ErrNoSession)
	}
	if len(payload) > 0 && payload[0] == vpn.FrameData {
		out, err := st.clickOutbound(payload)
		if err != nil {
			return vpn.AppendResultErr(res, err)
		}
		payload = out
	}
	mark := len(res)
	res, window := vpn.AppendResultReserve(res, st.session.SealedLen(len(payload)))
	if _, err := st.session.SealTo(payload, window); err != nil {
		return vpn.AppendResultErr(res[:mark], err)
	}
	return res
}

// clickOutbound runs the middlebox over a data payload, returning the
// possibly rewritten payload or ErrDropped. Unmodified packets keep their
// original serialisation (no re-marshal on the hot path); rewritten ones
// are serialised into the enclave's marshal scratch, which stays valid
// only until the next ecall — the egress callers consume it before
// returning (SealTo copies it into the outgoing frame).
func (st *enclaveState) clickOutbound(payload []byte) ([]byte, error) {
	if st.router == nil {
		return nil, ErrNoSession
	}
	ip := packet.AcquireIPv4()
	defer ip.Release()
	if err := ip.Parse(payload[1:]); err != nil {
		return nil, fmt.Errorf("core: outbound packet: %w", err)
	}
	res := st.router.Process(ip)
	if !res.Accepted {
		return nil, fmt.Errorf("%w (by %s)", vpn.ErrDropped, res.DroppedBy)
	}
	if st.flagC2C && res.Packet.IP.TOS != packet.ProcessedTOS {
		res.Packet.IP.TOS = packet.ProcessedTOS
		res.Packet.MarkModified()
	}
	if !res.Packet.Modified() {
		return payload, nil
	}
	return st.marshalPayload(res.Packet.IP), nil
}

// marshalPayload re-serialises a rewritten packet into the enclave's
// reusable marshal scratch (ecalls are serialised, so one scratch per
// enclave suffices).
func (st *enclaveState) marshalPayload(ip *packet.IPv4) []byte {
	need := 1 + ip.Len()
	if cap(st.marshalBuf) < need {
		st.marshalBuf = make([]byte, need, need+512)
	}
	out := st.marshalBuf[:need]
	out[0] = vpn.FrameData
	ip.MarshalTo(out[1:])
	return out
}

// openInbound is the ingress path: verify+decrypt in place inside the
// request slab, then run Click unless the packet carries a peer's 0xeb flag
// (paper §IV-A "Client-to-client communication"). The returned payload
// aliases frame, or the enclave's marshal scratch when the middlebox
// rewrote the packet; vpn.MapSlab copies it into the result slab before
// the next entry is opened.
func (st *enclaveState) openInbound(frame []byte) ([]byte, error) {
	if st.session == nil {
		return nil, ErrNoSession
	}
	payload, err := st.session.OpenInPlace(frame)
	if err != nil {
		return nil, err
	}
	if len(payload) == 0 || payload[0] != vpn.FrameData {
		return payload, nil
	}
	ip := packet.AcquireIPv4()
	defer ip.Release()
	if err := ip.Parse(payload[1:]); err != nil {
		return nil, fmt.Errorf("core: inbound packet: %w", err)
	}
	if st.flagC2C && ip.TOS == packet.ProcessedTOS {
		// Already processed by the sending EndBox client; the server
		// guarantees external traffic cannot carry this flag.
		return payload, nil
	}
	res := st.router.Process(ip)
	if !res.Accepted {
		return nil, fmt.Errorf("%w (by %s)", vpn.ErrDropped, res.DroppedBy)
	}
	if !res.Packet.Modified() {
		return payload, nil
	}
	return st.marshalPayload(res.Packet.IP), nil
}
