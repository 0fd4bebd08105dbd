package core

import (
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"sync"
	"time"

	"endbox/internal/attest"
	"endbox/internal/click"
	"endbox/internal/config"
	"endbox/internal/packet"
	"endbox/internal/policy"
	"endbox/internal/sgx"
	"endbox/internal/vpn"
	"endbox/internal/wire"
)

// ServerOptions configures an EndBox server-side deployment: the VPN
// server, the CA-backed management plane and the configuration file server.
type ServerOptions struct {
	// CA is the operator's certificate authority. Required.
	CA *attest.CA
	// Mode selects data-channel protection for all clients (default
	// encrypted; the ISP scenario uses integrity-only).
	Mode wire.Mode
	// MinTLS is the server-side downgrade floor (default TLS12).
	MinTLS uint16
	// Clock is the time source (default time.Now).
	Clock func() time.Time
	// Deliver receives accepted client packets bound for the network.
	Deliver func(clientID string, ip []byte)
	// SendTo transmits frames back to clients.
	SendTo func(clientID string, frame []byte) error
	// ServerClick optionally attaches a server-side Click pipeline — the
	// OpenVPN+Click baseline of the evaluation. Nil for EndBox (the whole
	// point is that the server does no middlebox work).
	ServerClick *click.Instance
	// EncryptConfigs encrypts published configuration updates with the
	// CA's shared key (enterprise scenario hides rules; ISP scenario
	// publishes plaintext so customers can inspect them, paper §III-E).
	EncryptConfigs bool
	// Shards is the VPN session-table shard count (0 = automatic; 1
	// reproduces the monolithic single-lock table).
	Shards int
	// SessionTTL enables liveness-driven eviction: sessions idle for
	// this long may be swept. 0 disables (sessions live forever).
	SessionTTL time.Duration
	// TicketTTL bounds resumption-ticket age (0 = life of the server's
	// in-memory ticket key).
	TicketTTL time.Duration
	// OnNack receives clients' typed configuration rejections (sealed
	// FrameNack frames). Optional; the canary engine uses it.
	OnNack func(clientID string, n vpn.Nack)
	// OnHealth receives clients' health reports (sealed FrameHealth
	// frames): apply acks and fault notifications. Optional.
	OnHealth func(clientID string, h vpn.HealthReport)
	// Policy is the attested-identity policy registry. When set, the VPN
	// server refuses handshakes and resumes from revoked builds before any
	// certificate or signature crypto runs (the admission choke point).
	Policy *policy.Registry
}

// Server bundles the managed network's server side: VPN endpoint,
// configuration file server and the administrator's management interface
// (paper Fig. 5). It is safe for concurrent use.
type Server struct {
	opts    ServerOptions
	vpn     *vpn.Server
	configs *config.Server
	signKey ed25519.PrivateKey

	mu        sync.Mutex
	nextVer   uint64
	lastGrace time.Duration
	// journal records every published update by version — the rollback
	// source: a canary failure republishes the last-known-good entry's
	// content under a fresh (higher) version.
	journal map[uint64]*config.Update
}

// NewServer creates the server-side deployment.
func NewServer(opts ServerOptions) (*Server, error) {
	if opts.CA == nil {
		return nil, fmt.Errorf("core: ServerOptions.CA required")
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	serverPub, serverPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("core: server key: %w", err)
	}

	var process func(ip []byte) bool
	if opts.ServerClick != nil {
		inst := opts.ServerClick
		// The server-side Click instance is shared by every client's frame
		// handling; serialise access like the paper's single-threaded
		// OpenVPN+Click process.
		var clickMu sync.Mutex
		process = func(raw []byte) bool {
			ip, err := packet.ParseIPv4(raw)
			if err != nil {
				return false
			}
			clickMu.Lock()
			defer clickMu.Unlock()
			return inst.Process(ip).Accepted
		}
	}

	var gate func(m sgx.Measurement) error
	if opts.Policy != nil {
		gate = opts.Policy.CheckMeasurement
	}
	vsrv, err := vpn.NewServer(vpn.ServerOptions{
		CAPub:      opts.CA.PublicKey(),
		Credential: opts.CA.SignServerKey(serverPub),
		SignKey:    serverPriv,
		MinTLS:     opts.MinTLS,
		Mode:       opts.Mode,
		Clock:      vpn.Clock(opts.Clock),
		Deliver:    opts.Deliver,
		SendTo:     opts.SendTo,
		Process:    process,
		Shards:     opts.Shards,
		SessionTTL: opts.SessionTTL,
		TicketTTL:  opts.TicketTTL,
		OnNack:     opts.OnNack,
		OnHealth:   opts.OnHealth,

		GateMeasurement: gate,
	})
	if err != nil {
		return nil, err
	}
	return &Server{
		opts:    opts,
		vpn:     vsrv,
		configs: config.NewServer(),
		signKey: serverPriv,
		journal: make(map[uint64]*config.Update),
	}, nil
}

// VPN exposes the underlying VPN server (handshake Accept, HandleFrame,
// SendTo, stats).
func (s *Server) VPN() *vpn.Server { return s.vpn }

// Configs exposes the configuration file server clients fetch from.
func (s *Server) Configs() *config.Server { return s.configs }

// Publish is the one publish sequence (paper Fig. 5 steps 1-4): seal the
// update under the CA key, upload it to the configuration server and
// journal it, arm the grace-period policy and ping. A nil audience is the
// whole fleet — the global requirement moves to the version and every
// client is pinged; a non-nil audience (empty included: late joiners can
// still fetch) arms a per-client requirement for exactly those IDs and
// pings only them, leaving everyone else judged against the globally
// current version. The blob is encrypted under the fleet-shared key when
// the deployment encrypts configurations; a non-zero sealTo instead binds
// it to one enclave build, under the CA's per-measurement key, so every
// other build fails with ErrSealedToOtherBuild and keeps its
// last-known-good configuration. The update is published as given, with no
// pipeline validation — Deployment.Rollout is the public, validating
// entry point. The context bounds the sealing and the announcement fan-out.
func (s *Server) Publish(ctx context.Context, u *config.Update, audience []string, sealTo sgx.Measurement) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	var blob []byte
	var err error
	if !sealTo.IsZero() {
		blob, err = config.SealTo(u, s.opts.CA.SignConfig, s.opts.CA.MeasurementKey(sealTo), sealTo.String())
	} else {
		var key []byte
		if s.opts.EncryptConfigs {
			key = s.opts.CA.SharedKey()
		}
		blob, err = config.Seal(u, s.opts.CA.SignConfig, key)
	}
	if err != nil {
		return err
	}
	if err := s.configs.Publish(u.Version, blob); err != nil {
		return err
	}
	s.mu.Lock()
	s.journal[u.Version] = u
	s.mu.Unlock()
	return s.announce(ctx, u.Version, u.GracePeriod(), audience)
}

// JournalEntry returns the published update recorded under a version.
// Entries are immutable after publication; callers must not modify the
// returned update.
func (s *Server) JournalEntry(version uint64) (*config.Update, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.journal[version]
	return u, ok
}

// AnnounceGlobal promotes an already published version to the fleet-wide
// requirement: the policy's global current moves to it (absorbing any
// per-client targets at or below it) and every client is pinged. The
// canary engine widens a successful canary with this — the blob was
// published when the cohort was staged, so promotion is pure policy plus
// announcement, with no second seal.
func (s *Server) AnnounceGlobal(ctx context.Context, version uint64, grace time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if _, ok := s.JournalEntry(version); !ok {
		return fmt.Errorf("core: version %d was never published", version)
	}
	return s.announce(ctx, version, grace, nil)
}

// announce is the policy-and-ping half shared by Publish and
// AnnounceGlobal: arm the requirement for the audience (nil = the whole
// fleet, which also moves LatestGlobal), then ping it.
func (s *Server) announce(ctx context.Context, version uint64, grace time.Duration, audience []string) error {
	if audience != nil {
		if err := s.vpn.Policy().AnnounceTarget(audience, version, grace); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		return s.vpn.PingClients(audience, version, grace)
	}
	if err := s.vpn.Policy().Announce(version, grace); err != nil {
		return err
	}
	s.mu.Lock()
	s.nextVer = version
	s.lastGrace = grace
	s.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.vpn.BroadcastPing(grace)
}

// LatestGlobal reports the most recent globally published version (0
// when none). Targeted rollouts advance the configuration store's latest
// but not this, so boot-time fetches of "the current configuration"
// resolve to the fleet-wide one — a client outside a canary ring must
// not boot into the canary's version and be rejected as stale.
func (s *Server) LatestGlobal() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextVer
}

// BroadcastPing re-sends the periodic keepalive announcing the current
// version.
func (s *Server) BroadcastPing() error {
	s.mu.Lock()
	grace := s.lastGrace
	s.mu.Unlock()
	return s.vpn.BroadcastPing(grace)
}
