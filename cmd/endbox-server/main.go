// Command endbox-server runs the managed network's server side over real
// UDP: the attestation endpoints (IAS registration + CA enrolment), the
// VPN server, the configuration file server, and a demo "network" that
// echoes tunnelled packets back to their sender.
//
// It is a thin wrapper around the public endbox facade: a Deployment with
// the UDP transport bound to the listen address. All datagram handling
// lives in the transport; this binary only selects options and publishes
// configurations.
//
//	endbox-server -listen 127.0.0.1:11940
//	endbox-server -listen 127.0.0.1:11940 -usecase IDPS -grace 30 -update-after 20
//
// Pair it with cmd/endbox-client.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"endbox"
	"endbox/internal/click"
	"endbox/mbox"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		listen      = flag.String("listen", "127.0.0.1:11940", "UDP address to listen on")
		useCase     = flag.String("usecase", "FW", "initial middlebox use case (NOP|LB|FW|IDPS|DDoS)")
		pipeline    = flag.String("pipeline", "", "initial middlebox pipeline as raw Click configuration text (overrides -usecase; validated before publishing)")
		grace       = flag.Int("grace", 30, "grace period in seconds for configuration updates")
		updateAfter = flag.Int("update-after", 0, "publish a demo configuration update after N seconds (0 = never)")
		udpWorkers  = flag.Int("udp-workers", 0, "ingress worker pool size (0 = single serve goroutine)")
		arqTimeout  = flag.Duration("arq-timeout", 200*time.Millisecond, "initial control-path retransmit timeout")
		arqRetries  = flag.Int("arq-retries", 5, "control-path retransmit budget per transfer")
		lossDrop    = flag.Float64("loss", 0, "simulated control-path drop probability [0,1] (demo/testing)")
		lossDup     = flag.Float64("loss-dup", 0, "simulated duplicate probability [0,1]")
		lossReorder = flag.Float64("loss-reorder", 0, "simulated reorder probability [0,1]")
		lossSeed    = flag.Int64("loss-seed", 1, "seed for the deterministic loss model")
		lossCorrupt = flag.Uint64("loss-corrupt", 0, "corrupt every Nth control-path datagram with a bit flip (0 = never; corrupted sealed frames fail authentication and are retransmitted)")
		canaryFrac  = flag.Float64("canary-fraction", 0, "stage -update-after's demo update as a health-gated canary to this fraction of the fleet first (0 = publish directly, no canary)")
		canaryWait  = flag.Duration("canary-deadline", 30*time.Second, "canary observation window: every cohort member must ack healthily within it or the rollout auto-rolls-back")
		failOpen    = flag.Bool("fail-open", false, "quarantined pipeline elements bypass traffic instead of dropping it (default fail-closed)")
		flowCap     = flag.Int("flow-capacity", 0, "bound on concurrently tracked flows per client enclave (0 = default 16384)")
		flowTTL     = flag.Duration("flow-ttl", 0, "flow idle timeout before expiry (0 = default 2m)")
		sessionTTL  = flag.Duration("session-ttl", 0, "evict sessions idle for this long (0 = never evict)")
		hsRate      = flag.Float64("hs-rate", 0, "admitted handshakes per second, token-bucket refill (0 = unlimited)")
		hsBurst     = flag.Int("hs-burst", 0, "handshake token-bucket depth (0 = derived from -hs-rate)")
		hsInflight  = flag.Int("hs-inflight", 0, "cap on concurrently in-flight handshakes (0 = unlimited)")
		maxSessions = flag.Int("max-sessions", 0, "hard bound on established sessions (0 = unlimited)")
		allowBuilds = flag.String("allow-builds", "", "register and allowlist enclave builds: comma-separated name=measurement pairs, measurement as 64 hex chars or @buildVersion to measure the named client-image build here (@ alone = the default build endbox-client runs); registration order is lineage order, @-entries after plain ones")
		revoke      = flag.String("revoke", "", "revoke these registered builds (comma-separated names) after -revoke-after: their handshakes are refused and live sessions evicted")
		revokeAfter = flag.Duration("revoke-after", 0, "delay before -revoke fires (0 = at startup)")
	)
	flag.Parse()
	ctx := context.Background()

	// Resolve the initial middlebox function: an explicit -pipeline, or
	// the stock pipeline of -usecase. Either way publishing it below
	// compiles and validates it — a typo fails at startup, not inside an
	// enclave.
	uc, err := parseUseCase(*useCase)
	if err != nil {
		return err
	}
	boot := mbox.Stock(uc)
	bootLabel := uc.String()
	if *pipeline != "" {
		boot = mbox.Raw(*pipeline)
		bootLabel = "custom pipeline"
	}

	// Attested-identity policy: -allow-builds names the enclave builds
	// that may enrol; -revoke revokes some of them live, evicting their
	// sessions. Plain name=64hex entries carry externally computed
	// measurements and register up front; name=@version entries need the
	// deployment's CA key to measure the client image, so they register
	// after the deployment exists.
	var pol *endbox.Policy
	var computedBuilds [][2]string
	if *allowBuilds != "" {
		pol = endbox.NewPolicy()
		var hexEntries []string
		for _, entry := range strings.Split(*allowBuilds, ",") {
			name, val, ok := strings.Cut(strings.TrimSpace(entry), "=")
			if ok && strings.HasPrefix(val, "@") {
				computedBuilds = append(computedBuilds, [2]string{name, strings.TrimPrefix(val, "@")})
				continue
			}
			hexEntries = append(hexEntries, entry)
		}
		if len(hexEntries) > 0 {
			if err := pol.RegisterSpec(strings.Join(hexEntries, ",")); err != nil {
				return fmt.Errorf("-allow-builds: %w", err)
			}
		}
	}
	if *revoke != "" && pol == nil {
		return fmt.Errorf("-revoke requires -allow-builds (revocation names registered builds)")
	}

	transport := endbox.NewUDPTransport(*listen)
	transport.Logf = log.Printf

	opts := []endbox.Option{
		endbox.WithTransport(transport),
		endbox.WithUDPWorkers(*udpWorkers),
		endbox.WithRetransmit(endbox.RetransmitConfig{
			Timeout:    *arqTimeout,
			MaxRetries: *arqRetries,
		}),
		endbox.WithLossProfile(endbox.LossProfile{
			Drop:         *lossDrop,
			Duplicate:    *lossDup,
			Reorder:      *lossReorder,
			Seed:         *lossSeed,
			CorruptEvery: *lossCorrupt,
		}),
		endbox.WithFailurePolicy(endbox.FailurePolicy{FailOpen: *failOpen}),
		endbox.WithFlowTable(*flowCap, *flowTTL),
		endbox.WithSessionTTL(*sessionTTL),
		endbox.WithAdmission(endbox.AdmissionConfig{
			HandshakeRate:  *hsRate,
			HandshakeBurst: *hsBurst,
			MaxConcurrent:  *hsInflight,
			MaxSessions:    *maxSessions,
		}),
		// Demo "managed network": echo packets back to the sender,
		// answering ICMP echo requests properly.
		endbox.WithEchoNetwork(),
	}
	if pol != nil {
		opts = append(opts, endbox.WithPolicy(pol))
	}
	deployment, err := endbox.New(opts...)
	if err != nil {
		return err
	}
	defer deployment.Close()

	for _, b := range computedBuilds {
		m, err := deployment.RegisterBuild(b[0], b[1])
		if err != nil {
			return fmt.Errorf("-allow-builds: %w", err)
		}
		version := b[1]
		if version == "" {
			version = "default"
		}
		log.Printf("registered build %s (client image %s) measurement %s", b[0], version, m)
	}

	if *revoke != "" {
		names := strings.Split(*revoke, ",")
		go func() {
			if *revokeAfter > 0 {
				time.Sleep(*revokeAfter)
			}
			for _, name := range names {
				name = strings.TrimSpace(name)
				if name == "" {
					continue
				}
				if err := deployment.RevokeBuild(name); err != nil {
					log.Printf("revoke %s: %v", name, err)
					continue
				}
				log.Printf("revoked build %s: new handshakes refused, live sessions evicted", name)
			}
		}()
	}

	// Publish the initial configuration as version 1 so clients can fetch
	// it (they boot with the same use case, so this also exercises the
	// update path when -update-after fires).
	if _, err := deployment.Rollout(ctx, endbox.Rollout{
		Version:      1,
		GraceSeconds: uint32(*grace),
		Pipeline:     boot,
		RuleSets:     endbox.CommunityRuleSets(),
	}); err != nil {
		return fmt.Errorf("initial configuration (-usecase/-pipeline): %w", err)
	}

	if *updateAfter > 0 {
		go func() {
			time.Sleep(time.Duration(*updateAfter) * time.Second)
			demo := endbox.Rollout{
				Version:      2,
				GraceSeconds: uint32(*grace),
				Pipeline:     mbox.Stock(endbox.UseCaseFW),
				RuleSets:     endbox.CommunityRuleSets(),
			}
			if *canaryFrac > 0 {
				log.Printf("staging demo update v2 as a canary to %.0f%% of the fleet (deadline %v)",
					*canaryFrac*100, *canaryWait)
				res, err := deployment.RolloutCanary(ctx, endbox.CanaryRollout{
					Rollout:  demo,
					Fraction: *canaryFrac,
					Deadline: *canaryWait,
				})
				switch {
				case err != nil:
					log.Printf("canary failed: %v", err)
				case res.Promoted:
					log.Printf("canary v2 healthy on %v, promoted fleet-wide", res.Canary)
				default:
					log.Printf("canary v2 rolled back to last-known-good as v%d: %s",
						res.RollbackVersion, res.Reason)
				}
				return
			}
			log.Printf("publishing demo update v2 (use case FW with tightened rules)")
			if _, err := deployment.Rollout(ctx, demo); err != nil {
				log.Printf("update failed: %v", err)
			}
		}()
	}

	arqState := fmt.Sprintf("ARQ rto %v, %d retries", *arqTimeout, *arqRetries)
	if *lossDrop > 0 || *lossDup > 0 || *lossReorder > 0 {
		arqState += fmt.Sprintf(", simulated loss %.0f%%", *lossDrop*100)
	}
	if *sessionTTL > 0 {
		arqState += fmt.Sprintf(", session TTL %v", *sessionTTL)
	}
	if *maxSessions > 0 || *hsRate > 0 || *hsInflight > 0 {
		arqState += ", admission control on"
	}
	if *failOpen {
		arqState += ", fail-open containment"
	}
	if pol != nil {
		arqState += fmt.Sprintf(", %d builds registered", len(pol.Builds()))
	}
	fmt.Fprintf(os.Stderr, "endbox-server listening on %s (%s, %d session shards, %d ingress workers, %s, CA ready)\n",
		transport.Addr(), bootLabel, deployment.Server.VPN().ShardCount(), transport.Workers(), arqState)

	// The transport serves datagrams on its own goroutine; wait for an
	// interrupt.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	return nil
}

func parseUseCase(s string) (click.UseCase, error) {
	for _, uc := range click.AllUseCases {
		if uc.String() == s {
			return uc, nil
		}
	}
	return 0, fmt.Errorf("unknown use case %q", s)
}
