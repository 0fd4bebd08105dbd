// Command endbox-client is the EndBox client over real UDP: it creates the
// (simulated) SGX enclave, registers its platform, runs remote attestation
// against the server's CA, fetches the current middlebox configuration,
// connects the VPN, and then sends ICMP pings through the tunnel, printing
// round-trip times. Configuration updates announced by the server are
// fetched and hot-swapped automatically.
//
// It is a thin wrapper around internal/udptransport's client link — the
// same code a Deployment uses when configured with the UDP transport.
//
//	endbox-client -server 127.0.0.1:11940 -id laptop-1 -pings 10
//
// Pair it with cmd/endbox-server.
package main

import (
	"context"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"endbox/internal/click"
	"endbox/internal/config"
	"endbox/internal/core"
	"endbox/internal/netsim"
	"endbox/internal/packet"
	"endbox/internal/sgx"
	"endbox/internal/udptransport"
	"endbox/internal/vpn"
	"endbox/mbox"
)

// resumeFile is the on-disk resume state (-resume-state): everything a
// restarted client process needs to re-establish its session in one round
// trip. The sealed blobs only unseal on the same (simulated) CPU, and the
// ticket only opens under the server's in-memory ticket key, so the file
// is not a credential on its own.
type resumeFile struct {
	ClientID       string            `json:"client_id"`
	CAPub          ed25519.PublicKey `json:"ca_pub"`
	SealedIdentity []byte            `json:"sealed_identity"`
	Secret         []byte            `json:"secret"`
	Ticket         []byte            `json:"ticket"`
	Version        uint64            `json:"version"`
}

func loadResumeState(path string) (*resumeFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var st resumeFile
	if err := json.Unmarshal(raw, &st); err != nil {
		return nil, err
	}
	if len(st.Ticket) == 0 || len(st.Secret) == 0 || len(st.SealedIdentity) == 0 || len(st.CAPub) != ed25519.PublicKeySize {
		return nil, fmt.Errorf("incomplete resume state")
	}
	return &st, nil
}

func saveResumeState(path, id string, caPub ed25519.PublicKey, cli *core.Client) error {
	secret, err := cli.ResumeSecret()
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(resumeFile{
		ClientID:       id,
		CAPub:          caPub,
		SealedIdentity: cli.SealedIdentity(),
		Secret:         secret,
		Ticket:         cli.Ticket(),
		Version:        cli.AppliedVersion(),
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o600)
}

// loadLKG reads a persisted last-known-good version (-lkg-state); 0 when
// the file is absent or unreadable — the client then simply has no local
// revert point until its first clean version change.
func loadLKG(path string) uint64 {
	raw, err := os.ReadFile(path)
	if err != nil {
		if !errors.Is(err, os.ErrNotExist) {
			log.Printf("lkg state %s unusable (%v); starting without a revert point", path, err)
		}
		return 0
	}
	v, err := strconv.ParseUint(strings.TrimSpace(string(raw)), 10, 64)
	if err != nil {
		log.Printf("lkg state %s unusable (%v); starting without a revert point", path, err)
		return 0
	}
	return v
}

func saveLKG(path string, v uint64) {
	if v == 0 {
		return
	}
	if err := os.WriteFile(path, []byte(strconv.FormatUint(v, 10)+"\n"), 0o600); err != nil {
		log.Printf("lkg state not saved: %v", err)
	}
}

// connect joins the server through core.Join — the same sequence a
// Deployment runs for its own clients. The boot configuration is the
// server's current one, fetched and verified as soon as the CA key is known
// (paper §III-E: the config server is publicly readable so clients can
// always obtain up-to-date configurations before connecting); a non-empty
// pipeline overrides its Click text, compiled against the fetched rule sets
// so a typo fails before the enclave is even created. With a resume state
// the join is one MsgResume round trip; a stale ticket (server restart,
// eviction past the ticket TTL) is recoverable: the state file is discarded
// and the client attests from scratch. It returns the CA key the client
// ended up trusting, for the next run's resume state.
func connect(ctx context.Context, link core.ClientLink, state *resumeFile, resumePath, pipeline string, opts core.ClientOptions) (*core.Client, ed25519.PublicKey, error) {
	var trusted ed25519.PublicKey
	jo := core.JoinOptions{
		Client: opts,
		Boot: func(caPub ed25519.PublicKey, o *core.ClientOptions) error {
			trusted = caPub
			blob, err := link.FetchConfig(ctx, 0)
			if err != nil {
				return fmt.Errorf("initial configuration: %w", err)
			}
			initial, err := config.Open(blob, caPub, nil)
			if err != nil {
				return fmt.Errorf("initial configuration: %w", err)
			}
			fmt.Printf("boot configuration v%d fetched (%d rule sets)\n", initial.Version, len(initial.RuleSets))
			o.ClickConfig, o.RuleSets, o.ConfigVersion = initial.ClickConfig, initial.RuleSets, initial.Version
			if pipeline != "" {
				if o.ClickConfig, err = mbox.Compile(mbox.Raw(pipeline), initial.RuleSets); err != nil {
					return fmt.Errorf("-pipeline: %w", err)
				}
				fmt.Println("boot configuration overridden by -pipeline")
			}
			return nil
		},
	}
	if state != nil {
		jo.Client.CAPub = state.CAPub
		jo.Resume = &core.ResumeState{
			ClientID:       state.ClientID,
			SealedIdentity: state.SealedIdentity,
			Secret:         state.Secret,
			Ticket:         state.Ticket,
		}
		fmt.Println("resume state loaded; skipping platform registration and attestation")
		cli, err := core.Join(ctx, link, jo)
		if err == nil {
			fmt.Println("VPN resumed (no attestation, no key exchange)")
			return cli, trusted, nil
		}
		log.Printf("fast resume: %v; falling back to full attestation", err)
		os.Remove(resumePath)
		jo.Client.CAPub, jo.Resume = nil, nil
	}
	cli, err := core.Join(ctx, link, jo)
	if err != nil {
		return nil, nil, err
	}
	fmt.Println("enclave created, attested and provisioned; VPN connected")
	return cli, trusted, nil
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	var (
		server      = flag.String("server", "127.0.0.1:11940", "endbox-server UDP address")
		id          = flag.String("id", "client-1", "client identifier")
		build       = flag.String("build", "", "client enclave build version: participates in the measurement, so the server's -allow-builds/-revoke policy sees this client as that build (empty = the default build)")
		pipeline    = flag.String("pipeline", "", "boot with this raw Click pipeline instead of the fetched configuration (validated locally; server updates still apply)")
		pings       = flag.Int("pings", 10, "tunnelled pings to send")
		period      = flag.Duration("interval", 500*time.Millisecond, "ping interval")
		timeout     = flag.Duration("timeout", 30*time.Second, "attestation/handshake deadline")
		arqTimeout  = flag.Duration("arq-timeout", 200*time.Millisecond, "initial control-path retransmit timeout")
		arqRetries  = flag.Int("arq-retries", 5, "control-path retransmit budget per transfer")
		lossDrop    = flag.Float64("loss", 0, "simulated control-path drop probability [0,1] (demo/testing)")
		lossDup     = flag.Float64("loss-dup", 0, "simulated duplicate probability [0,1]")
		lossReorder = flag.Float64("loss-reorder", 0, "simulated reorder probability [0,1]")
		lossSeed    = flag.Int64("loss-seed", 2, "seed for the deterministic loss model")
		flowCap     = flag.Int("flow-capacity", 0, "bound on concurrently tracked flows in the enclave flow table (0 = default 16384)")
		flowTTL     = flag.Duration("flow-ttl", 0, "flow idle timeout before expiry (0 = default 2m)")
		flood       = flag.Int("flood", 0, "before pinging, push this many spoofed SYN-flood packets through the tunnel — a self-inflicted DDoS that exercises the enclave's ConnTrack/FlowRateLimit pipeline (pair with endbox-server -usecase ddos)")
		resumePath  = flag.String("resume-state", "", "resume-state file: written after connecting; when present and valid, a fast resume (one round trip, no attestation) replaces the full handshake")
		lkgPath     = flag.String("lkg-state", "", "last-known-good state file: persists the last configuration version that ran cleanly, so a restarted client can self-revert to it if a freshly applied configuration trips quarantine")
	)
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	dialOpts := []udptransport.DialOption{
		udptransport.LinkRetransmit(udptransport.RetransmitConfig{
			Timeout:    *arqTimeout,
			MaxRetries: *arqRetries,
		}),
	}
	if *lossDrop > 0 || *lossDup > 0 || *lossReorder > 0 {
		faults := netsim.NewFaults(*lossSeed, *lossDrop, *lossDup, *lossReorder)
		dialOpts = append(dialOpts, udptransport.LinkSendFilter(faults.Filter))
	}
	link, err := udptransport.Dial(ctx, *server, dialOpts...)
	if err != nil {
		return err
	}
	defer link.Close()

	// A prior run's resume state lets this one skip platform registration,
	// attestation and the full handshake: one MsgResume round trip instead
	// (the state file holds the sealed session secret, the resumption
	// ticket and the sealed enclave identity — all useless off this CPU).
	var state *resumeFile
	if *resumePath != "" {
		st, err := loadResumeState(*resumePath)
		switch {
		case err == nil && st.ClientID == *id:
			state = st
		case err == nil:
			log.Printf("resume state %s belongs to %q, not %q; ignoring", *resumePath, st.ClientID, *id)
		case !errors.Is(err, os.ErrNotExist):
			log.Printf("resume state %s unusable (%v); falling back to full attestation", *resumePath, err)
		}
	}

	// A persisted last-known-good version gives the fresh process a local
	// revert point: if the configuration it applies next trips quarantine,
	// it can fall back without waiting for the server.
	var lkg uint64
	if *lkgPath != "" {
		if lkg = loadLKG(*lkgPath); lkg != 0 {
			fmt.Printf("last-known-good v%d loaded from %s\n", lkg, *lkgPath)
		}
	}

	// RTT bookkeeping for the tunnelled pings. Replies arrive on the
	// link's dispatch goroutine, so the state is mutex-guarded.
	var (
		mu       sync.Mutex
		sentAt   = make(map[uint16]time.Time)
		received = 0
	)
	done := make(chan struct{})
	deliver := func(ip []byte) {
		var p packet.IPv4
		if p.Parse(ip) != nil || p.Protocol != packet.ProtoICMP {
			return
		}
		icmp, err := packet.ParseICMP(p.Payload)
		if err != nil || icmp.Type != packet.ICMPEchoReply {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if t0, ok := sentAt[icmp.Seq]; ok {
			fmt.Printf("ping seq=%d rtt=%v (through the enclave, both directions)\n",
				icmp.Seq, time.Since(t0).Round(10*time.Microsecond))
			delete(sentAt, icmp.Seq)
			received++
			if received == *pings {
				close(done)
			}
		}
	}

	cli, caPub, err := connect(ctx, link, state, *resumePath, *pipeline, core.ClientOptions{
		ID:            *id,
		BuildVersion:  *build,
		CPU:           sgx.NewCPU("machine-" + *id),
		Mode:          sgx.ModeHardware,
		BatchEcalls:   true,
		FlowCapacity:  *flowCap,
		FlowTTL:       *flowTTL,
		FailurePolicy: click.FailurePolicy{Contain: true},
		LKGVersion:    lkg,
		OnElementFault: func(f click.ElementFault) {
			if f.Quarantined {
				log.Printf("element %s quarantined after repeated panics; self-reverting to last-known-good", f.Element)
			} else {
				log.Printf("element %s fault contained: %v", f.Element, f.Err)
			}
		},
		OnUpdateFailed: func(version uint64, err error) {
			log.Printf("configuration v%d rejected: %v (server notified)", version, err)
		},
		Deliver: deliver,
	})
	if err != nil {
		return err
	}
	defer cli.Close()

	if *resumePath != "" {
		if err := saveResumeState(*resumePath, *id, caPub, cli); err != nil {
			log.Printf("resume state not saved: %v", err)
		} else {
			fmt.Printf("resume state saved to %s\n", *resumePath)
		}
	}

	// Optional self-inflicted DDoS: spoofed SYNs from all over 100.64/10
	// pushed through the tunnel. The client-side middlebox pipeline sees
	// them before the wire does, so with a ddos pipeline most are dropped
	// or rate-limited inside the enclave — the flow-table counters printed
	// afterwards show the table staying bounded while it happens.
	if *flood > 0 {
		victim := packet.AddrFrom(10, 99, 0, 1)
		gen := netsim.NewSYNFlood(42, victim, 443)
		var floodDropped int
		for i := 0; i < *flood; i++ {
			if err := cli.SendPacket(gen.Next()); err != nil {
				if errors.Is(err, vpn.ErrDropped) {
					floodDropped++
					continue
				}
				return fmt.Errorf("flood packet %d: %w", i, err)
			}
		}
		fmt.Printf("flood: %d spoofed SYNs sent, %d dropped by the enclave pipeline\n", *flood, floodDropped)
		if fs, err := cli.FlowStats(); err == nil {
			fmt.Printf("flood: flow table %d/%d active, %d evicted, %d expired\n",
				fs.Active, fs.Capacity, fs.Evicted, fs.Expired)
		}
	}

	// Tunnelled pings to a host "in the managed network" (the demo server
	// echoes them).
	src := packet.AddrFrom(10, 8, 0, 2)
	dst := packet.AddrFrom(10, 0, 0, 1)
	lastVersion := cli.AppliedVersion()
	for seq := uint16(1); int(seq) <= *pings; seq++ {
		mu.Lock()
		sentAt[seq] = time.Now()
		mu.Unlock()
		ping := packet.NewICMPEcho(src, dst, packet.ICMPEchoRequest, 7, seq, []byte("endbox-demo"))
		if err := cli.SendPacket(ping); err != nil {
			log.Printf("ping seq=%d: %v", seq, err)
		}
		if err := cli.SendPing(); err != nil { // keepalive with config version
			log.Printf("keepalive: %v", err)
		}
		if v := cli.AppliedVersion(); v != lastVersion {
			fmt.Printf("configuration hot-swapped to v%d\n", v)
			lastVersion = v
			if *lkgPath != "" {
				saveLKG(*lkgPath, cli.LKGVersion())
			}
		}
		time.Sleep(*period)
	}

	select {
	case <-done:
	case <-time.After(3 * time.Second):
	}
	mu.Lock()
	got := received
	mu.Unlock()
	fmt.Printf("done: %d/%d pings answered, configuration v%d\n", got, *pings, cli.AppliedVersion())
	if *lkgPath != "" {
		saveLKG(*lkgPath, cli.LKGVersion())
	}
	if st := link.ARQStats(); st.TransfersSent > 0 {
		fmt.Printf("control-path ARQ: %d transfers sent, %d segments, %d retransmits (%d fast), %d duplicate segments absorbed\n",
			st.TransfersSent, st.SegmentsSent, st.Retransmits+st.FastRetransmit, st.FastRetransmit, st.DupSegments)
	}
	return nil
}
