package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"endbox/internal/attest"
	"endbox/internal/click"
	"endbox/internal/packet"
	"endbox/internal/sgx"
	"endbox/internal/tlstap"
	"endbox/internal/vpn"
	"endbox/internal/wire"
)

func newDeployment(t *testing.T, opts DeploymentOptions) *Deployment {
	t.Helper()
	d, err := NewDeployment(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return d
}

func addClient(t *testing.T, d *Deployment, id string, spec ClientSpec) *Client {
	t.Helper()
	if spec.Mode == 0 {
		spec.Mode = sgx.ModeSimulation
	}
	c, err := d.AddClient(context.Background(), id, spec)
	if err != nil {
		t.Fatalf("AddClient(%s): %v", id, err)
	}
	return c
}

func publish(t *testing.T, d *Deployment, r Rollout) {
	t.Helper()
	if _, err := d.Rollout(context.Background(), r); err != nil {
		t.Fatalf("Rollout(v%d): %v", r.Version, err)
	}
}

// nopConfig is the Click text of the stock NOP pipeline, for tests that
// build a standalone client from ClientOptions.
const nopConfig = "FromDevice -> ToDevice;"

func udpTo(t *testing.T, src, dst packet.Addr, payload string) []byte {
	t.Helper()
	return packet.NewUDP(src, dst, 40000, 80, []byte(payload))
}

func TestEndToEndTrafficBothModes(t *testing.T) {
	for _, mode := range []sgx.Mode{sgx.ModeSimulation, sgx.ModeHardware} {
		t.Run(mode.String(), func(t *testing.T) {
			var delivered, received [][]byte
			d := newDeployment(t, DeploymentOptions{
				Observer: ObserverFuncs{
					OnDelivered: func(_ string, ip []byte) {
						delivered = append(delivered, append([]byte(nil), ip...))
					},
					OnReceived: func(_ string, ip []byte) {
						received = append(received, append([]byte(nil), ip...))
					},
				},
				EchoNetwork: true,
			})
			c := addClient(t, d, "c1", ClientSpec{
				Mode:     mode,
				Pipeline: click.StockPipeline(click.UseCaseNOP),
			})

			out := udpTo(t, packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), "hello network")
			if err := c.SendPacket(out); err != nil {
				t.Fatalf("SendPacket: %v", err)
			}
			if len(delivered) != 1 {
				t.Fatalf("delivered %d packets", len(delivered))
			}
			if string(delivered[0]) != string(out) {
				t.Error("packet mutated in transit")
			}
			// Echo came back through ingress Click and decryption.
			if len(received) != 1 {
				t.Fatalf("client received %d packets", len(received))
			}
			echo, err := packet.ParseIPv4(received[0])
			if err != nil {
				t.Fatal(err)
			}
			if echo.Src != packet.AddrFrom(192, 0, 2, 1) {
				t.Errorf("echo src = %v", echo.Src)
			}
		})
	}
}

func TestEnclaveFirewallDropsEgress(t *testing.T) {
	d := newDeployment(t, DeploymentOptions{})
	c := addClient(t, d, "c1", ClientSpec{
		Pipeline: click.Raw("FromDevice -> IPFilter(drop dst host 203.0.113.9, allow all) -> ToDevice;"),
	})
	blocked := udpTo(t, packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(203, 0, 113, 9), "exfil")
	if err := c.SendPacket(blocked); !errors.Is(err, vpn.ErrDropped) {
		t.Errorf("blocked packet: err = %v, want ErrDropped", err)
	}
	ok := udpTo(t, packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), "fine")
	if err := c.SendPacket(ok); err != nil {
		t.Errorf("allowed packet: %v", err)
	}
}

func TestIDPSEnforcementWithAlerts(t *testing.T) {
	var alerts []click.Alert
	d := newDeployment(t, DeploymentOptions{
		Observer: ObserverFuncs{
			OnAlert: func(_ string, a click.Alert) { alerts = append(alerts, a) },
		},
	})
	c := addClient(t, d, "c1", ClientSpec{
		Pipeline: click.Raw("FromDevice -> IDSMatcher(RULESET strict, MODE enforce) -> ToDevice;"),
		ExtraRuleSets: map[string]string{
			"strict": `drop tcp any any -> any any (msg:"worm"; content:"X-Worm"; sid:7;)`,
		},
	})
	evil := packet.NewTCP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1),
		40000, 80, 1, 0, packet.TCPAck, []byte("X-Worm payload"))
	if err := c.SendPacket(evil); !errors.Is(err, vpn.ErrDropped) {
		t.Errorf("worm not dropped: %v", err)
	}
	if len(alerts) != 1 || alerts[0].SID != 7 {
		t.Errorf("alerts = %+v", alerts)
	}
}

func TestConfigUpdateFullLifecycle(t *testing.T) {
	// Paper Fig. 5, all nine steps, driven end to end.
	now := time.Now()
	d := newDeployment(t, DeploymentOptions{
		Clock:          func() time.Time { return now },
		EncryptConfigs: true, // enterprise scenario
	})
	c := addClient(t, d, "c1", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
	dst := packet.AddrFrom(203, 0, 113, 9)
	pkt := udpTo(t, packet.AddrFrom(10, 8, 0, 2), dst, "probe")

	// Version 0: traffic to the target flows.
	if err := c.SendPacket(pkt); err != nil {
		t.Fatalf("initial traffic: %v", err)
	}

	// Steps 1-4: admin publishes version 1 blocking the target.
	publish(t, d, Rollout{
		Version:      1,
		GraceSeconds: 60,
		Pipeline:     click.Raw("FromDevice -> IPFilter(drop dst host 203.0.113.9, allow all) -> ToDevice;"),
	})

	// Steps 5-9 ran inline from the ping: client fetched, decrypted inside
	// the enclave, hot-swapped, and reported the new version.
	if got := c.AppliedVersion(); got != 1 {
		t.Fatalf("AppliedVersion = %d, want 1 (update error: %v)", got, c.LastUpdateError())
	}
	if v, _ := d.Server.VPN().ReportedVersion("c1"); v != 1 {
		t.Errorf("server recorded version %d", v)
	}

	// The new middlebox behaviour is active.
	if err := c.SendPacket(pkt); !errors.Is(err, vpn.ErrDropped) {
		t.Errorf("updated firewall not enforced: %v", err)
	}
}

func TestStaleClientBlockedAfterGrace(t *testing.T) {
	now := time.Now()
	d := newDeployment(t, DeploymentOptions{Clock: func() time.Time { return now }})
	c := addClient(t, d, "c1", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})

	// Break the client's fetch path so it cannot update (a malicious or
	// partitioned client holding on to the old configuration).
	c.opts.FetchConfig = func(uint64) ([]byte, error) {
		return nil, errors.New("client refuses to fetch")
	}
	publish(t, d, Rollout{
		Version:      1,
		GraceSeconds: 30,
		Pipeline:     click.StockPipeline(click.UseCaseNOP),
	})

	pkt := udpTo(t, packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), "x")
	// Within grace: old version still accepted.
	if err := c.SendPacket(pkt); err != nil {
		t.Errorf("grace-period traffic blocked: %v", err)
	}
	// After grace: blocked.
	now = now.Add(31 * time.Second)
	if err := c.SendPacket(pkt); !errors.Is(err, vpn.ErrStaleConfig) {
		t.Errorf("stale client not blocked: %v", err)
	}
}

func TestConfigRollbackRejectedInEnclave(t *testing.T) {
	d := newDeployment(t, DeploymentOptions{})
	c := addClient(t, d, "c1", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})

	for v := uint64(1); v <= 2; v++ {
		publish(t, d, Rollout{
			Version:      v,
			GraceSeconds: 60,
			Pipeline:     click.StockPipeline(click.UseCaseNOP),
		})
	}
	if c.AppliedVersion() != 2 {
		t.Fatalf("applied = %d", c.AppliedVersion())
	}
	// Replay the version-1 blob directly (host-controlled fetch): the
	// enclave's monotonicity check rejects it.
	blob, err := d.Server.Configs().Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyUpdateBlob(blob); !errors.Is(err, ErrStaleUpdate) {
		t.Errorf("rollback accepted: err = %v", err)
	}
	if c.AppliedVersion() != 2 {
		t.Error("applied version regressed")
	}
}

func TestSealedIdentitySkipsReattestation(t *testing.T) {
	d := newDeployment(t, DeploymentOptions{})
	c1 := addClient(t, d, "c1", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
	sealed := c1.SealedIdentity()
	if len(sealed) == 0 {
		t.Fatal("no sealed identity")
	}
	c1.Close()
	d.Server.VPN().Disconnect("c1")

	// Restart on the same machine: restore the identity without QE or
	// enrolment (paper §III-C: attested once).
	c2, err := NewClient(ClientOptions{
		ID:             "c1",
		CPU:            c1.opts.CPU,
		Mode:           sgx.ModeSimulation,
		CAPub:          d.CA.PublicKey(),
		SealedIdentity: sealed,
		ClickConfig:    nopConfig,
		RuleSets:       CommunityRuleSets(),
		Send:           func(frame []byte) error { return d.Server.VPN().HandleFrame("c1", frame) },
	})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	defer c2.Close()
	if err := c2.Connect(context.Background(), d.Server.VPN().Accept); err != nil {
		t.Fatalf("reconnect with sealed identity: %v", err)
	}
	if err := c2.SendPacket(udpTo(t, packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), "x")); err != nil {
		t.Errorf("traffic after restore: %v", err)
	}

	// A different machine cannot unseal the identity.
	otherCPU := sgx.NewCPU("attacker-machine")
	if _, err := NewClient(ClientOptions{
		ID:             "thief",
		CPU:            otherCPU,
		Mode:           sgx.ModeSimulation,
		CAPub:          d.CA.PublicKey(),
		SealedIdentity: sealed,
		ClickConfig:    nopConfig,
		Send:           func([]byte) error { return nil },
	}); !errors.Is(err, sgx.ErrSealCorrupt) {
		t.Errorf("cross-machine unseal: err = %v", err)
	}
}

func TestUnapprovedEnclaveDenied(t *testing.T) {
	d := newDeployment(t, DeploymentOptions{})
	// Revoke the client measurement before enrolment: the CA refuses even
	// a genuine platform running the wrong (or withdrawn) build.
	d.CA.RevokeMeasurement(ClientImage(d.CA.PublicKey()).Measure())
	cpu := sgx.NewCPU("denied")
	qe, err := attest.NewQuotingEnclave(cpu, "platform-denied")
	if err != nil {
		t.Fatal(err)
	}
	d.IAS.RegisterPlatform(qe)
	_, err = NewClient(ClientOptions{
		ID:          "denied",
		CPU:         cpu,
		Mode:        sgx.ModeSimulation,
		CAPub:       d.CA.PublicKey(),
		QE:          qe,
		Enroll:      d.CA.Enroll,
		ClickConfig: nopConfig,
		Send:        func([]byte) error { return nil },
	})
	if err == nil {
		t.Fatal("unapproved measurement enrolled")
	}
}

func TestTLSInspectionEndToEnd(t *testing.T) {
	d := newDeployment(t, DeploymentOptions{})
	c := addClient(t, d, "c1", ClientSpec{
		Pipeline: click.Raw("FromDevice -> TLSDecrypt(PORT 443) -> IDSMatcher(RULESET strict, MODE enforce) -> ToDevice;"),
		ExtraRuleSets: map[string]string{
			"strict": `drop tcp any any -> any any (msg:"hidden worm"; content:"X-Worm"; sid:9;)`,
		},
	})
	flow := packet.Flow{
		Src: packet.AddrFrom(10, 8, 0, 2), SrcPort: 40000,
		Dst: packet.AddrFrom(93, 184, 216, 34), DstPort: 443,
		Protocol: packet.ProtoTCP,
	}
	// Modified TLS library forwards the session key into the enclave via
	// the management interface (paper §III-D).
	lib := tlstap.NewClientLibrary(func(f packet.Flow, k tlstap.SessionKey) {
		if err := c.ForwardTLSKey(f, k); err != nil {
			t.Errorf("ForwardTLSKey: %v", err)
		}
	})
	if _, err := lib.Handshake(flow); err != nil {
		t.Fatal(err)
	}

	send := func(payload []byte) error {
		rec, err := lib.Encrypt(flow, payload)
		if err != nil {
			t.Fatal(err)
		}
		raw := packet.NewTCP(flow.Src, flow.Dst, flow.SrcPort, flow.DstPort, 1, 0, packet.TCPAck, rec)
		return c.SendPacket(raw)
	}
	if err := send([]byte("X-Worm exfiltration attempt")); !errors.Is(err, vpn.ErrDropped) {
		t.Errorf("encrypted worm not dropped: %v", err)
	}
	if err := send([]byte("GET / HTTP/1.1")); err != nil {
		t.Errorf("clean TLS traffic dropped: %v", err)
	}
}

func TestClientToClientFlagBypass(t *testing.T) {
	// Client B's firewall would drop A's probe packets if processed; with
	// the 0xeb flag set by A and honoured by B, B skips re-processing and
	// delivers (paper §IV-A).
	run := func(flagged bool) (deliveredAtB bool) {
		got := false
		d, err := NewDeployment(DeploymentOptions{
			RouteBetweenClients: true,
			Observer: ObserverFuncs{
				OnReceived: func(id string, _ []byte) {
					if id == "b" {
						got = true
					}
				},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		a, err := d.AddClient(context.Background(), "a", ClientSpec{
			Mode:               sgx.ModeSimulation,
			Pipeline:           click.StockPipeline(click.UseCaseNOP),
			FlagClientToClient: flagged,
		})
		if err != nil {
			t.Fatal(err)
		}
		_, err = d.AddClient(context.Background(), "b", ClientSpec{
			Mode:               sgx.ModeSimulation,
			Pipeline:           click.Raw("FromDevice -> IPFilter(drop src net 10.8.0.0/16 && proto udp, allow all) -> ToDevice;"),
			FlagClientToClient: flagged,
		})
		if err != nil {
			t.Fatal(err)
		}
		bAddr, ok := d.ClientAddr("b")
		if !ok {
			t.Fatal("no address for b")
		}
		aAddr, _ := d.ClientAddr("a")
		_ = a.SendPacket(packet.NewUDP(aAddr, bAddr, 5000, 6000, []byte("c2c probe")))
		return got
	}

	if !run(true) {
		t.Error("flagged client-to-client packet was not delivered (bypass broken)")
	}
	if run(false) {
		t.Error("unflagged packet bypassed B's middlebox")
	}
}

func TestExternalCannotForgeProcessedFlag(t *testing.T) {
	// External traffic arriving with TOS=0xeb must be scrubbed by the
	// server, so B's middlebox still inspects it (paper §IV-A).
	processed := 0
	d := newDeployment(t, DeploymentOptions{
		EchoNetwork: true,
		Observer: ObserverFuncs{
			OnReceived: func(string, []byte) { processed++ },
		},
	})
	c := addClient(t, d, "b", ClientSpec{
		Pipeline:           click.Raw("FromDevice -> cnt :: Counter -> ToDevice;"),
		FlagClientToClient: true,
	})
	// Craft external packet with the flag set; EchoNetwork sends it from
	// the "network" side (fromClient=false → scrubbed).
	evil := packet.IPv4{
		TOS: packet.ProcessedTOS, TTL: 64, Protocol: packet.ProtoUDP,
		Src: packet.AddrFrom(10, 8, 0, 2), Dst: packet.AddrFrom(198, 51, 100, 1),
		Payload: (&packet.UDP{SrcPort: 1, DstPort: 2, Payload: []byte("x")}).Marshal(),
	}
	if err := c.SendPacket(evil.Marshal()); err != nil {
		t.Fatal(err)
	}
	if processed != 1 {
		t.Fatalf("echo not delivered")
	}
}

func TestEcallBatchingTransitionCounts(t *testing.T) {
	d := newDeployment(t, DeploymentOptions{})
	batched := addClient(t, d, "fast", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
	naive := addClient(t, d, "slow", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP), NaiveEcalls: true})

	pkt := udpTo(t, packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), "x")
	const n = 10

	before := batched.EnclaveStats().Transitions
	for i := 0; i < n; i++ {
		if err := batched.SendPacket(pkt); err != nil {
			t.Fatal(err)
		}
	}
	batchedPer := (batched.EnclaveStats().Transitions - before) / n

	before = naive.EnclaveStats().Transitions
	for i := 0; i < n; i++ {
		if err := naive.SendPacket(pkt); err != nil {
			t.Fatal(err)
		}
	}
	naivePer := (naive.EnclaveStats().Transitions - before) / n

	if batchedPer != 2 {
		t.Errorf("batched transitions per packet = %d, want 2 (one ecall)", batchedPer)
	}
	if naivePer != 6 {
		t.Errorf("naive transitions per packet = %d, want 6 (three ecalls)", naivePer)
	}
}

func TestEnclaveDoSOnlyHurtsSelf(t *testing.T) {
	d := newDeployment(t, DeploymentOptions{})
	victim := addClient(t, d, "victim", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
	other := addClient(t, d, "other", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})

	victim.Close() // host refuses to run the enclave
	pkt := udpTo(t, packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), "x")
	if err := victim.SendPacket(pkt); !errors.Is(err, sgx.ErrDestroyed) {
		t.Errorf("destroyed enclave still sends: %v", err)
	}
	if err := other.SendPacket(pkt); err != nil {
		t.Errorf("unrelated client affected: %v", err)
	}
}

func TestMiddleboxFailureIsolatedToClient(t *testing.T) {
	d := newDeployment(t, DeploymentOptions{})
	broken := addClient(t, d, "broken", ClientSpec{
		Pipeline: click.Raw("FromDevice -> Discard;"), // middlebox black-holes everything
	})
	healthy := addClient(t, d, "healthy", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})

	pkt := udpTo(t, packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), "x")
	if err := broken.SendPacket(pkt); !errors.Is(err, vpn.ErrDropped) {
		t.Errorf("broken middlebox: %v", err)
	}
	if err := healthy.SendPacket(pkt); err != nil {
		t.Errorf("healthy client affected by peer failure: %v", err)
	}
}

func TestISPIntegrityOnlyDeployment(t *testing.T) {
	d := newDeployment(t, DeploymentOptions{Mode: wire.ModeIntegrityOnly})
	c := addClient(t, d, "isp-sub", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseDDoS)})
	pkt := udpTo(t, packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), "cleartext ok")
	if err := c.SendPacket(pkt); err != nil {
		t.Fatalf("ISP-mode traffic failed: %v", err)
	}
}

func TestUpdateTimingBreakdown(t *testing.T) {
	d := newDeployment(t, DeploymentOptions{EncryptConfigs: true})
	c := addClient(t, d, "c1", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
	publish(t, d, Rollout{
		Version:      1,
		GraceSeconds: 60,
		Pipeline:     click.StockPipeline(click.UseCaseFW),
	})
	blob, err := d.Server.Configs().Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	// Applying the same version again fails, so publish v2 for timing.
	publish(t, d, Rollout{
		Version:      2,
		GraceSeconds: 60,
		Pipeline:     click.StockPipeline(click.UseCaseNOP),
	})
	_ = blob
	timing, err := c.ApplyUpdateBlob(mustFetch(t, d, 2))
	if !errors.Is(err, ErrStaleUpdate) {
		// v2 was already applied via the announce; expected stale.
		if err != nil {
			t.Fatalf("ApplyUpdateBlob: %v", err)
		}
		if timing.Hotswap <= 0 {
			t.Error("hotswap duration not measured")
		}
	}
}

func mustFetch(t *testing.T, d *Deployment, v uint64) []byte {
	t.Helper()
	blob, err := d.Server.Configs().Fetch(v)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}
