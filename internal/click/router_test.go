package click

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"endbox/internal/idps"
	"endbox/internal/packet"
	"endbox/internal/tlstap"
)

// testContext provides rule sets and captures alerts.
func testContext(t *testing.T) (*Context, *[]Alert) {
	t.Helper()
	var alerts []Alert
	ctx := &Context{
		RuleSet: func(name string) (string, error) {
			switch name {
			case "community":
				return idps.GenerateRuleSet(idps.CommunityRuleCount, 2018), nil
			case "strict":
				return `drop tcp any any -> any any (msg:"worm"; content:"X-Worm"; sid:1;)`, nil
			default:
				return "", fmt.Errorf("unknown rule set %q", name)
			}
		},
		Alert: func(a Alert) { alerts = append(alerts, a) },
	}
	return ctx, &alerts
}

func mustInstance(t *testing.T, cfg string, ctx *Context) *Instance {
	t.Helper()
	inst, err := NewInstance(cfg, nil, ctx)
	if err != nil {
		t.Fatalf("NewInstance(%q): %v", cfg, err)
	}
	return inst
}

// stockConfig is the Click text of one of the five stock pipelines.
func stockConfig(tb testing.TB, u UseCase) string {
	tb.Helper()
	cfg, err := StockPipeline(u).Config()
	if err != nil {
		tb.Fatalf("StockPipeline(%v): %v", u, err)
	}
	return cfg
}

func testUDP(t *testing.T, payload string) *packet.IPv4 {
	t.Helper()
	raw := packet.NewUDP(packet.MustParseAddr("10.8.0.2"), packet.MustParseAddr("10.8.0.1"),
		40000, 5201, []byte(payload))
	ip, err := packet.ParseIPv4(raw)
	if err != nil {
		t.Fatal(err)
	}
	return ip
}

func testTCPPort(t *testing.T, dstPort uint16, payload []byte) *packet.IPv4 {
	t.Helper()
	raw := packet.NewTCP(packet.MustParseAddr("10.8.0.2"), packet.MustParseAddr("10.8.0.1"),
		40000, dstPort, 1, 0, packet.TCPAck, payload)
	ip, err := packet.ParseIPv4(raw)
	if err != nil {
		t.Fatal(err)
	}
	return ip
}

func TestNOPForwards(t *testing.T) {
	ctx, _ := testContext(t)
	inst := mustInstance(t, stockConfig(t, UseCaseNOP), ctx)
	res := inst.Process(testUDP(t, "hello"))
	if !res.Accepted {
		t.Errorf("NOP rejected packet: dropped by %s", res.DroppedBy)
	}
}

func TestDiscardDrops(t *testing.T) {
	ctx, _ := testContext(t)
	inst := mustInstance(t, "FromDevice -> d :: Discard;", ctx)
	res := inst.Process(testUDP(t, "x"))
	if res.Accepted {
		t.Error("Discard accepted packet")
	}
	if res.DroppedBy != "d" {
		t.Errorf("DroppedBy = %q, want d", res.DroppedBy)
	}
	el, _ := inst.Element("d")
	if el.(*Discard).Count() != 1 {
		t.Error("Discard count wrong")
	}
}

func TestCounterCounts(t *testing.T) {
	ctx, _ := testContext(t)
	inst := mustInstance(t, "FromDevice -> c :: Counter -> ToDevice;", ctx)
	ip := testUDP(t, "count me")
	for i := 0; i < 5; i++ {
		inst.Process(ip)
	}
	el, _ := inst.Element("c")
	cnt := el.(*Counter)
	if cnt.Packets() != 5 {
		t.Errorf("Packets = %d, want 5", cnt.Packets())
	}
	if cnt.Bytes() != 5*uint64(ip.Len()) {
		t.Errorf("Bytes = %d, want %d", cnt.Bytes(), 5*ip.Len())
	}
}

func TestRoundRobinSwitchBalances(t *testing.T) {
	ctx, _ := testContext(t)
	inst := mustInstance(t, stockConfig(t, UseCaseLB), ctx)
	backends := make(map[int]int)
	for i := 0; i < 12; i++ {
		res := inst.Process(testUDP(t, "lb"))
		if !res.Accepted {
			t.Fatalf("LB dropped packet %d", i)
		}
		backends[res.Packet.Backend]++
	}
	if len(backends) != 4 {
		t.Fatalf("backends used = %v, want 4", backends)
	}
	for b, n := range backends {
		if n != 3 {
			t.Errorf("backend %d received %d packets, want 3", b, n)
		}
	}
}

func TestIPFilterUseCasePassesCleanTraffic(t *testing.T) {
	ctx, _ := testContext(t)
	inst := mustInstance(t, stockConfig(t, UseCaseFW), ctx)
	for i := 0; i < 20; i++ {
		if res := inst.Process(testUDP(t, "clean")); !res.Accepted {
			t.Fatalf("FW dropped clean packet: %s", res.DroppedBy)
		}
	}
	el, _ := inst.Element("fw")
	if el.(*IPFilter).Drops() != 0 {
		t.Error("FW should not drop evaluation traffic")
	}
}

func TestIPFilterDropRule(t *testing.T) {
	ctx, _ := testContext(t)
	inst := mustInstance(t,
		"FromDevice -> fw :: IPFilter(drop src net 10.8.0.0/16 && proto udp, allow all) -> ToDevice;", ctx)
	if res := inst.Process(testUDP(t, "x")); res.Accepted {
		t.Error("matching packet not dropped")
	}
	if res := inst.Process(testTCPPort(t, 80, []byte("y"))); !res.Accepted {
		t.Error("non-matching packet dropped")
	}
}

func TestIPFilterDefaultDeny(t *testing.T) {
	ctx, _ := testContext(t)
	inst := mustInstance(t,
		"FromDevice -> IPFilter(allow proto tcp) -> ToDevice;", ctx)
	if res := inst.Process(testUDP(t, "u")); res.Accepted {
		t.Error("unmatched packet should be dropped (vanilla IPFilter semantics)")
	}
	if res := inst.Process(testTCPPort(t, 80, nil)); !res.Accepted {
		t.Error("allowed packet dropped")
	}
}

func TestIPClassifierRouting(t *testing.T) {
	ctx, _ := testContext(t)
	inst := mustInstance(t, `
FromDevice -> cl :: IPClassifier(tcp, udp, -);
cl[0] -> tcpc :: Counter -> td :: ToDevice;
cl[1] -> udpc :: Counter -> td;
cl[2] -> restc :: Counter -> td;
`, ctx)
	inst.Process(testTCPPort(t, 80, nil))
	inst.Process(testUDP(t, "u"))
	icmpRaw := packet.NewICMPEcho(packet.MustParseAddr("1.1.1.1"), packet.MustParseAddr("2.2.2.2"),
		packet.ICMPEchoRequest, 1, 1, nil)
	icmpIP, err := packet.ParseIPv4(icmpRaw)
	if err != nil {
		t.Fatal(err)
	}
	inst.Process(icmpIP)

	counts := map[string]uint64{}
	for _, name := range []string{"tcpc", "udpc", "restc"} {
		el, _ := inst.Element(name)
		counts[name] = el.(*Counter).Packets()
	}
	if counts["tcpc"] != 1 || counts["udpc"] != 1 || counts["restc"] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestSetTOSFlagging(t *testing.T) {
	ctx, _ := testContext(t)
	inst := mustInstance(t, "FromDevice -> SetTOS(eb) -> ToDevice;", ctx)
	res := inst.Process(testUDP(t, "flag me"))
	if !res.Accepted {
		t.Fatal("packet dropped")
	}
	if res.Packet.IP.TOS != packet.ProcessedTOS {
		t.Errorf("TOS = %#x, want %#x", res.Packet.IP.TOS, packet.ProcessedTOS)
	}
}

func TestIDSMatcherAlertAndEnforce(t *testing.T) {
	ctx, alerts := testContext(t)
	// Alert mode: forwards and raises alerts.
	alertInst := mustInstance(t,
		"FromDevice -> IDSMatcher(RULESET strict) -> ToDevice;", ctx)
	res := alertInst.Process(testTCPPort(t, 80, []byte("X-Worm payload")))
	if !res.Accepted {
		t.Error("alert mode dropped the packet")
	}
	if len(*alerts) != 1 || (*alerts)[0].SID != 1 {
		t.Errorf("alerts = %+v", *alerts)
	}

	// Enforce mode: drop rules drop.
	*alerts = nil
	enfInst := mustInstance(t,
		"FromDevice -> IDSMatcher(RULESET strict, MODE enforce) -> ToDevice;", ctx)
	res = enfInst.Process(testTCPPort(t, 80, []byte("X-Worm payload")))
	if res.Accepted {
		t.Error("enforce mode forwarded a drop-rule match")
	}
	if res = enfInst.Process(testTCPPort(t, 80, []byte("benign"))); !res.Accepted {
		t.Error("enforce mode dropped clean traffic")
	}
}

func TestIDPSUseCaseCleanTraffic(t *testing.T) {
	ctx, alerts := testContext(t)
	inst := mustInstance(t, stockConfig(t, UseCaseIDPS), ctx)
	payload := strings.Repeat("GET /index.html HTTP/1.1\r\n", 50)
	for i := 0; i < 10; i++ {
		if res := inst.Process(testTCPPort(t, 80, []byte(payload))); !res.Accepted {
			t.Fatal("IDPS dropped clean traffic")
		}
	}
	if len(*alerts) != 0 {
		t.Errorf("clean traffic alerted: %+v", *alerts)
	}
}

func TestTrustedSplitterShaping(t *testing.T) {
	now := time.Unix(0, 0)
	var trustedCalls int
	ctx, _ := testContext(t)
	ctx.TrustedTime = func() time.Time { trustedCalls++; return now }

	// 8 kbit/s = 1000 B/s; burst 1500 B; sample every 4 packets.
	inst := mustInstance(t, `
FromDevice -> ts :: TrustedSplitter(RATE 8k, BURST 1500, SAMPLE 4) -> ToDevice;
`, ctx)
	ip := testUDP(t, strings.Repeat("x", 472)) // 500-byte packets

	// Burst allows 3 packets (1500 B), the rest must drop while time is
	// frozen.
	accepted, dropped := 0, 0
	for i := 0; i < 10; i++ {
		if inst.Process(ip).Accepted {
			accepted++
		} else {
			dropped++
		}
	}
	if accepted != 3 || dropped != 7 {
		t.Errorf("accepted=%d dropped=%d, want 3/7", accepted, dropped)
	}

	// Advance time by 1s on the next probe: 1000 more bytes = 2 packets.
	now = now.Add(time.Second)
	accepted = 0
	for i := 0; i < 8; i++ {
		if inst.Process(ip).Accepted {
			accepted++
		}
	}
	if accepted != 2 {
		t.Errorf("after refill accepted = %d, want 2", accepted)
	}

	// Time sampling: 18 packets with SAMPLE 4 → ~5 probes, not 18.
	if trustedCalls > 6 {
		t.Errorf("trusted time called %d times, sampling broken", trustedCalls)
	}
}

func TestUntrustedSplitterProbesEveryPacket(t *testing.T) {
	var sysCalls int
	ctx, _ := testContext(t)
	ctx.SystemTime = func() time.Time { sysCalls++; return time.Unix(int64(sysCalls), 0) }
	inst := mustInstance(t, `
FromDevice -> UntrustedSplitter(RATE 1G, BURST 1000000) -> ToDevice;
`, ctx)
	for i := 0; i < 10; i++ {
		inst.Process(testUDP(t, "x"))
	}
	if sysCalls != 10 {
		t.Errorf("system time probed %d times, want 10 (per packet)", sysCalls)
	}
}

func TestSplitterExcessPort(t *testing.T) {
	ctx, _ := testContext(t)
	ctx.TrustedTime = func() time.Time { return time.Unix(0, 0) }
	inst := mustInstance(t, `
FromDevice -> ts :: TrustedSplitter(RATE 8k, BURST 600, SAMPLE 1);
ts[0] -> ToDevice;
ts[1] -> excess :: Counter -> Discard;
`, ctx)
	ip := testUDP(t, strings.Repeat("x", 472))
	for i := 0; i < 5; i++ {
		inst.Process(ip)
	}
	el, _ := inst.Element("excess")
	if got := el.(*Counter).Packets(); got != 4 {
		t.Errorf("excess packets = %d, want 4", got)
	}
}

func TestTLSDecryptAnnotatesPlaintext(t *testing.T) {
	ctx, alerts := testContext(t)
	ctx.Keys = tlstap.NewKeyTable()
	inst := mustInstance(t, `
FromDevice -> TLSDecrypt(PORT 443) -> IDSMatcher(RULESET strict, MODE enforce) -> ToDevice;
`, ctx)

	flow := packet.Flow{
		Src: packet.MustParseAddr("10.8.0.2"), SrcPort: 40000,
		Dst: packet.MustParseAddr("10.8.0.1"), DstPort: 443,
		Protocol: packet.ProtoTCP,
	}
	lib := tlstap.NewClientLibrary(func(f packet.Flow, k tlstap.SessionKey) { ctx.Keys.Put(f, k) })
	if _, err := lib.Handshake(flow); err != nil {
		t.Fatal(err)
	}

	// Malicious content hidden inside TLS: with the escrowed key the IDPS
	// sees the plaintext and drops.
	rec, err := lib.Encrypt(flow, []byte("X-Worm inside TLS"))
	if err != nil {
		t.Fatal(err)
	}
	res := inst.Process(testTCPPort(t, 443, rec))
	if res.Accepted {
		t.Error("encrypted malicious payload not dropped")
	}

	// Clean TLS traffic passes.
	rec, err = lib.Encrypt(flow, []byte("GET / HTTP/1.1"))
	if err != nil {
		t.Fatal(err)
	}
	if res := inst.Process(testTCPPort(t, 443, rec)); !res.Accepted {
		t.Error("clean TLS payload dropped")
	}

	// Traffic without an escrowed key passes through uninspected (the
	// ciphertext does not contain the pattern).
	stock := tlstap.NewClientLibrary(nil)
	flow2 := flow
	flow2.SrcPort = 40001
	if _, err := stock.Handshake(flow2); err != nil {
		t.Fatal(err)
	}
	rec, err = stock.Encrypt(flow2, []byte("X-Worm inside TLS"))
	if err != nil {
		t.Fatal(err)
	}
	if res := inst.Process(testTCPPort(t, 443, rec)); !res.Accepted {
		t.Error("unescrowed TLS flow should pass through (undecryptable)")
	}
	_ = alerts
}

func TestHotSwapPreservesState(t *testing.T) {
	ctx, _ := testContext(t)
	inst := mustInstance(t, "FromDevice -> c :: Counter -> ToDevice;", ctx)
	for i := 0; i < 7; i++ {
		inst.Process(testUDP(t, "x"))
	}
	dur, err := inst.Swap("FromDevice -> c :: Counter -> IPFilter(allow all) -> ToDevice;")
	if err != nil {
		t.Fatalf("Swap: %v", err)
	}
	if dur <= 0 {
		t.Error("swap duration not measured")
	}
	el, _ := inst.Element("c")
	if got := el.(*Counter).Packets(); got != 7 {
		t.Errorf("counter state lost on swap: %d, want 7", got)
	}
	// New pipeline processes traffic.
	if res := inst.Process(testUDP(t, "y")); !res.Accepted {
		t.Error("post-swap pipeline dropped packet")
	}
	if got := el.(*Counter).Packets(); got != 7 {
		// el points at the old element; fetch the live one.
		live, _ := inst.Element("c")
		if live.(*Counter).Packets() != 8 {
			t.Error("live counter did not advance")
		}
	}
}

func TestHotSwapBadConfigKeepsOld(t *testing.T) {
	ctx, _ := testContext(t)
	inst := mustInstance(t, stockConfig(t, UseCaseNOP), ctx)
	if _, err := inst.Swap("FromDevice -> Nonexistent -> ToDevice;"); err == nil {
		t.Fatal("bad swap accepted")
	}
	if res := inst.Process(testUDP(t, "still works")); !res.Accepted {
		t.Error("old configuration broken after failed swap")
	}
	if inst.Config() != stockConfig(t, UseCaseNOP) {
		t.Error("Config() changed after failed swap")
	}
}

func TestBuildValidation(t *testing.T) {
	ctx, _ := testContext(t)
	cases := map[string]string{
		"unknown class":         "FromDevice -> Bogus -> ToDevice;",
		"no FromDevice":         "c :: Counter -> ToDevice;",
		"unconnected output":    "FromDevice -> c :: Counter; ToDevice;",
		"two FromDevice":        "FromDevice -> ToDevice; FromDevice -> Discard;",
		"double connection":     "f :: FromDevice; f -> ToDevice; f -> Discard;",
		"input port range":      "f :: FromDevice; f -> ToDevice; Counter -> f;",
		"fixed out port range":  "c :: Counter; FromDevice -> c; c[1] -> ToDevice; c[0] -> Discard;",
		"bad element config":    "FromDevice -> IPFilter() -> ToDevice;",
		"bad idsmatcher rules":  "FromDevice -> IDSMatcher(RULESET missing) -> ToDevice;",
		"tlsdecrypt needs keys": "FromDevice -> TLSDecrypt(PORT 443) -> ToDevice;",
	}
	for name, cfg := range cases {
		if _, err := NewInstance(cfg, nil, ctx); err == nil {
			t.Errorf("%s: config %q accepted", name, cfg)
		}
	}
}

func TestDeviceSetupHook(t *testing.T) {
	calls := 0
	ctx, _ := testContext(t)
	ctx.DeviceSetup = func() error { calls++; return nil }
	mustInstance(t, "FromDevice -> ToDevice;", ctx)
	if calls != 2 {
		t.Errorf("DeviceSetup called %d times, want 2 (FromDevice+ToDevice)", calls)
	}

	ctx.DeviceSetup = func() error { return errors.New("no permissions") }
	if _, err := NewInstance("FromDevice -> ToDevice;", nil, ctx); err == nil {
		t.Error("device setup failure not propagated")
	}
}

func TestTeeDuplicates(t *testing.T) {
	ctx, _ := testContext(t)
	inst := mustInstance(t, `
FromDevice -> tee :: Tee;
tee[0] -> main :: Counter -> ToDevice;
tee[1] -> tap :: Counter -> Discard;
`, ctx)
	res := inst.Process(testUDP(t, "dup"))
	if !res.Accepted {
		t.Fatalf("original path dropped: %s", res.DroppedBy)
	}
	mainC, _ := inst.Element("main")
	tapC, _ := inst.Element("tap")
	if mainC.(*Counter).Packets() != 1 || tapC.(*Counter).Packets() != 1 {
		t.Error("tee did not duplicate to both outputs")
	}
}

func TestCheckIPHeaderDropsExpiredTTL(t *testing.T) {
	ctx, _ := testContext(t)
	inst := mustInstance(t, "FromDevice -> CheckIPHeader -> ToDevice;", ctx)
	ip := testUDP(t, "x")
	ip.TTL = 0
	if res := inst.Process(ip); res.Accepted {
		t.Error("TTL 0 packet accepted")
	}
	ip.TTL = 64
	if res := inst.Process(ip); !res.Accepted {
		t.Error("valid packet dropped")
	}
}

func TestAllStandardConfigsRun(t *testing.T) {
	ctx, _ := testContext(t)
	rules := communityRuleSets()
	for _, uc := range AllUseCases {
		cfg, err := StockPipeline(uc).Compile(nil, rules)
		if err != nil {
			t.Fatalf("StockPipeline(%v).Compile: %v", uc, err)
		}
		inst := mustInstance(t, cfg, ctx)
		for i := 0; i < 5; i++ {
			if res := inst.Process(testUDP(t, strings.Repeat("p", 1000))); !res.Accepted {
				t.Errorf("%v dropped clean packet: %s", uc, res.DroppedBy)
				break
			}
		}
	}
	if !StockPipeline(UseCase(99)).Zero() {
		t.Error("unknown use case should return the zero pipeline")
	}
}

func BenchmarkUseCasePipelines1500(b *testing.B) {
	ctx := &Context{
		RuleSet: func(string) (string, error) {
			return idps.GenerateRuleSet(idps.CommunityRuleCount, 2018), nil
		},
	}
	raw := packet.NewUDP(packet.MustParseAddr("10.8.0.2"), packet.MustParseAddr("10.8.0.1"),
		40000, 5201, make([]byte, 1472))
	for _, uc := range AllUseCases {
		b.Run(uc.String(), func(b *testing.B) {
			inst, err := NewInstance(stockConfig(b, uc), nil, ctx)
			if err != nil {
				b.Fatal(err)
			}
			var ip packet.IPv4
			if err := ip.Parse(raw); err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if res := inst.Process(&ip); !res.Accepted {
					b.Fatalf("packet dropped by %s", res.DroppedBy)
				}
			}
		})
	}
}

// TestProcessReusesResult pins the zero-allocation contract of the packet
// path: Process reuses one Result and one Packet wrapper per router, so
// the scratch from a previous call is overwritten by the next one and the
// steady state allocates nothing.
func TestProcessReusesResult(t *testing.T) {
	inst, err := NewInstance("FromDevice(tun0) -> ToDevice(tun0);", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ip1 := mustPacket(t, "10.0.0.1", "10.0.0.2")
	ip2 := mustPacket(t, "10.0.0.3", "10.0.0.4")

	res1 := inst.Process(ip1)
	if !res1.Accepted || res1.Packet.IP != ip1 {
		t.Fatalf("first verdict wrong: %+v", res1)
	}
	res2 := inst.Process(ip2)
	if res1 != res2 {
		t.Error("Process allocated a fresh Result instead of reusing the scratch")
	}
	if res2.Packet.IP != ip2 {
		t.Error("reused Packet does not carry the new packet")
	}

	var ip packet.IPv4
	raw := ip1Raw(t)
	if err := ip.Parse(raw); err != nil {
		t.Fatal(err)
	}
	if raceEnabled {
		return
	}
	allocs := testing.AllocsPerRun(100, func() {
		if res := inst.Process(&ip); !res.Accepted {
			t.Fatal("packet rejected")
		}
	})
	if allocs > 0 {
		t.Errorf("Process allocates %.1f times per packet, want 0", allocs)
	}
}

// TestPipelinesAllocateNothing pins the packet path's zero-allocation
// contract pipeline by pipeline: every stock pipeline, bare and with fault
// containment on, and the stateful flow pipelines on an established
// connection, process a 1500-byte packet without allocating.
func TestPipelinesAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	cli, srv := packet.MustParseAddr("10.8.0.2"), packet.MustParseAddr("10.8.0.1")
	ruleSet := func(string) (string, error) {
		return idps.GenerateRuleSet(idps.CommunityRuleCount, 2018), nil
	}
	type pipeline struct {
		name, cfg string
		ctx       *Context
		warm      [][]byte // packets that set up state first
		raw       []byte
	}
	udp := packet.NewUDP(cli, srv, 40000, 5201, make([]byte, 1472))
	var pipelines []pipeline
	for _, uc := range AllUseCases {
		pipelines = append(pipelines,
			pipeline{name: uc.String(), cfg: stockConfig(t, uc), ctx: &Context{RuleSet: ruleSet}, raw: udp},
			pipeline{name: uc.String() + "/contained", cfg: stockConfig(t, uc),
				ctx: &Context{RuleSet: ruleSet, Failure: FailurePolicy{Contain: true}}, raw: udp})
	}
	handshake := [][]byte{
		packet.NewTCP(cli, srv, 40000, 80, 100, 0, packet.TCPSyn, nil),
		packet.NewTCP(srv, cli, 80, 40000, 300, 101, packet.TCPSyn|packet.TCPAck, nil),
		packet.NewTCP(cli, srv, 40000, 80, 101, 301, packet.TCPAck, nil),
	}
	segment := packet.NewTCP(cli, srv, 40000, 80, 101, 301, packet.TCPAck, make([]byte, 1460))
	pipelines = append(pipelines,
		pipeline{name: "ConnTrack", cfg: "FromDevice -> ct :: ConnTrack -> ToDevice;", warm: handshake, raw: segment},
		pipeline{name: "ConnTrack+Shaper", warm: handshake, raw: segment,
			cfg: "FromDevice -> ct :: ConnTrack -> sh :: FlowRateLimit(RATE 100G, BURST 4000000000) -> ToDevice;"})

	for _, p := range pipelines {
		t.Run(p.name, func(t *testing.T) {
			inst, err := NewInstance(p.cfg, nil, p.ctx)
			if err != nil {
				t.Fatal(err)
			}
			var ip packet.IPv4
			for _, raw := range append(p.warm, p.raw) {
				if err := ip.Parse(raw); err != nil {
					t.Fatal(err)
				}
				if res := inst.Process(&ip); !res.Accepted {
					t.Fatalf("packet dropped by %s", res.DroppedBy)
				}
			}
			if allocs := testing.AllocsPerRun(100, func() { inst.Process(&ip) }); allocs > 0 {
				t.Errorf("Process allocates %.1f times per packet, want 0", allocs)
			}
		})
	}
}

func mustPacket(t *testing.T, src, dst string) *packet.IPv4 {
	t.Helper()
	var ip packet.IPv4
	raw := packet.NewUDP(packet.MustParseAddr(src), packet.MustParseAddr(dst), 1234, 80, []byte("x"))
	if err := ip.Parse(raw); err != nil {
		t.Fatal(err)
	}
	return ip.Clone()
}

func ip1Raw(t *testing.T) []byte {
	t.Helper()
	return packet.NewUDP(packet.MustParseAddr("10.0.0.1"), packet.MustParseAddr("10.0.0.2"), 1234, 80, []byte("x"))
}
