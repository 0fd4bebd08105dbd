package click

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"endbox/internal/idps"
)

func communityRuleSets() map[string]string {
	return map[string]string{"community": idps.GenerateRuleSet(idps.CommunityRuleCount, 2018)}
}

func TestPipelineEmission(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Pipeline
		want string
	}{
		{"nop", Chain(), "FromDevice -> ToDevice;"},
		{"named stage", Chain(Stage{Name: "c", Class: "Counter"}),
			"FromDevice -> c :: Counter -> ToDevice;"},
		{"anonymous with args", Chain(Stage{Class: "IPFilter", Args: []string{"allow all"}}),
			"FromDevice -> IPFilter(allow all) -> ToDevice;"},
		{"fanout", Chain(Stage{Name: "rr", Class: "RoundRobinSwitch", Fanout: 2}),
			"FromDevice -> rr :: RoundRobinSwitch;\nrr[0] -> td :: ToDevice;\nrr[1] -> td;\n"},
		// Balanced parens and closed quotes inside args are legitimate
		// Click syntax and must pass.
		{"balanced arg", Chain(Stage{Class: "IPFilter", Args: []string{`allow dst host 10.0.0.1`, `drop src net 10.9.0.0/16`}}),
			"FromDevice -> IPFilter(allow dst host 10.0.0.1, drop src net 10.9.0.0/16) -> ToDevice;"},
	} {
		got, err := tc.p.Config()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: emitted %q, want %q", tc.name, got, tc.want)
		}
		if _, err := ParseConfig(got); err != nil {
			t.Errorf("%s: emitted config does not parse: %v", tc.name, err)
		}
	}
}

func TestPipelineEmissionErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    Pipeline
	}{
		{"zero pipeline", Pipeline{}},
		{"raw empty", Raw("  \n")},
		{"bad class", Chain(Stage{Class: "no spaces"})},
		{"bad name", Chain(Stage{Name: "1up", Class: "Counter"})},
		{"fanout not last", Chain(Stage{Name: "rr", Class: "RoundRobinSwitch", Fanout: 2}, Stage{Class: "Counter"})},
		{"fanout unnamed", Chain(Stage{Class: "RoundRobinSwitch", Fanout: 2})},
		// An argument must not be able to escape its parentheses and
		// rewrite the graph (this one would splice in a Discard).
		{"arg paren injection", Chain(Stage{Class: "Counter", Args: []string{"1) -> Discard; c2 :: Counter(1"}})},
		{"arg unclosed quote", Chain(Stage{Class: "IPFilter", Args: []string{`allow all"`}})},
		// A top-level comma would be re-split by SplitArgs into two args
		// the caller never passed.
		{"arg comma drift", Chain(Stage{Class: "IPFilter", Args: []string{"allow all, drop all"}})},
		{"negative fanout", Chain(Stage{Name: "rr", Class: "RoundRobinSwitch", Fanout: -1})},
	} {
		if _, err := tc.p.Config(); !errors.Is(err, ErrBadPipeline) {
			t.Errorf("%s: err = %v, want ErrBadPipeline", tc.name, err)
		}
	}
}

func TestPipelineZero(t *testing.T) {
	if !(Pipeline{}).Zero() {
		t.Error("zero value not Zero")
	}
	if Chain().Zero() {
		t.Error("explicit empty Chain must be the NOP pipeline, not Zero")
	}
	if Raw("FromDevice -> ToDevice;").Zero() {
		t.Error("raw pipeline reported Zero")
	}
}

func TestValidateConfig(t *testing.T) {
	rules := communityRuleSets()
	if err := ValidateConfig("FromDevice -> ids :: IDSMatcher(RULESET community) -> ToDevice;", nil, rules); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	for _, tc := range []struct{ name, cfg string }{
		{"syntax", "FromDevice -> -> ToDevice;"},
		{"unknown class", "FromDevice -> Frobnicator -> ToDevice;"},
		{"bad args", "FromDevice -> IPFilter(frobnicate all) -> ToDevice;"},
		{"unknown rule set", "FromDevice -> IDSMatcher(RULESET nope) -> ToDevice;"},
		{"no input", "Counter -> ToDevice;"},
	} {
		if err := ValidateConfig(tc.cfg, nil, rules); !errors.Is(err, ErrBadPipeline) {
			t.Errorf("%s: err = %v, want ErrBadPipeline", tc.name, err)
		}
	}
}

// probeElement is a registrable test element that drops every Nth packet.
type probeElement struct {
	Base
	every uint64
	seen  uint64
}

func (*probeElement) Class() string { return "DropEvery" }
func (e *probeElement) Configure(args []string, _ *Context) error {
	e.every = 2
	return nil
}
func (*probeElement) InPorts() int  { return AnyPorts }
func (*probeElement) OutPorts() int { return 1 }
func (e *probeElement) Push(_ int, p *Packet) {
	if e.seen++; e.seen%e.every == 0 {
		p.Drop(e.Name())
		return
	}
	e.Forward(0, p)
}

func TestSharedRegistry(t *testing.T) {
	r := NewSharedRegistry()
	factory := func() Element { return &probeElement{} }

	if err := r.Register("DropEvery", factory); err != nil {
		t.Fatalf("Register: %v", err)
	}
	if _, ok := r.Lookup("DropEvery"); !ok {
		t.Fatal("registered class not resolvable")
	}
	for _, tc := range []struct {
		name  string
		class string
		f     Factory
	}{
		{"duplicate", "DropEvery", factory},
		{"builtin override", "IPFilter", factory},
		{"empty name", "", factory},
		{"bad identifier", "Drop Every", factory},
		{"nil factory", "NilFactory", nil},
	} {
		if err := r.Register(tc.class, tc.f); !errors.Is(err, ErrBadPipeline) {
			t.Errorf("%s: err = %v, want ErrBadPipeline", tc.name, err)
		}
	}
	found := false
	for _, c := range r.Classes() {
		if c == "DropEvery" {
			found = true
		}
	}
	if !found {
		t.Error("Classes() missing registered class")
	}
}

// TestSharedRegistryConcurrent registers classes from several goroutines
// while routers are built against the same registry — the registration
// model hot-swapping relies on. Run with -race.
func TestSharedRegistryConcurrent(t *testing.T) {
	r := NewSharedRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_ = r.Register(fmt.Sprintf("Conc%d_%d", g, i), func() Element { return &probeElement{} })
			}
		}(g)
	}
	for b := 0; b < 2; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				g, err := ParseConfig("FromDevice -> c :: Counter -> ToDevice;")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := BuildRouter(g, r, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCloneKeepsPlaintextNilness is the regression test for the Tee
// fan-out clone: a nil Plaintext (no TLS plaintext recovered — the common
// case) must stay nil without allocating, and an empty-but-present
// annotation must stay non-nil, so IDS elements make the same
// plaintext-vs-ciphertext decision on every branch.
func TestCloneKeepsPlaintextNilness(t *testing.T) {
	ip := testUDP(t, "clone")

	p := NewPacket(ip)
	if q := p.clone(); q.Plaintext != nil {
		t.Errorf("nil Plaintext became %#v", q.Plaintext)
	}

	p.Plaintext = []byte{}
	if q := p.clone(); q.Plaintext == nil {
		t.Error("empty Plaintext became nil")
	} else if len(q.Plaintext) != 0 {
		t.Errorf("empty Plaintext grew to %d bytes", len(q.Plaintext))
	}

	p.Plaintext = []byte("secret")
	q := p.clone()
	if string(q.Plaintext) != "secret" {
		t.Errorf("Plaintext = %q, want %q", q.Plaintext, "secret")
	}
	q.Plaintext[0] = 'X'
	if string(p.Plaintext) != "secret" {
		t.Error("clone aliases the original Plaintext")
	}

	// The non-TLS fan-out path must not pay a per-clone allocation for
	// the absent annotation (only IP.Clone's are expected).
	p.Plaintext = nil
	ipAllocs := testing.AllocsPerRun(100, func() { _ = ip.Clone() })
	cloneAllocs := testing.AllocsPerRun(100, func() { _ = p.clone() })
	if cloneAllocs > ipAllocs+1 { // +1 for the Packet wrapper itself
		t.Errorf("clone of non-TLS packet allocates %.0f (IP.Clone alone: %.0f)", cloneAllocs, ipAllocs)
	}
}

// TestRouterStats checks the uniform per-element counters: packets pushed
// into each element, drops attributed to the deciding element, alerts
// attributed to the raising element — including for anonymous instances.
func TestRouterStats(t *testing.T) {
	ctx, _ := testContext(t)
	cfg := `FromDevice -> ids :: IDSMatcher(RULESET strict, MODE enforce) -> fw :: IPFilter(drop dst port 9999, allow all) -> ToDevice;`
	inst := mustInstance(t, cfg, ctx)

	for i := 0; i < 4; i++ {
		inst.Process(testUDP(t, "clean")) // passes both
	}
	inst.Process(testTCPPort(t, 80, []byte("X-Worm"))) // dropped by ids, alerts
	inst.Process(testTCPPort(t, 9999, []byte("hi")))   // passes ids, dropped by fw

	stats := inst.Stats()
	byName := map[string]ElementStats{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	if got := byName["ids"]; got.Packets != 6 || got.Drops != 1 || got.Alerts != 1 {
		t.Errorf("ids stats = %+v, want 6 packets, 1 drop, 1 alert", got)
	}
	if got := byName["fw"]; got.Packets != 5 || got.Drops != 1 {
		t.Errorf("fw stats = %+v, want 5 packets, 1 drop", got)
	}
}

// TestStatsSurviveHotSwap pins that the uniform counters transplant
// across Swap for same-name same-class elements.
func TestStatsSurviveHotSwap(t *testing.T) {
	ctx, _ := testContext(t)
	inst := mustInstance(t, "FromDevice -> c :: Counter -> ToDevice;", ctx)
	for i := 0; i < 5; i++ {
		inst.Process(testUDP(t, "x"))
	}
	if _, err := inst.Swap("FromDevice -> c :: Counter -> fw :: IPFilter(allow all) -> ToDevice;"); err != nil {
		t.Fatal(err)
	}
	inst.Process(testUDP(t, "x"))
	var c ElementStats
	for _, s := range inst.Stats() {
		if s.Name == "c" {
			c = s
		}
	}
	if c.Packets != 6 {
		t.Errorf("counter packets after swap = %d, want 6 (5 transplanted + 1)", c.Packets)
	}
}
