package idps

import (
	"bytes"
	"slices"
	"testing"

	"endbox/internal/packet"
)

// fuzzPatterns decodes a blob into length-prefixed patterns (1–16 bytes
// each, any byte value), numbered in order. Equal patterns are kept: they
// share a final state and must both be reported.
func fuzzPatterns(blob []byte) []Pattern {
	var patterns []Pattern
	for len(blob) > 1 {
		l := min(1+int(blob[0])%16, len(blob)-1)
		patterns = append(patterns, Pattern{ID: len(patterns), Bytes: blob[1 : 1+l]})
		blob = blob[1+l:]
	}
	return patterns
}

func lower(b []byte) []byte {
	out := make([]byte, len(b))
	for i, c := range b {
		out[i] = fold(c, true)
	}
	return out
}

func cmpMatch(a, b Match) int {
	if a.End != b.End {
		return a.End - b.End
	}
	return a.PatternID - b.PatternID
}

// FuzzAutomatonAgainstNaive locates every pattern with bytes.Index (over
// lowered copies under caseFold) and requires Scan to report the identical
// (PatternID, End) multiset, Contains to agree with its emptiness and
// MatchedIDs with its distinct IDs.
func FuzzAutomatonAgainstNaive(f *testing.F) {
	enc := func(pats ...string) []byte {
		var blob []byte
		for _, p := range pats {
			blob = append(blob, byte(len(p)-1))
			blob = append(blob, p...)
		}
		return blob
	}
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	var allBlob []byte // 16 patterns of 16 bytes: no spare "other" class
	for i := 0; i < 256; i += 16 {
		allBlob = append(allBlob, 15)
		allBlob = append(allBlob, all[i:i+16]...)
	}
	f.Add(enc("aa", "aaa", "aba", "ab"), []byte("aaabaaaab"), false)     // overlapping
	f.Add(enc("hers", "ers", "s", "she", "he"), []byte("ushers"), false) // suffixes of one another
	f.Add(enc("he", "he", "HE"), []byte("hehe HE"), false)               // equal patterns, distinct IDs
	f.Add(allBlob, append(all, all...), false)
	f.Add(allBlob, append(all, all...), true)
	f.Add(enc("AtTaCk", "TACK", "tac", "[K]"), []byte("ATTACK attack {k} [k]"), true) // mixed case, folded
	f.Add(enc("AtTaCk"), []byte("attack AtTaCk"), false)
	f.Add(enc("%abc-1%"), []byte("\x00\xff nothing here shares a byte"), true) // bytes in no pattern

	f.Fuzz(func(t *testing.T, blob, data []byte, caseFold bool) {
		patterns := fuzzPatterns(blob)
		auto, err := NewAutomaton(patterns, caseFold)
		if err != nil {
			t.Fatal(err)
		}
		hay := data
		if caseFold {
			hay = lower(data)
		}
		var want []Match
		var wantIDs []int
		sumLen := 0
		for _, p := range patterns {
			needle := p.Bytes
			if caseFold {
				needle = lower(needle)
			}
			sumLen += len(needle)
			for off := 0; ; off++ {
				i := bytes.Index(hay[off:], needle)
				if i < 0 {
					break
				}
				off += i
				want = append(want, Match{PatternID: p.ID, End: off + len(needle)})
			}
			if bytes.Contains(hay, needle) {
				wantIDs = append(wantIDs, p.ID)
			}
		}
		got := auto.Scan(data, nil)
		slices.SortFunc(got, cmpMatch)
		slices.SortFunc(want, cmpMatch)
		if !slices.Equal(got, want) {
			t.Fatalf("Scan = %v, naive = %v", got, want)
		}
		if c := auto.Contains(data); c != (len(want) > 0) {
			t.Fatalf("Contains = %v with %d naive matches", c, len(want))
		}
		if ids := auto.MatchedIDs(data); !slices.Equal(ids, wantIDs) {
			t.Fatalf("MatchedIDs = %v, naive = %v", ids, wantIDs)
		}
		if s := auto.States(); s < 1 || s > 1+sumLen {
			t.Fatalf("States = %d outside [1, %d]", s, 1+sumLen)
		}
	})
}

func prefilterPatterns(t *testing.T, n int) []Pattern {
	t.Helper()
	rules, err := ParseRules(GenerateRuleSet(n, GeneratedSeed))
	if err != nil {
		t.Fatal(err)
	}
	patterns := make([]Pattern, len(rules))
	for i, r := range rules {
		patterns[i] = Pattern{ID: i, Bytes: r.Contents[0].Bytes}
	}
	return patterns
}

// TestAutomatonFootprint pins what an engine costs to build and to hold in
// enclave memory: the state counts of the dense 256-column automaton this
// one replaced, a quarter of its table, and a build whose allocations do
// not grow with the number of states.
func TestAutomatonFootprint(t *testing.T) {
	for _, tc := range []struct {
		rules, states, maxTable int
	}{
		{CommunityRuleCount, 5422, 3 << 19}, // 1.5 MiB
		{1000, 13985, 4 << 20},
	} {
		patterns := prefilterPatterns(t, tc.rules)
		auto, err := NewAutomaton(patterns, true)
		if err != nil {
			t.Fatal(err)
		}
		if got := auto.States(); got != tc.states {
			t.Errorf("%d rules: States = %d, want %d", tc.rules, got, tc.states)
		}
		if auto.shift > 6 {
			t.Errorf("%d rules: %d columns per state, want at most 64", tc.rules, 1<<auto.shift)
		}
		if table := 4 * len(auto.next); table > tc.maxTable {
			t.Errorf("%d rules: table is %d bytes, want at most %d", tc.rules, table, tc.maxTable)
		}
		if raceEnabled {
			continue
		}
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := NewAutomaton(patterns, true); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 32 {
			t.Errorf("%d rules: NewAutomaton made %.0f allocations, want at most 32", tc.rules, allocs)
		}
		t.Logf("%d rules: %d states, %d-byte table, %.0f allocations", tc.rules, auto.States(), 4*len(auto.next), allocs)
	}
}

// TestParseRulesAllocs keeps the rule parser, a third of an engine build,
// from sliding back to a dozen small strings per rule.
func TestParseRulesAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	text := GenerateRuleSet(CommunityRuleCount, GeneratedSeed)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ParseRules(text); err != nil {
			t.Fatal(err)
		}
	})
	if perRule := allocs / CommunityRuleCount; perRule > 4 {
		t.Errorf("ParseRules made %.1f allocations per rule, want at most 4", perRule)
	}
}

// TestEvaluateAllocs pins the alerting path: under the DDoS use case every
// packet raises an alert, so a one-alert packet may allocate only its
// Result.Alerts slice and a miss nothing.
func TestEvaluateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := mustEngine(t, `alert ip any any -> any any (msg:"flood"; content:"flood"; nocase; sid:1;)
alert ip any any -> any any (msg:"other"; content:"never seen"; sid:2;)`)
	for _, tc := range []struct {
		name string
		pkt  func(payload string) *packet.IPv4
	}{
		{"tcp", func(p string) *packet.IPv4 { return tcpPacket(t, "10.0.0.1", "10.0.0.2", 5000, 80, p) }},
		{"udp", func(p string) *packet.IPv4 { return udpPacket(t, "10.0.0.1", "10.0.0.2", 5000, 53, p) }},
	} {
		hit, miss := tc.pkt("a FLOOD of flood packets"), tc.pkt("an innocent payload")
		if res := e.Evaluate(hit); len(res.Alerts) != 1 || res.Alerts[0].SID != 1 {
			t.Fatalf("%s: alerts = %+v, want one for sid 1", tc.name, res.Alerts)
		}
		if allocs := testing.AllocsPerRun(100, func() { e.Evaluate(hit) }); allocs > 1 {
			t.Errorf("%s: a one-alert packet made %.0f allocations, want at most 1", tc.name, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { e.Evaluate(miss) }); allocs > 0 {
			t.Errorf("%s: a miss made %.0f allocations, want 0", tc.name, allocs)
		}
	}
}
