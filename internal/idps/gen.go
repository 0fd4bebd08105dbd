package idps

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
)

// CommunityRuleCount is the size of the Snort community rule subset the
// paper evaluates with (§V-B: "a subset of 377 rules of the Snort community
// rule set").
const CommunityRuleCount = 377

// CommunityRules returns the text of the community-scale rule set every
// standard configuration references: CommunityRuleCount rules at
// GeneratedSeed. The text is a constant, generated on first use.
var CommunityRules = sync.OnceValue(func() string {
	return GenerateRuleSet(CommunityRuleCount, GeneratedSeed)
})

// GenerateRuleSet deterministically produces n Snort-syntax rules of the
// same shape as the community subset: content-bearing alert/drop rules over
// web, mail and generic TCP/UDP traffic. The generated content strings use
// a "%...%"-delimited token alphabet that never occurs in the synthetic
// evaluation workloads, mirroring the paper's setup where "the rules do not
// match packets generated for our evaluation" — so the benches measure
// matching cost, not alert handling.
func GenerateRuleSet(n int, seed int64) string {
	rnd := rand.New(rand.NewSource(seed))
	var b strings.Builder
	b.WriteString("# EndBox generated community-style rule set\n")
	fmt.Fprintf(&b, "# rules: %d, seed: %d\n", n, seed)

	protos := []string{"tcp", "tcp", "tcp", "tcp", "udp", "udp", "icmp"}
	ports := []string{"any", "80", "443", "25", "53", "110", "143", "8080", "1024:65535"}
	classes := []string{
		"trojan-activity", "web-application-attack", "attempted-recon",
		"policy-violation", "misc-attack", "shellcode-detect",
	}

	for i := 0; i < n; i++ {
		action := "alert"
		if rnd.Intn(10) == 0 {
			action = "drop"
		}
		proto := protos[rnd.Intn(len(protos))]
		srcPort, dstPort := "any", "any"
		if proto != "icmp" {
			srcPort = ports[rnd.Intn(len(ports))]
			dstPort = ports[rnd.Intn(len(ports))]
		}
		fmt.Fprintf(&b, "%s %s any %s -> any %s (msg:\"COMMUNITY SIG %06d\"; ",
			action, proto, srcPort, dstPort, i+1)
		// 1-3 content patterns per rule.
		for c := 0; c < 1+rnd.Intn(3); c++ {
			fmt.Fprintf(&b, "content:\"%s\"; ", genToken(rnd))
			if rnd.Intn(3) == 0 {
				b.WriteString("nocase; ")
			}
		}
		fmt.Fprintf(&b, "classtype:%s; sid:%d; rev:%d;)\n",
			classes[rnd.Intn(len(classes))], 1000001+i, 1+rnd.Intn(4))
	}
	return b.String()
}

// genToken produces a pattern like "%xqzjv-4821%": printable, 10-18 bytes,
// wrapped in '%' so it cannot collide with the zero-filled or ASCII-text
// payloads the workload generators emit.
func genToken(rnd *rand.Rand) string {
	const letters = "abcdefghijklmnopqrstuvwxyzQWERTYUIOP"
	n := 6 + rnd.Intn(8)
	var b strings.Builder
	b.WriteByte('%')
	for i := 0; i < n; i++ {
		b.WriteByte(letters[rnd.Intn(len(letters))])
	}
	fmt.Fprintf(&b, "-%04d%%", rnd.Intn(10000))
	return b.String()
}

// GeneratedPrefix introduces the scaled rule-set provider names resolved
// by ResolveGenerated: "generated:<n>" (default seed) or
// "generated:<n>:<seed>". Configurations reference these names exactly
// like "community" — an IDSMatcher configured with
// "RULESET generated:5000" runs at five thousand rules without anyone
// shipping a five-megabyte rule file through a config blob.
const GeneratedPrefix = "generated:"

// GeneratedSeed is the default seed of generated provider names without
// an explicit one, matching the community set's.
const GeneratedSeed = 2018

// MaxGeneratedRules bounds provider-name rule counts, keeping a typo
// like "generated:10000000" from stalling an enclave: at the limit the
// automaton is already 1.25 million states of 64 four-byte columns,
// 305 MiB — well past the 128 MB EPC (DESIGN.md, "IDPS").
const MaxGeneratedRules = 100000

// GeneratedSetName returns the provider name for n rules at the default
// seed (e.g. "generated:5000").
func GeneratedSetName(n int) string {
	return GeneratedPrefix + strconv.Itoa(n)
}

// genCache memoises generated rule sets by full provider name: the same
// name can be resolved at validation time, in every client enclave and in
// benchmark setup without regenerating megabytes of rule text each time.
var genCache sync.Map // string -> string

// ResolveGenerated resolves a scaled rule-set provider name. It reports
// ok=false when name is not a generated provider name at all (callers
// fall through to their explicit rule-set maps / "unknown rule set"
// errors), and a non-nil err when it is one but malformed or out of
// bounds.
func ResolveGenerated(name string) (text string, ok bool, err error) {
	if !strings.HasPrefix(name, GeneratedPrefix) {
		return "", false, nil
	}
	if cached, hit := genCache.Load(name); hit {
		return cached.(string), true, nil
	}
	spec := name[len(GeneratedPrefix):]
	countStr, seedStr, hasSeed := strings.Cut(spec, ":")
	n, err := strconv.Atoi(countStr)
	if err != nil || n < 1 || n > MaxGeneratedRules {
		return "", true, fmt.Errorf("idps: bad generated rule-set %q: count must be 1..%d", name, MaxGeneratedRules)
	}
	seed := int64(GeneratedSeed)
	if hasSeed {
		seed, err = strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			return "", true, fmt.Errorf("idps: bad generated rule-set %q: bad seed", name)
		}
	}
	text = GenerateRuleSet(n, seed)
	genCache.Store(name, text)
	return text, true, nil
}

// CommunityEngine builds the default evaluation engine: CommunityRuleCount
// generated rules compiled and ready (the equivalent of the paper's
// IDSMatcher configuration).
func CommunityEngine() (*Engine, error) {
	rules, err := ParseRules(CommunityRules())
	if err != nil {
		return nil, err
	}
	return NewEngine(rules)
}
