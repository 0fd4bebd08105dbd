package click

import (
	"fmt"
	"strings"
)

// UseCase identifies one of the five middlebox functions the paper
// evaluates (§V-B).
type UseCase int

// Evaluation use cases.
const (
	// UseCaseNOP forwards packets untouched — the measurement baseline.
	UseCaseNOP UseCase = iota + 1
	// UseCaseLB balances packets across four backends with
	// RoundRobinSwitch.
	UseCaseLB
	// UseCaseFW filters with 16 non-matching IPFilter rules.
	UseCaseFW
	// UseCaseIDPS matches the community rule set with IDSMatcher.
	UseCaseIDPS
	// UseCaseDDoS rate-limits with IDSMatcher + TrustedSplitter.
	UseCaseDDoS
)

// AllUseCases lists the evaluation order used in the paper's figures.
var AllUseCases = []UseCase{UseCaseNOP, UseCaseLB, UseCaseFW, UseCaseIDPS, UseCaseDDoS}

// String implements fmt.Stringer with the paper's labels.
func (u UseCase) String() string {
	switch u {
	case UseCaseNOP:
		return "NOP"
	case UseCaseLB:
		return "LB"
	case UseCaseFW:
		return "FW"
	case UseCaseIDPS:
		return "IDPS"
	case UseCaseDDoS:
		return "DDoS"
	default:
		return fmt.Sprintf("UseCase(%d)", int(u))
	}
}

// ServerConfig is the stock configuration of a use case for a server-side
// vanilla Click instance (the OpenVPN+Click baseline): the same graphs the
// clients run (StockPipeline) except that the DDoS shaper uses
// UntrustedSplitter with per-packet system time, as in the paper. An
// unknown use case is ErrBadPipeline.
func ServerConfig(u UseCase) (string, error) {
	if u == UseCaseDDoS {
		return Chain(
			Stage{Name: "ids", Class: "IDSMatcher", Args: []string{"RULESET community"}},
			Stage{Name: "shaper", Class: "UntrustedSplitter",
				Args: []string{"RATE 10G", "BURST 4000000000"}},
		).Config()
	}
	return StockPipeline(u).Config()
}

// FirewallRules builds n IPFilter clauses over the TEST-NET-3 block
// (203.0.113.0/24), which no evaluation workload uses, followed by a final
// "allow all" — mirroring the paper's "set of 16 rules that do not match
// any packet".
func FirewallRules(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "drop src host 203.0.113.%d && dst port %d, ", i+1, 6000+i)
	}
	b.WriteString("allow all")
	return b.String()
}
