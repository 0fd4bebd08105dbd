package mbox

import (
	"fmt"

	"endbox/internal/click"
	"endbox/internal/idps"
)

// Pipeline is a typed, validated middlebox function description: an
// ordered chain of element stages between the implicit FromDevice entry
// and ToDevice exit. Set it on endbox.ClientSpec.Pipeline or
// endbox.Rollout.Pipeline; it compiles to Click configuration text and is
// fully validated before anything reaches an enclave.
type Pipeline = click.Pipeline

// Stage is one element instance in a pipeline. The constructors below
// cover the common elements; build a Stage literal (or use Custom) for
// anything else, and override Name when one chain uses the same
// constructor twice.
type Stage = click.Stage

// UseCase identifies one of the five middlebox functions the paper
// evaluates (§V-B), named by the endbox.UseCase* constants; Stock
// reproduces them as pipelines.
type UseCase = click.UseCase

// Chain builds a pipeline from typed stages in order. Chain() with no
// stages is the NOP pipeline (FromDevice wired straight to ToDevice).
func Chain(stages ...Stage) Pipeline { return click.Chain(stages...) }

// Raw wraps verbatim Click configuration text as a pipeline for graph
// shapes the typed stages cannot express. It still passes full validation
// at compile time.
func Raw(config string) Pipeline { return click.Raw(config) }

// Stock returns the pipeline reproducing one of the paper's five
// evaluation middlebox functions. Unknown use cases return the zero
// Pipeline, which every entry point refuses with ErrBadPipeline.
func Stock(u UseCase) Pipeline { return click.StockPipeline(u) }

// Compile emits and fully validates a pipeline against the process
// registry, with the given rule sets resolvable by IDS stages. It returns
// the Click configuration text; errors wrap ErrBadPipeline. AddClient,
// ResumeClient, Rollout and RolloutCanary run this implicitly — call it
// directly to validate early, or where the text itself is needed (a
// standalone client's boot configuration, inspection).
func Compile(p Pipeline, ruleSets map[string]string) (string, error) {
	return p.Compile(nil, ruleSets)
}

// Firewall is an IPFilter stage (instance name "fw"). Each rule is one
// clause, first match wins, packets matching no clause are dropped:
//
//	mbox.Firewall("drop src net 10.9.0.0/16", "allow dst port 80 && proto tcp", "allow all")
func Firewall(rules ...string) Stage {
	return Stage{Name: "fw", Class: "IPFilter", Args: rules}
}

// IDS is an IDSMatcher stage in alert mode (instance name "ids"):
// matching packets are forwarded and raise alerts. The rule set name is
// resolved against the community set, ClientSpec.ExtraRuleSets and the
// rule sets shipped with updates.
func IDS(ruleSet string) Stage {
	return Stage{Name: "ids", Class: "IDSMatcher", Args: []string{"RULESET " + ruleSet}}
}

// GeneratedRuleSet names a deterministic generated rule set of n rules
// (production-scale IDPS evaluation: 1k–10k rules instead of the 377-rule
// community subset). The name resolves everywhere rule-set names do —
// IDS(GeneratedRuleSet(5000)) runs the matcher at five thousand rules
// without shipping the rule text through a configuration blob.
func GeneratedRuleSet(n int) string { return idps.GeneratedSetName(n) }

// IPS is an IDSMatcher stage in enforce mode (instance name "ids"):
// packets matched by drop rules are dropped.
func IPS(ruleSet string) Stage {
	return Stage{Name: "ids", Class: "IDSMatcher", Args: []string{"RULESET " + ruleSet, "MODE enforce"}}
}

// LoadBalancer is a RoundRobinSwitch stage fanning out over n backends
// (instance name "rr"). It must be the final stage of its chain, and
// backends must be at least 2 — fewer compiles to ErrBadPipeline rather
// than silently degenerating into a pass-through.
func LoadBalancer(backends int) Stage {
	if backends < 2 {
		backends = -1 // rejected with a typed error at compile time
	}
	return Stage{Name: "rr", Class: "RoundRobinSwitch", Fanout: backends}
}

// RateLimit is a TrustedSplitter stage (instance name "shaper") shaping
// to rate (bits/s, with k/M/G suffixes: "100M", "10G") with the given
// token-bucket capacity in bytes. samplePackets > 0 sets how many packets
// pass between expensive trusted-time probes (0 keeps the paper's
// 500,000-packet default).
func RateLimit(rate string, burstBytes uint64, samplePackets uint64) Stage {
	args := []string{"RATE " + rate, fmt.Sprintf("BURST %d", burstBytes)}
	if samplePackets > 0 {
		args = append(args, fmt.Sprintf("SAMPLE %d", samplePackets))
	}
	return Stage{Name: "shaper", Class: "TrustedSplitter", Args: args}
}

// TLSInspect is a TLSDecrypt stage (instance name "tls") recovering TLS
// plaintext on the given port for downstream DPI stages, using session
// keys escrowed through the management interface (paper §III-D).
func TLSInspect(port uint16) Stage {
	return Stage{Name: "tls", Class: "TLSDecrypt", Args: []string{fmt.Sprintf("PORT %d", port)}}
}

// Count is a Counter stage with the given instance name; its packet and
// byte counts survive hot-swaps and appear in Client.PipelineStats.
func Count(name string) Stage {
	return Stage{Name: name, Class: "Counter"}
}

// ConnTrackOptions configures a ConnTrack stage.
type ConnTrackOptions struct {
	// Loose tracks connections (flow counters, state, TTL) without
	// dropping out-of-state TCP segments. The default is strict: segments
	// invalid in the connection's current state are dropped.
	Loose bool
}

// ConnTrack is a stateful-firewall stage (instance name "ct"): every flow
// is tracked in the enclave's flow table and TCP connections run a state
// machine (handshake → established → close). Connection state survives
// configuration hot-swaps, and the stage's live-flow count appears as
// ElementStats.Flows in Client.PipelineStats.
func ConnTrack(o ConnTrackOptions) Stage {
	var args []string
	if o.Loose {
		args = []string{"MODE loose"}
	}
	return Stage{Name: "ct", Class: "ConnTrack", Args: args}
}

// NATOptions configures a NAT stage.
type NATOptions struct {
	// Address is the NAT (masquerade) address flows are rewritten to.
	// Required.
	Address string
	// PortLo..PortHi is the translated port range; both zero selects
	// 40000-40999. The range bounds concurrent NAT'd flows.
	PortLo, PortHi uint16
}

// NAT is a FlowNAT stage (instance name "nat"): each flow's initiator
// endpoint is rewritten to the NAT address with a per-flow port, replies
// are translated back, and transport checksums are patched incrementally
// (RFC 1624). Port bindings survive hot-swaps while the address and
// range are unchanged.
func NAT(o NATOptions) Stage {
	args := []string{"ADDR " + o.Address}
	if o.PortLo != 0 || o.PortHi != 0 {
		args = append(args, fmt.Sprintf("PORTS %d-%d", o.PortLo, o.PortHi))
	}
	return Stage{Name: "nat", Class: "FlowNAT", Args: args}
}

// FlowRateLimit is a per-flow token-bucket stage (instance name
// "flowshaper"): every flow is shaped independently to rate (bits/s,
// k/M/G suffixes) with the given bucket capacity in bytes — per-
// subscriber fairness, where RateLimit shapes the aggregate.
func FlowRateLimit(rate string, burstBytes uint64) Stage {
	return Stage{Name: "flowshaper", Class: "FlowRateLimit",
		Args: []string{"RATE " + rate, fmt.Sprintf("BURST %d", burstBytes)}}
}

// StreamOptions configures a StreamAssembler stage.
type StreamOptions struct {
	// WindowBytes bounds the reassembled bytes buffered per direction per
	// flow; 0 selects 8192.
	WindowBytes int
}

// StreamAssembler reassembles each TCP direction's in-order byte stream
// (instance name "stream") and hands it to downstream DPI stages as the
// packet's plaintext, so an IDS stage placed after it matches signatures
// spanning segment boundaries.
func StreamAssembler(o StreamOptions) Stage {
	var args []string
	if o.WindowBytes > 0 {
		args = []string{fmt.Sprintf("WINDOW %d", o.WindowBytes)}
	}
	return Stage{Name: "stream", Class: "StreamAssembler", Args: args}
}

// Custom is a stage of any element class — built-in or registered through
// Register — with the given configuration arguments. The instance gets a
// parser-assigned anonymous name; set Stage.Name for a stable one:
//
//	s := mbox.Custom("FlowCap", "LIMIT 100")
//	s.Name = "cap"
func Custom(class string, args ...string) Stage {
	return Stage{Class: class, Args: args}
}
