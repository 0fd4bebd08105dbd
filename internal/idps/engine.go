package idps

import (
	"bytes"
	"fmt"
	"slices"
	"sync/atomic"

	"endbox/internal/packet"
)

// Verdict is the engine's decision for a packet.
type Verdict int

// Engine verdicts.
const (
	// VerdictAccept lets the packet through (possibly with alerts).
	VerdictAccept Verdict = iota + 1
	// VerdictDrop discards the packet (a drop rule matched).
	VerdictDrop
)

// Alert records one rule match.
type Alert struct {
	SID int
	Msg string
}

// Result is the outcome of evaluating one packet.
type Result struct {
	Verdict Verdict
	Alerts  []Alert
}

// Stats counts engine activity; the DDoS use case reads these to detect
// repeat offenders.
type Stats struct {
	Packets uint64
	Alerts  uint64
	Drops   uint64
}

// Engine evaluates packets against a compiled rule set. A single case-folded
// Aho–Corasick automaton over every content pattern acts as a prefilter;
// candidate rules are then verified exactly (case, offset, depth, all
// contents present, header match).
type Engine struct {
	rules []*Rule
	// pass rules are evaluated first; a match exempts the packet.
	passRules []*Rule
	// contentRules/headerRules partition non-pass rules by whether they
	// carry content patterns.
	headerRules []*Rule
	auto        *Automaton
	// patOwner maps automaton pattern ID -> rule index in rules.
	patOwner []int

	packets atomic.Uint64
	alerts  atomic.Uint64
	drops   atomic.Uint64
}

// NewEngine compiles rules. The rule list is copied; rules themselves are
// treated as immutable after compilation.
func NewEngine(rules []*Rule) (*Engine, error) {
	e := &Engine{rules: append([]*Rule(nil), rules...)}
	patterns := make([]Pattern, 0, len(rules))
	e.patOwner = make([]int, 0, len(rules))
	for idx, r := range e.rules {
		if r.Action == ActionPass {
			e.passRules = append(e.passRules, r)
			continue
		}
		if len(r.Contents) == 0 {
			e.headerRules = append(e.headerRules, r)
			continue
		}
		// Prefilter on the rule's first content; remaining contents are
		// verified exactly afterwards.
		patterns = append(patterns, Pattern{
			ID:    len(e.patOwner),
			Bytes: r.Contents[0].Bytes,
		})
		e.patOwner = append(e.patOwner, idx)
	}
	if len(patterns) > 0 {
		auto, err := NewAutomaton(patterns, true)
		if err != nil {
			return nil, fmt.Errorf("idps: compile prefilter: %w", err)
		}
		e.auto = auto
	}
	return e, nil
}

// RuleCount returns the number of compiled rules.
func (e *Engine) RuleCount() int { return len(e.rules) }

// Stats returns a snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Packets: e.packets.Load(),
		Alerts:  e.alerts.Load(),
		Drops:   e.drops.Load(),
	}
}

// Evaluate runs the packet through the rule set, inspecting the transport
// payload.
func (e *Engine) Evaluate(ip *packet.IPv4) Result {
	return e.EvaluatePayload(ip, transportPayload(ip))
}

// EvaluatePayload evaluates with an explicit payload, used when the
// TLSDecrypt element has already recovered application plaintext that
// content rules should inspect instead of the on-wire ciphertext.
func (e *Engine) EvaluatePayload(ip *packet.IPv4, payload []byte) Result {
	e.packets.Add(1)
	flow := packet.FlowOf(ip)

	for _, r := range e.passRules {
		if ruleMatches(r, ip, flow, payload) {
			return Result{Verdict: VerdictAccept}
		}
	}

	res := Result{Verdict: VerdictAccept}
	record := func(r *Rule) {
		e.alerts.Add(1)
		res.Alerts = append(res.Alerts, Alert{SID: r.SID, Msg: r.Msg})
		if r.Action == ActionDrop {
			res.Verdict = VerdictDrop
		}
	}

	for _, r := range e.headerRules {
		if ruleMatches(r, ip, flow, payload) {
			record(r)
		}
	}

	if e.auto != nil && len(payload) > 0 {
		// Each content rule owns one pattern and pattern IDs ascend with
		// rule index, so sorted distinct IDs visit candidates in rule order.
		var buf [16]Match
		matches := e.auto.Scan(payload, buf[:0])
		slices.SortFunc(matches, func(a, b Match) int { return a.PatternID - b.PatternID })
		for i, m := range matches {
			if i > 0 && m.PatternID == matches[i-1].PatternID {
				continue
			}
			if r := e.rules[e.patOwner[m.PatternID]]; ruleMatches(r, ip, flow, payload) {
				record(r)
			}
		}
	}

	if res.Verdict == VerdictDrop {
		e.drops.Add(1)
	}
	return res
}

// transportPayload returns the application payload the content options
// inspect: past the TCP/UDP header for those protocols, the raw IP payload
// otherwise.
func transportPayload(ip *packet.IPv4) []byte {
	seg := ip.Payload
	switch ip.Protocol {
	case packet.ProtoTCP:
		if len(seg) < packet.TCPHeaderLen {
			return nil
		}
		dataOff := int(seg[12]>>4) * 4
		if dataOff < packet.TCPHeaderLen || dataOff > len(seg) {
			return nil
		}
		return seg[dataOff:]
	case packet.ProtoUDP:
		u, err := packet.ParseUDP(seg) // inlined: the header stays on the stack
		if err != nil {
			return nil
		}
		return u.Payload
	default:
		return seg
	}
}

// ruleMatches verifies a rule completely against a packet.
func ruleMatches(r *Rule, ip *packet.IPv4, flow packet.Flow, payload []byte) bool {
	if !protoMatches(r.Proto, ip.Protocol) {
		return false
	}
	dirOK := r.Src.Matches(flow.Src) && r.SrcPort.Matches(flow.SrcPort) &&
		r.Dst.Matches(flow.Dst) && r.DstPort.Matches(flow.DstPort)
	if !dirOK && r.Bidir {
		dirOK = r.Src.Matches(flow.Dst) && r.SrcPort.Matches(flow.DstPort) &&
			r.Dst.Matches(flow.Src) && r.DstPort.Matches(flow.SrcPort)
	}
	if !dirOK {
		return false
	}
	for _, c := range r.Contents {
		if !contentMatches(c, payload) {
			return false
		}
	}
	return true
}

func protoMatches(p Proto, ipProto byte) bool {
	switch p {
	case ProtoAny:
		return true
	case ProtoTCP:
		return ipProto == packet.ProtoTCP
	case ProtoUDP:
		return ipProto == packet.ProtoUDP
	case ProtoICMP:
		return ipProto == packet.ProtoICMP
	default:
		return false
	}
}

// contentMatches applies one content option with its offset/depth window.
func contentMatches(c ContentMatch, payload []byte) bool {
	if c.Offset >= len(payload) {
		return false
	}
	window := payload[c.Offset:]
	if c.Depth > 0 {
		if c.Depth < len(c.Bytes) {
			return false
		}
		if c.Depth < len(window) {
			window = window[:c.Depth]
		}
	}
	if c.NoCase {
		return containsFold(window, c.Bytes)
	}
	return bytes.Contains(window, c.Bytes)
}

// containsFold is bytes.Contains with ASCII case folding.
func containsFold(haystack, needle []byte) bool {
	if len(needle) == 0 {
		return true
	}
	if len(haystack) < len(needle) {
		return false
	}
outer:
	for i := 0; i+len(needle) <= len(haystack); i++ {
		for j := range needle {
			if fold(haystack[i+j], true) != fold(needle[j], true) {
				continue outer
			}
		}
		return true
	}
	return false
}
