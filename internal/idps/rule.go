package idps

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"endbox/internal/packet"
)

// Action is what a rule does when it matches.
type Action int

// Rule actions from the Snort subset EndBox supports. Alert logs and
// forwards; Drop discards the packet (prevention mode); Pass exempts
// matching traffic from later rules.
const (
	ActionAlert Action = iota + 1
	ActionDrop
	ActionPass
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case ActionAlert:
		return "alert"
	case ActionDrop:
		return "drop"
	case ActionPass:
		return "pass"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Proto restricts a rule to a transport protocol.
type Proto int

// Rule protocols.
const (
	ProtoAny Proto = iota + 1
	ProtoTCP
	ProtoUDP
	ProtoICMP
)

// String implements fmt.Stringer.
func (p Proto) String() string {
	switch p {
	case ProtoAny:
		return "ip"
	case ProtoTCP:
		return "tcp"
	case ProtoUDP:
		return "udp"
	case ProtoICMP:
		return "icmp"
	default:
		return fmt.Sprintf("Proto(%d)", int(p))
	}
}

// AddrSpec matches a source or destination address: any, or an IPv4 CIDR.
type AddrSpec struct {
	Any    bool
	Negate bool
	Base   packet.Addr
	Bits   int
}

// Matches reports whether addr satisfies the spec.
func (s AddrSpec) Matches(addr packet.Addr) bool {
	if s.Any {
		return true
	}
	mask := ^uint32(0)
	if s.Bits < 32 {
		mask <<= uint(32 - s.Bits)
	}
	if s.Bits == 0 {
		mask = 0
	}
	match := addr.Uint32()&mask == s.Base.Uint32()&mask
	if s.Negate {
		return !match
	}
	return match
}

// PortSpec matches a port: any, an exact port, or an inclusive range.
type PortSpec struct {
	Any    bool
	Negate bool
	Lo, Hi uint16
}

// Matches reports whether port satisfies the spec.
func (s PortSpec) Matches(port uint16) bool {
	if s.Any {
		return true
	}
	match := port >= s.Lo && port <= s.Hi
	if s.Negate {
		return !match
	}
	return match
}

// ContentMatch is one content option: a byte pattern that must occur in the
// packet payload, optionally case-insensitively and within offset/depth
// bounds.
type ContentMatch struct {
	Bytes  []byte
	NoCase bool
	// Offset is where searching starts (0 = beginning of payload).
	Offset int
	// Depth bounds how far past Offset the match may end; 0 = unbounded.
	Depth int
}

// Rule is a parsed Snort-subset rule.
type Rule struct {
	Action   Action
	Proto    Proto
	Src      AddrSpec
	SrcPort  PortSpec
	Dst      AddrSpec
	DstPort  PortSpec
	Bidir    bool // "<>" direction operator
	Msg      string
	SID      int
	Rev      int
	Contents []ContentMatch
}

// ErrNotARule is returned for blank lines and comments.
var ErrNotARule = errors.New("idps: not a rule")

// ParseRule parses a single rule line, e.g.:
//
//	alert tcp any any -> 10.8.0.0/16 80 (msg:"demo"; content:"attack"; nocase; sid:1; rev:1;)
//
// Supported subset: actions alert/drop/pass; protocols ip/tcp/udp/icmp;
// addresses any, A.B.C.D, A.B.C.D/bits, with ! negation; ports any, N,
// Lo:Hi, with ! negation; options msg, content (with |hex| escapes),
// nocase, offset, depth, sid, rev, classtype (ignored), priority (ignored).
func ParseRule(line string) (*Rule, error) {
	line = strings.TrimSpace(line)
	if line == "" || strings.HasPrefix(line, "#") {
		return nil, ErrNotARule
	}
	open := strings.IndexByte(line, '(')
	if open < 0 || !strings.HasSuffix(line, ")") {
		return nil, fmt.Errorf("idps: missing option block in %q", line)
	}
	var header [7]string
	fields := 0
	for f := range strings.FieldsSeq(line[:open]) {
		if fields < len(header) {
			header[fields] = f
		}
		fields++
	}
	if fields != len(header) {
		return nil, fmt.Errorf("idps: header needs 7 fields, got %d in %q", fields, line)
	}

	r := &Rule{Rev: 1}
	switch header[0] {
	case "alert":
		r.Action = ActionAlert
	case "drop":
		r.Action = ActionDrop
	case "pass":
		r.Action = ActionPass
	default:
		return nil, fmt.Errorf("idps: unknown action %q", header[0])
	}
	switch header[1] {
	case "ip", "any":
		r.Proto = ProtoAny
	case "tcp":
		r.Proto = ProtoTCP
	case "udp":
		r.Proto = ProtoUDP
	case "icmp":
		r.Proto = ProtoICMP
	default:
		return nil, fmt.Errorf("idps: unknown protocol %q", header[1])
	}

	var err error
	if r.Src, err = parseAddrSpec(header[2]); err != nil {
		return nil, err
	}
	if r.SrcPort, err = parsePortSpec(header[3]); err != nil {
		return nil, err
	}
	switch header[4] {
	case "->":
	case "<>":
		r.Bidir = true
	default:
		return nil, fmt.Errorf("idps: bad direction %q", header[4])
	}
	if r.Dst, err = parseAddrSpec(header[5]); err != nil {
		return nil, err
	}
	if r.DstPort, err = parsePortSpec(header[6]); err != nil {
		return nil, err
	}

	if err := r.parseOptions(line[open+1 : len(line)-1]); err != nil {
		return nil, err
	}
	if r.SID == 0 {
		return nil, fmt.Errorf("idps: rule missing sid: %q", line)
	}
	return r, nil
}

func parseAddrSpec(s string) (AddrSpec, error) {
	var spec AddrSpec
	if strings.HasPrefix(s, "!") {
		spec.Negate = true
		s = s[1:]
	}
	if s == "any" {
		if spec.Negate {
			return AddrSpec{}, errors.New("idps: !any never matches")
		}
		spec.Any = true
		return spec, nil
	}
	bits := 32
	if i := strings.IndexByte(s, '/'); i >= 0 {
		n, err := strconv.Atoi(s[i+1:])
		if err != nil || n < 0 || n > 32 {
			return AddrSpec{}, fmt.Errorf("idps: bad prefix length in %q", s)
		}
		bits = n
		s = s[:i]
	}
	addr, err := packet.ParseAddr(s)
	if err != nil {
		return AddrSpec{}, fmt.Errorf("idps: %w", err)
	}
	spec.Base = addr
	spec.Bits = bits
	return spec, nil
}

func parsePortSpec(s string) (PortSpec, error) {
	var spec PortSpec
	if strings.HasPrefix(s, "!") {
		spec.Negate = true
		s = s[1:]
	}
	if s == "any" {
		if spec.Negate {
			return PortSpec{}, errors.New("idps: !any never matches")
		}
		spec.Any = true
		return spec, nil
	}
	lo, hi := s, s
	if i := strings.IndexByte(s, ':'); i >= 0 {
		lo, hi = s[:i], s[i+1:]
		if lo == "" {
			lo = "0"
		}
		if hi == "" {
			hi = "65535"
		}
	}
	l, err := strconv.ParseUint(lo, 10, 16)
	if err != nil {
		return PortSpec{}, fmt.Errorf("idps: bad port in %q", s)
	}
	h, err := strconv.ParseUint(hi, 10, 16)
	if err != nil {
		return PortSpec{}, fmt.Errorf("idps: bad port in %q", s)
	}
	if l > h {
		return PortSpec{}, fmt.Errorf("idps: inverted port range %q", s)
	}
	spec.Lo, spec.Hi = uint16(l), uint16(h)
	return spec, nil
}

// parseOptions handles the parenthesised option list. Options are
// semicolon-terminated; values may be quoted strings containing |hex|
// escapes. Options are sliced out of s in place and the rule's content
// patterns share one buffer, so a rule costs a fixed few allocations.
func (r *Rule) parseOptions(s string) error {
	var pats []byte // every content's bytes, decoded from disjoint parts of s
	if n := strings.Count(s, "content:"); n > 0 {
		r.Contents = make([]ContentMatch, 0, n)
		pats = make([]byte, 0, len(s))
	}
	for rest := s; rest != ""; {
		var opt string
		opt, rest = cutOption(rest)
		key, val := opt, ""
		if i := strings.IndexByte(opt, ':'); i >= 0 {
			key, val = strings.TrimSpace(opt[:i]), strings.TrimSpace(opt[i+1:])
		}
		switch key {
		case "msg":
			r.Msg = unquote(val)
		case "content":
			start := len(pats)
			var err error
			if pats, err = appendContent(pats, unquote(val)); err != nil {
				return err
			}
			r.Contents = append(r.Contents, ContentMatch{Bytes: pats[start:len(pats):len(pats)]})
		case "nocase":
			if len(r.Contents) == 0 {
				return errors.New("idps: nocase before any content")
			}
			r.Contents[len(r.Contents)-1].NoCase = true
		case "offset":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return fmt.Errorf("idps: bad offset %q", val)
			}
			if len(r.Contents) == 0 {
				return errors.New("idps: offset before any content")
			}
			r.Contents[len(r.Contents)-1].Offset = n
		case "depth":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return fmt.Errorf("idps: bad depth %q", val)
			}
			if len(r.Contents) == 0 {
				return errors.New("idps: depth before any content")
			}
			r.Contents[len(r.Contents)-1].Depth = n
		case "sid":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return fmt.Errorf("idps: bad sid %q", val)
			}
			r.SID = n
		case "rev":
			n, err := strconv.Atoi(val)
			if err != nil || n <= 0 {
				return fmt.Errorf("idps: bad rev %q", val)
			}
			r.Rev = n
		case "classtype", "priority", "metadata", "reference":
			// Accepted and ignored: present in community rules but not
			// needed for matching.
		case "":
			// trailing semicolon
		default:
			return fmt.Errorf("idps: unsupported option %q", key)
		}
	}
	return nil
}

// cutOption returns the first option of s, trimmed, and what follows its
// terminating semicolon; semicolons inside quoted strings do not terminate.
func cutOption(s string) (opt, rest string) {
	inStr, escape := false, false
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case escape:
			escape = false
		case c == '\\' && inStr:
			escape = true
		case c == '"':
			inStr = !inStr
		case c == ';' && !inStr:
			return strings.TrimSpace(s[:i]), s[i+1:]
		}
	}
	return strings.TrimSpace(s), ""
}

func unquote(s string) string {
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		s = s[1 : len(s)-1]
	}
	return strings.ReplaceAll(s, `\"`, `"`)
}

// appendContent decodes a Snort content string with |48 65 78| hex escapes
// onto dst.
func appendContent(dst []byte, s string) ([]byte, error) {
	start := len(dst)
	for i := 0; i < len(s); {
		if s[i] != '|' {
			dst = append(dst, s[i])
			i++
			continue
		}
		end := strings.IndexByte(s[i+1:], '|')
		if end < 0 {
			return nil, fmt.Errorf("idps: unterminated hex escape in %q", s)
		}
		for hx := range strings.FieldsSeq(s[i+1 : i+1+end]) {
			b, err := strconv.ParseUint(hx, 16, 8)
			if err != nil {
				return nil, fmt.Errorf("idps: bad hex byte %q in %q", hx, s)
			}
			dst = append(dst, byte(b))
		}
		i += end + 2
	}
	if len(dst) == start {
		return nil, fmt.Errorf("idps: empty content in %q", s)
	}
	return dst, nil
}

// ParseRules parses a rule file, skipping comments and blank lines.
func ParseRules(text string) ([]*Rule, error) {
	var rules []*Rule
	lineNo := 0
	for line := range strings.SplitSeq(text, "\n") {
		lineNo++
		r, err := ParseRule(line)
		if errors.Is(err, ErrNotARule) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		rules = append(rules, r)
	}
	return rules, nil
}

// String renders the rule back in Snort syntax (canonical form, losing
// ignored options).
func (r *Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Action.String())
	b.WriteByte(' ')
	b.WriteString(r.Proto.String())
	b.WriteByte(' ')
	writeAddr := func(a AddrSpec) {
		if a.Negate {
			b.WriteByte('!')
		}
		if a.Any {
			b.WriteString("any")
			return
		}
		fmt.Fprintf(&b, "%s/%d", a.Base, a.Bits)
	}
	writePort := func(p PortSpec) {
		if p.Negate {
			b.WriteByte('!')
		}
		switch {
		case p.Any:
			b.WriteString("any")
		case p.Lo == p.Hi:
			fmt.Fprintf(&b, "%d", p.Lo)
		default:
			fmt.Fprintf(&b, "%d:%d", p.Lo, p.Hi)
		}
	}
	writeAddr(r.Src)
	b.WriteByte(' ')
	writePort(r.SrcPort)
	if r.Bidir {
		b.WriteString(" <> ")
	} else {
		b.WriteString(" -> ")
	}
	writeAddr(r.Dst)
	b.WriteByte(' ')
	writePort(r.DstPort)
	fmt.Fprintf(&b, " (msg:%q; ", r.Msg)
	for _, c := range r.Contents {
		fmt.Fprintf(&b, "content:%q; ", escapeContent(c.Bytes))
		if c.NoCase {
			b.WriteString("nocase; ")
		}
		if c.Offset > 0 {
			fmt.Fprintf(&b, "offset:%d; ", c.Offset)
		}
		if c.Depth > 0 {
			fmt.Fprintf(&b, "depth:%d; ", c.Depth)
		}
	}
	fmt.Fprintf(&b, "sid:%d; rev:%d;)", r.SID, r.Rev)
	return b.String()
}

func escapeContent(p []byte) string {
	var b strings.Builder
	for _, c := range p {
		if c >= 0x20 && c < 0x7f && c != '|' && c != '"' && c != '\\' {
			b.WriteByte(c)
			continue
		}
		fmt.Fprintf(&b, "|%02X|", c)
	}
	return b.String()
}
