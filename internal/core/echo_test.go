package core

import (
	"bytes"
	"testing"

	"endbox/internal/packet"
	"endbox/internal/wire"
)

// referenceEcho is the echo as deliver built it before the pooled version:
// Clone, swap, rebuild an ICMP echo request as a reply, Marshal. Nil when
// the packet does not parse (deliver echoes nothing then).
func referenceEcho(ip []byte) []byte {
	p, err := packet.ParseIPv4(ip)
	if err != nil {
		return nil
	}
	echo := p.Clone()
	echo.Src, echo.Dst = p.Dst, p.Src
	if echo.Protocol == packet.ProtoICMP {
		if icmp, err := packet.ParseICMP(echo.Payload); err == nil && icmp.Type == packet.ICMPEchoRequest {
			icmp.Type = packet.ICMPEchoReply
			echo.Payload = icmp.Marshal()
		}
	}
	return echo.Marshal()
}

// pooledEcho runs echoOf the way deliver does and copies the result out of
// the pooled buffer.
func pooledEcho(ip []byte) []byte {
	var p packet.IPv4
	if err := p.Parse(ip); err != nil {
		return nil
	}
	echo := echoOf(p)
	defer wire.PutBuffer(echo)
	return append([]byte{}, echo...)
}

// checkEcho compares the two constructions byte for byte and checks that
// the input — which PacketDelivered observers still hold — was only read.
func checkEcho(t *testing.T, ip []byte) {
	t.Helper()
	before := append([]byte(nil), ip...)
	want := referenceEcho(ip)
	got := pooledEcho(ip)
	if !bytes.Equal(got, want) {
		t.Errorf("pooled echo differs from reference\n in   %x\n got  %x\n want %x", ip, got, want)
	}
	if !bytes.Equal(ip, before) {
		t.Errorf("echo wrote to its input\n was %x\n now %x", before, ip)
	}
}

// withIPv4 re-serialises a built packet after edit changed its header.
func withIPv4(t testing.TB, raw []byte, edit func(*packet.IPv4)) []byte {
	t.Helper()
	p, err := packet.ParseIPv4(raw)
	if err != nil {
		t.Fatal(err)
	}
	edit(p)
	return p.Marshal()
}

// echoCases are the packets the equivalence is pinned on; they also seed
// the fuzz target.
func echoCases(t testing.TB) map[string][]byte {
	src, dst := packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1)
	udp := packet.NewUDP(src, dst, 40000, 53, []byte("query"))
	request := packet.NewICMPEcho(src, dst, packet.ICMPEchoRequest, 7, 3, []byte("ping payload!"))
	badSum := append([]byte(nil), udp...)
	badSum[10] ^= 0xff
	badICMPSum := append([]byte(nil), request...)
	badICMPSum[len(badICMPSum)-1] ^= 0x01
	return map[string][]byte{
		"udp":          udp,
		"tcp":          packet.NewTCP(src, dst, 40001, 443, 1000, 2000, packet.TCPPsh|packet.TCPAck, []byte("GET / HTTP/1.1\r\n")),
		"ip-options":   withIPv4(t, udp, func(p *packet.IPv4) { p.Options = []byte{0x94, 0x04, 0x00, 0x00, 0x01, 0x01, 0x01, 0x00} }),
		"icmp-request": request,
		"icmp-reply":   packet.NewICMPEcho(src, dst, packet.ICMPEchoReply, 7, 3, []byte("pong")),
		"icmp-odd-len": packet.NewICMPEcho(src, dst, packet.ICMPEchoRequest, 1, 1, []byte("odd")),
		"icmp-bad-sum": badICMPSum,
		"tos-eb":       withIPv4(t, udp, func(p *packet.IPv4) { p.TOS = packet.ProcessedTOS }),
		"fragment":     withIPv4(t, udp, func(p *packet.IPv4) { p.Flags, p.FragOff, p.ID = packet.FlagMF, 185, 0xbeef }),
		"bad-checksum": badSum,
		"trailing":     append(append([]byte(nil), udp...), 0xde, 0xad, 0xbe, 0xef),
		"truncated":    udp[:12],
	}
}

// TestEchoMatchesReference pins the pooled echo to the Clone/Marshal
// construction it replaced: same bytes on the wire, input untouched.
func TestEchoMatchesReference(t *testing.T) {
	cases := echoCases(t)
	for name, ip := range cases {
		t.Run(name, func(t *testing.T) { checkEcho(t, ip) })
	}
	// The cases must exercise what they are named for.
	if got := pooledEcho(cases["icmp-request"]); got[20] != packet.ICMPEchoReply || packet.Checksum(got[20:]) != 0 {
		t.Errorf("ICMP echo request not answered with a valid reply: %x", got)
	}
	if got := pooledEcho(cases["icmp-bad-sum"]); got[20] != packet.ICMPEchoRequest {
		t.Errorf("a request with a bad ICMP checksum was rewritten: %x", got)
	}
	if got := pooledEcho(cases["bad-checksum"]); got != nil {
		t.Errorf("a packet with a wrong header checksum was echoed: %x", got)
	}
	if got, in := pooledEcho(cases["trailing"]), cases["trailing"]; len(got) != len(in)-4 {
		t.Errorf("echo of a %d-byte slice holding a %d-byte packet is %d bytes", len(in), len(in)-4, len(got))
	}
}

// FuzzEchoMatchesReference holds the equivalence on arbitrary input.
func FuzzEchoMatchesReference(f *testing.F) {
	for _, ip := range echoCases(f) {
		f.Add(ip)
	}
	f.Fuzz(func(t *testing.T, ip []byte) { checkEcho(t, ip) })
}
