package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"

	"endbox/internal/idps"
	"endbox/internal/packet"
)

// inputs is everything a workload feeds the program under test, generated
// from the seed alone: the same seed gives the same bytes in the same order.
type inputs struct {
	// pools[i] is client i's packet stream; the generator walks it in
	// order, wrapping around. Each packet carries its pool index in the IP
	// identification field, so a delivered packet names the bytes that
	// were sent.
	pools [][][]byte
	// crafted[i][k] reports whether pools[i][k] was built to hit exactly
	// one IDS alert rule.
	crafted [][]bool
	// canary matches stock firewall rule 1 (src 203.0.113.1, dst port
	// 6000) and must be dropped inside the enclave.
	canary []byte
}

var canarySrc = packet.AddrFrom(203, 0, 113, 1)

const canaryDstPort = 6000

// clientAddr is the tunnel address the deployment hands the i-th client.
func clientAddr(i int) packet.Addr { return packet.AddrFrom(10, 8, 0, byte(2+i)) }

func generateInputs(w workload, seed int64, clients int) (*inputs, error) {
	in := &inputs{}
	var alert *alertShape
	if w.craftEvery > 0 {
		a, err := findAlertRule()
		if err != nil {
			return nil, err
		}
		alert = a
	}
	var sizeTable []int
	for _, s := range w.sizes {
		for k := 0; k < s.share; k++ {
			sizeTable = append(sizeTable, s.size)
		}
	}
	for c := 0; c < clients; c++ {
		// One independent stream per client, so client i's packets do not
		// depend on how many clients the host's core count allows.
		rnd := rand.New(rand.NewSource(seed*1_000_003 + int64(c)))
		type tuple struct {
			dst              packet.Addr
			srcPort, dstPort uint16
		}
		flows := make([]tuple, w.flows)
		for f := range flows {
			flows[f] = tuple{
				dst:     packet.AddrFrom(10, byte(16+rnd.Intn(16)), byte(rnd.Intn(256)), byte(1+rnd.Intn(254))),
				srcPort: uint16(20000 + rnd.Intn(20000)),
				dstPort: uint16(1024 + rnd.Intn(4000)), // below the firewall rules' 6000+
			}
		}
		pool := make([][]byte, packetsPerCli)
		crafted := make([]bool, packetsPerCli)
		for k := range pool {
			fl := flows[rnd.Intn(len(flows))]
			size := sizeTable[rnd.Intn(len(sizeTable))]
			var raw []byte
			if alert != nil && k%w.craftEvery == w.craftEvery-1 {
				raw = packet.NewUDP(clientAddr(c), fl.dst, alert.srcPort, alert.dstPort, alert.payload)
				crafted[k] = true
			} else {
				payload := make([]byte, size-packet.IPv4HeaderLen-packet.UDPHeaderLen)
				rnd.Read(payload)
				raw = packet.NewUDP(clientAddr(c), fl.dst, fl.srcPort, fl.dstPort, payload)
			}
			if err := setIPID(raw, uint16(k)); err != nil {
				return nil, err
			}
			pool[k] = raw
		}
		in.pools = append(in.pools, pool)
		in.crafted = append(in.crafted, crafted)
	}
	in.canary = packet.NewUDP(canarySrc, packet.AddrFrom(10, 16, 0, 1), 40000, canaryDstPort, make([]byte, 36))
	return in, nil
}

// setIPID rewrites the identification field and the header checksum.
func setIPID(raw []byte, id uint16) error {
	var p packet.IPv4
	if err := p.Parse(raw); err != nil {
		return fmt.Errorf("generated packet does not parse: %w", err)
	}
	p.ID = id
	p.MarshalTo(raw)
	return nil
}

// digest is a fingerprint of the whole generated packet stream, used to
// show that a seed determines the inputs.
func (in *inputs) digest() string {
	h := sha256.New()
	var n [4]byte
	for _, pool := range in.pools {
		for _, p := range pool {
			binary.BigEndian.PutUint32(n[:], uint32(len(p)))
			h.Write(n[:])
			h.Write(p)
		}
	}
	h.Write(in.canary)
	return hex.EncodeToString(h.Sum(nil))
}

// alertShape is a UDP packet shape that makes exactly one community alert
// rule fire.
type alertShape struct {
	srcPort, dstPort uint16
	payload          []byte
}

// findAlertRule picks the community set's first UDP alert rule whose port
// constraints can be met and builds the payload from its content patterns.
// The generator's content tokens are unique per rule, so no other rule
// matches the packet.
func findAlertRule() (*alertShape, error) {
	rules, err := idps.ParseRules(idps.GenerateRuleSet(idps.CommunityRuleCount, 2018))
	if err != nil {
		return nil, err
	}
	satisfy := func(spec idps.PortSpec) (uint16, bool) {
		for _, p := range []uint16{40000, 80, 443, 25, 53, 110, 143, 8080} {
			if spec.Matches(p) {
				return p, true
			}
		}
		return 0, false
	}
	for _, r := range rules {
		if r.Action != idps.ActionAlert || r.Proto != idps.ProtoUDP || len(r.Contents) == 0 {
			continue
		}
		sp, ok1 := satisfy(r.SrcPort)
		dp, ok2 := satisfy(r.DstPort)
		if !ok1 || !ok2 {
			continue
		}
		var payload []byte
		for _, c := range r.Contents {
			if c.Offset != 0 || c.Depth != 0 {
				payload = nil
				break
			}
			payload = append(payload, c.Bytes...)
		}
		if payload == nil {
			continue
		}
		return &alertShape{srcPort: sp, dstPort: dp, payload: payload}, nil
	}
	return nil, fmt.Errorf("community rule set has no satisfiable UDP alert rule")
}
