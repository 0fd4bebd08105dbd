// TLS inspection (paper §III-D): EndBox analyses encrypted traffic without
// man-in-the-middle proxies or protocol changes. Applications link against
// a modified TLS library that forwards each negotiated session key to the
// enclave over the management interface; a Click element decrypts records
// in flight so deep packet inspection sees plaintext. Applications using a
// stock TLS library keep working — their traffic simply passes uninspected.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"endbox"
	"endbox/internal/packet"
	"endbox/internal/tlstap"
	"endbox/internal/vpn"
	"endbox/mbox"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	deployment, err := endbox.New()
	if err != nil {
		return err
	}
	defer deployment.Close()

	client, err := deployment.AddClient(ctx, "desktop-3", endbox.ClientSpec{
		Mode: endbox.ModeSimulation,
		Pipeline: mbox.Raw(`
FromDevice
  -> tls :: TLSDecrypt(PORT 443)
  -> ids :: IDSMatcher(RULESET dlp, MODE enforce)
  -> ToDevice;
`),
		ExtraRuleSets: map[string]string{
			// A data-leak-prevention rule: block documents marked
			// CONFIDENTIAL from leaving the company, even over TLS.
			"dlp": `drop tcp any any -> any 443 (msg:"DLP: confidential document"; content:"CONFIDENTIAL"; sid:4001;)`,
		},
	})
	if err != nil {
		return err
	}
	fmt.Println("client connected; DLP over TLS active")

	src := packet.AddrFrom(10, 8, 0, 2)
	cloud := packet.AddrFrom(93, 184, 216, 34)
	flow := packet.Flow{Src: src, SrcPort: 40000, Dst: cloud, DstPort: 443, Protocol: packet.ProtoTCP}

	// The application's TLS library forwards its session keys into the
	// enclave — a one-line change to OpenSSL in the paper.
	lib := tlstap.NewClientLibrary(func(f packet.Flow, k tlstap.SessionKey) {
		if err := client.ForwardTLSKey(f, k); err != nil {
			log.Printf("key forwarding failed: %v", err)
		}
	})
	if _, err := lib.Handshake(flow); err != nil {
		return err
	}
	fmt.Println("TLS session established, key escrowed to the enclave")

	upload := func(doc string) error {
		rec, err := lib.Encrypt(flow, []byte(doc))
		if err != nil {
			return err
		}
		return client.SendPacket(packet.NewTCP(src, cloud, 40000, 443, 1, 0, packet.TCPAck, rec))
	}

	// An innocuous upload passes.
	if err := upload("quarterly newsletter draft"); err != nil {
		return fmt.Errorf("clean upload blocked: %w", err)
	}
	fmt.Println("ordinary encrypted upload delivered")

	// A confidential document is detected inside the TLS stream and
	// dropped before it leaves the machine.
	err = upload("CONFIDENTIAL: acquisition term sheet")
	if !errors.Is(err, vpn.ErrDropped) {
		return fmt.Errorf("DLP failed to block: %v", err)
	}
	fmt.Printf("confidential upload blocked inside the enclave: %v\n", err)

	// An application with a stock TLS library: no key escrow, traffic
	// passes through encrypted and uninspected — no connection breakage,
	// no fake certificates (unlike MITM middleboxes).
	stock := tlstap.NewClientLibrary(nil)
	flow2 := flow
	flow2.SrcPort = 40001
	if _, err := stock.Handshake(flow2); err != nil {
		return err
	}
	rec, err := stock.Encrypt(flow2, []byte("CONFIDENTIAL but unreadable to the middlebox"))
	if err != nil {
		return err
	}
	if err := client.SendPacket(packet.NewTCP(src, cloud, 40001, 443, 1, 0, packet.TCPAck, rec)); err != nil {
		return fmt.Errorf("stock-TLS traffic broken: %w", err)
	}
	fmt.Println("stock-TLS application unaffected (traffic passes encrypted, uninspected)")
	return nil
}
