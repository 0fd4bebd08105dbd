// Quickstart: the smallest complete EndBox system — one server-side
// deployment (IAS, CA, VPN server, config server) and one client whose
// enclave runs a firewall. Traffic that violates the firewall never leaves
// the client machine; everything else reaches the managed network through
// the encrypted tunnel.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"endbox"
	"endbox/internal/packet"
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

	// The operator side: attestation service, CA, VPN + config servers.
	// The observer watches packets the managed network accepts.
	deployment, err := endbox.New(
		endbox.WithObserver(endbox.ObserverFuncs{
			OnDelivered: func(clientID string, ip []byte) {
				p, err := packet.ParseIPv4(ip)
				if err != nil {
					return
				}
				fmt.Printf("  network received from %s: %s -> %s (%d bytes)\n",
					clientID, p.Src, p.Dst, len(ip))
			},
		}),
	)
	if err != nil {
		return err
	}
	defer deployment.Close()

	// One client machine. AddClient creates its enclave, runs remote
	// attestation against the CA, provisions keys, and connects the VPN.
	client, err := deployment.AddClient(ctx, "laptop-1", endbox.ClientSpec{
		Mode: endbox.ModeSimulation,
		Pipeline: mbox.Raw(`
FromDevice
  -> fw :: IPFilter(drop dst host 203.0.113.66, allow all)
  -> ToDevice;
`),
	})
	if err != nil {
		return err
	}
	fmt.Println("client attested, enrolled and connected")

	src := packet.AddrFrom(10, 8, 0, 2)

	// Allowed traffic flows through the enclave firewall to the network.
	ok := packet.NewUDP(src, packet.AddrFrom(192, 0, 2, 10), 40000, 80, []byte("hello"))
	if err := client.SendPacket(ok); err != nil {
		return fmt.Errorf("allowed packet failed: %w", err)
	}
	fmt.Println("allowed packet delivered")

	// Traffic matching the drop rule is rejected inside the enclave; it
	// never reaches the wire.
	blocked := packet.NewUDP(src, packet.AddrFrom(203, 0, 113, 66), 40000, 80, []byte("exfil"))
	err = client.SendPacket(blocked)
	if !errors.Is(err, vpn.ErrDropped) {
		return fmt.Errorf("expected firewall drop, got %v", err)
	}
	fmt.Printf("blocked packet rejected by the in-enclave firewall: %v\n", err)

	fmt.Printf("middlebox configuration version: %d\n", client.AppliedVersion())
	return nil
}
