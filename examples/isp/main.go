// ISP scenario (paper §II-A, Scenario 2): an Internet service provider
// deploys EndBox on subscribing customers' machines to stop malware and
// DDoS floods at their source. Customers opted in, so the data channel
// uses integrity-only protection (+11% throughput, paper §IV-A) and
// configurations are published unencrypted so customers can inspect the
// rules. A DDoS flood from an infected machine is throttled by the
// in-enclave TrustedSplitter before it ever reaches the ISP network.
package main

import (
	"context"
	"fmt"
	"log"

	"endbox"
	"endbox/internal/packet"
	"endbox/internal/trace"
	"endbox/mbox"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	var deliveredBytes int
	deployment, err := endbox.New(
		// ISP mode: integrity-only channel, inspectable (plaintext)
		// configurations.
		endbox.WithWireMode(endbox.WireIntegrityOnly),
		endbox.WithObserver(endbox.ObserverFuncs{
			OnDelivered: func(_ string, ip []byte) { deliveredBytes += len(ip) },
		}),
	)
	if err != nil {
		return err
	}
	defer deployment.Close()

	// The subscriber's middlebox: DPI over the community rules, then a
	// tight traffic shaper (64 kbit/s here, so the flood visibly clips;
	// sampling trusted time every 64 packets).
	subscriber, err := deployment.AddClient(ctx, "subscriber-42", endbox.ClientSpec{
		Mode: endbox.ModeSimulation,
		Pipeline: mbox.Raw(`
FromDevice
  -> ids :: IDSMatcher(RULESET community)
  -> shaper :: TrustedSplitter(RATE 64k, BURST 8000, SAMPLE 64)
  -> ToDevice;
`),
	})
	if err != nil {
		return err
	}
	fmt.Println("subscriber attested and connected (integrity-only channel)")

	src := packet.AddrFrom(10, 8, 0, 2)
	victim := packet.AddrFrom(198, 51, 100, 80)

	// Malware on the subscriber machine floods a victim: 500 identical
	// 512-byte packets offered as one batch (a single enclave crossing).
	// The shaper's budget is 8 kB, so roughly 15 get through and the rest
	// die on the client.
	flood := trace.Flood(src, victim, 500, 512)
	sent, _ := subscriber.SendPackets(flood)
	dropped := len(flood) - sent
	fmt.Printf("flood of %d packets: %d forwarded, %d throttled at the source\n",
		len(flood), sent, dropped)
	if dropped == 0 {
		return fmt.Errorf("shaper did not throttle the flood")
	}
	fmt.Printf("bytes that reached the ISP network: %d (of %d offered)\n",
		deliveredBytes, len(flood)*512)

	// Legitimate browsing from the same machine still works: different
	// traffic, same budget — the shaper throttles volume, the IDPS flags
	// signatures; a normal page fetch after the flood clears is fine once
	// tokens refill (here we simply show the channel is alive).
	fmt.Println("\nsubscriber's view: configurations are plaintext and inspectable:")
	fmt.Printf("  active version: %d\n", subscriber.AppliedVersion())
	return nil
}
