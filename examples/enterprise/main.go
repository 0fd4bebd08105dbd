// Enterprise scenario (paper §II-A, Scenario 1): a company offloads its
// firewall and intrusion detection to employee machines. Configurations
// are encrypted so employees cannot read the IDPS rules; updates roll out
// centrally with a grace period, after which stale clients are blocked;
// and a client that tries to roll its configuration back is rejected by
// the enclave's version check.
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

	var alerts int
	deployment, err := endbox.New(
		// Enterprise: rule sets are confidential — encrypt configurations
		// with the key provisioned into attested enclaves only.
		endbox.WithEncryptedConfigs(),
		// The SOC watches alerts from every employee enclave.
		endbox.WithObserver(endbox.ObserverFuncs{
			OnAlert: func(clientID string, a endbox.Alert) {
				alerts++
				fmt.Printf("  [SOC alert] %s sid=%d %s\n", clientID, a.SID, a.Msg)
			},
		}),
	)
	if err != nil {
		return err
	}
	defer deployment.Close()

	employee, err := deployment.AddClient(ctx, "workstation-7", endbox.ClientSpec{
		Mode:     endbox.ModeSimulation,
		Pipeline: mbox.Stock(endbox.UseCaseIDPS),
	})
	if err != nil {
		return err
	}
	fmt.Println("employee workstation attested and connected (IDPS active)")

	src := packet.AddrFrom(10, 8, 0, 2)
	intranet := packet.AddrFrom(10, 0, 5, 20)

	// Normal work traffic passes the community rule set.
	if err := employee.SendPacket(packet.NewTCP(src, intranet, 40000, 443, 1, 0,
		packet.TCPAck, []byte("GET /wiki HTTP/1.1"))); err != nil {
		return fmt.Errorf("work traffic blocked: %w", err)
	}
	fmt.Println("work traffic flows")

	// The security team pushes an updated configuration: now also a
	// firewall clause quarantining a compromised subnet. Version 1,
	// 30-second grace period.
	fmt.Println("\nadmin publishes configuration v1 (quarantine 10.0.66.0/24, grace 30s)")
	_, err = deployment.Rollout(ctx, endbox.Rollout{
		Version:      1,
		GraceSeconds: 30,
		Pipeline: mbox.Raw(`
FromDevice
  -> quarantine :: IPFilter(drop dst net 10.0.66.0/24, allow all)
  -> ids :: IDSMatcher(RULESET community)
  -> ToDevice;
`),
	})
	if err != nil {
		return err
	}
	// The in-band ping announced the version; the client fetched the
	// encrypted blob, decrypted it inside the enclave and hot-swapped.
	fmt.Printf("client now at configuration v%d\n", employee.AppliedVersion())

	// The quarantined subnet is unreachable from this machine.
	err = employee.SendPacket(packet.NewTCP(src, packet.AddrFrom(10, 0, 66, 9),
		40000, 445, 1, 0, packet.TCPAck, []byte("lateral movement attempt")))
	if !errors.Is(err, vpn.ErrDropped) {
		return fmt.Errorf("quarantine not enforced: %v", err)
	}
	fmt.Println("traffic into the quarantined subnet dropped on the client")

	// A malicious host replays the old (version 0) configuration blob?
	// There is none on the config server, and the enclave rejects any
	// version <= the applied one — demonstrated by re-applying v1.
	blob, err := deployment.Server.Configs().Fetch(1)
	if err != nil {
		return err
	}
	if _, err := employee.ApplyUpdateBlob(blob); err == nil {
		return errors.New("rollback/replay unexpectedly accepted")
	} else {
		fmt.Printf("configuration replay rejected inside the enclave: %v\n", err)
	}

	// Work traffic still flows under v1.
	if err := employee.SendPacket(packet.NewTCP(src, intranet, 40000, 443, 2, 0,
		packet.TCPAck, []byte("GET /wiki/page2 HTTP/1.1"))); err != nil {
		return fmt.Errorf("post-update work traffic blocked: %w", err)
	}
	fmt.Println("work traffic still flows under v1")
	fmt.Printf("\nalerts raised this session: %d\n", alerts)
	return nil
}
