// Chaos: surviving a bad configuration. A fleet of four clients runs a
// known-good pipeline; the operator then stages an update whose element
// panics on the 3rd packet — arbitrary user code gone wrong — as a
// health-gated canary to half the fleet. Live traffic trips the fault:
// the panics are contained in the enclave (never crashing the client),
// the element is quarantined after three strikes, the client reports
// unhealthy over the sealed channel and self-reverts, and the server
// automatically rolls the cohort back to the last-known-good
// configuration. The other half of the fleet never sees the bad version.
//
// Everything here is deterministic — the same seeded scenario the CI
// chaos suite runs under -race (DESIGN.md "Failure domains").
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"endbox"
	"endbox/internal/netsim"
	"endbox/internal/packet"
	"endbox/mbox"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// The chaos element ("Faulty") is a normal registered element class —
	// the point is that ANY element, including user-registered ones, gets
	// the same containment.
	netsim.RegisterFaulty()

	deployment, err := endbox.New(
		endbox.WithEchoNetwork(),
		endbox.WithObserver(endbox.ObserverFuncs{
			OnFault: func(clientID string, f endbox.ElementFault) {
				if f.Quarantined {
					fmt.Printf("  [%s] element %s QUARANTINED after repeated panics\n", clientID, f.Element)
				} else {
					fmt.Printf("  [%s] panic contained in element %s: %v\n", clientID, f.Element, f.Err)
				}
			},
			OnUpdateError: func(clientID string, version uint64, err error) {
				fmt.Printf("  [%s] nacked v%d: %v\n", clientID, version, err)
			},
		}),
	)
	if err != nil {
		return err
	}
	defer deployment.Close()

	clients := make([]*endbox.Client, 4)
	for i := range clients {
		id := fmt.Sprintf("edge-%d", i)
		clients[i], err = deployment.AddClient(ctx, id, endbox.ClientSpec{Mode: endbox.ModeSimulation, Pipeline: mbox.Stock(endbox.UseCaseNOP)})
		if err != nil {
			return err
		}
	}
	fmt.Println("fleet of 4 clients attested and connected")

	// v1 is the known-good configuration — the rollback point the canary
	// machinery requires before it stages anything.
	if _, err := deployment.Rollout(ctx, endbox.Rollout{
		Version:  1,
		Pipeline: mbox.Stock(endbox.UseCaseNOP),
	}); err != nil {
		return err
	}
	fmt.Println("v1 (known-good) published and applied fleet-wide")

	// Stage the broken update as a canary to half the fleet. RolloutCanary
	// blocks until the cohort is judged, so drive traffic from a goroutine:
	// the panics only happen when packets actually flow.
	go func() {
		src, dst := packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1)
		for i := 1; i <= 6; i++ {
			time.Sleep(100 * time.Millisecond)
			err := clients[0].SendPacket(packet.NewUDP(src, dst, 40000, 80, []byte("live traffic")))
			fmt.Printf("  [edge-0] packet %d: err=%v\n", i, err)
		}
	}()

	fmt.Println("staging v2 (panics on the 3rd packet) as a canary to 50% of the fleet...")
	res, err := deployment.RolloutCanary(ctx, endbox.CanaryRollout{
		Rollout: endbox.Rollout{
			Version:  2,
			Pipeline: mbox.Raw("FromDevice -> Faulty(PANIC 3) -> ToDevice;"),
		},
		Fraction: 0.5,
		Deadline: 30 * time.Second,
	})
	if err != nil {
		return err
	}

	if res.RolledBack {
		fmt.Printf("canary v2 auto-rolled-back: %s\n", res.Reason)
		fmt.Printf("last-known-good content republished as v%d to the cohort %v\n",
			res.RollbackVersion, res.Canary)
	} else {
		fmt.Println("unexpected: broken canary was promoted") // never happens
	}

	for i, c := range clients {
		fmt.Printf("  edge-%d: running v%d\n", i, c.AppliedVersion())
	}

	// The quarantined pipeline is gone; the cohort processes traffic again.
	if err := clients[0].SendPacket(packet.NewUDP(
		packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 40000, 80, []byte("healed"))); err != nil {
		return fmt.Errorf("post-rollback traffic: %w", err)
	}
	fmt.Println("cohort self-healed: traffic flows on the restored configuration")
	return nil
}
