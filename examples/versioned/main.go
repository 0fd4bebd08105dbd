// Fleet versioning walkthrough: two enclave builds run side by side, a
// configuration update is sealed to the new build's measurement and
// canaried to exactly that cohort — the old build cryptographically
// cannot open it and keeps its last-known-good configuration — and the
// old build is then revoked live: its sessions are evicted, and both
// fresh handshakes and ticket resume are refused with typed errors.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"endbox"
	"endbox/mbox"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	pol := endbox.NewPolicy()
	deployment, err := endbox.New(
		endbox.WithPolicy(pol),
		endbox.WithObserver(endbox.ObserverFuncs{
			OnRevoked: func(clientID, build string) {
				fmt.Printf("  [revocation] session %s (build %s) evicted\n", clientID, build)
			},
		}),
	)
	if err != nil {
		return err
	}
	defer deployment.Close()

	// Name the two builds the fleet runs. Registration order is lineage:
	// v2 supersedes v1. Each registration allowlists the build's
	// measurement with the CA, so its enclaves can attest.
	if _, err := deployment.RegisterBuild("v1", ""); err != nil {
		return err
	}
	v2meas, err := deployment.RegisterBuild("v2", "2.0.0")
	if err != nil {
		return err
	}
	fmt.Printf("registered builds: v1 (default), v2 = %s...\n", v2meas.String()[:16])

	oldSpec := endbox.ClientSpec{Mode: endbox.ModeSimulation, Pipeline: mbox.Stock(endbox.UseCaseNOP)}
	newSpec := oldSpec
	newSpec.BuildVersion = "2.0.0"
	legacy, err := deployment.AddClient(ctx, "laptop-legacy", oldSpec)
	if err != nil {
		return err
	}
	modern, err := deployment.AddClient(ctx, "laptop-modern", newSpec)
	if err != nil {
		return err
	}
	fmt.Println("both builds attested and connected")

	// A build the operator never registered cannot even enrol.
	rogueSpec := oldSpec
	rogueSpec.BuildVersion = "9.9.9-unknown"
	if _, err := deployment.AddClient(ctx, "laptop-rogue", rogueSpec); !errors.Is(err, endbox.ErrMeasurementDenied) {
		return fmt.Errorf("unregistered build admitted: %v", err)
	}
	fmt.Println("unregistered build refused at attestation (ErrMeasurementDenied)")

	// Fleet-wide baseline v1 — the last-known-good every client holds.
	allow := mbox.Chain(mbox.Firewall("allow all"))
	if _, err := deployment.Rollout(ctx, endbox.Rollout{
		Version: 1, GraceSeconds: 60, Pipeline: allow,
	}); err != nil {
		return err
	}
	waitVersion(legacy, 1)
	waitVersion(modern, 1)
	fmt.Println("baseline configuration v1 applied fleet-wide")

	// Canary configuration v2 to exactly the clients running build v2,
	// selected by attested measurement. A selector naming one measurement
	// seals the blob under v2's key: even when promotion announces it
	// fleet-wide, v1 enclaves fail with ErrSealedToOtherBuild, nack, and
	// keep last-known-good.
	res, err := deployment.RolloutCanary(ctx, endbox.CanaryRollout{
		Rollout: endbox.Rollout{
			Version:      2,
			GraceSeconds: 60,
			Pipeline:     mbox.Chain(mbox.ConnTrack(mbox.ConnTrackOptions{}), mbox.Firewall("allow all")),
			Target:       endbox.Selector{Measurements: []endbox.Measurement{v2meas}},
		},
		Fraction: 1,
		Deadline: 2 * time.Second,
	})
	if err != nil {
		return err
	}
	fmt.Printf("canary to build v2: cohort=%v promoted=%v\n", res.Canary, res.Promoted)
	waitVersion(modern, 2)
	if v := legacy.AppliedVersion(); v != 1 {
		return fmt.Errorf("sealed update leaked to build v1 (applied v%d)", v)
	}
	fmt.Println("build v2 runs configuration v2; build v1 kept last-known-good v1")

	// The old build turns out to be vulnerable: revoke it live. The CA
	// stops certifying the measurement, live v1 sessions are evicted
	// (OnRevoked fires), and neither a fresh handshake nor a resume
	// ticket from a v1 enclave is accepted.
	ticket, err := deployment.ResumeState("laptop-legacy")
	if err != nil {
		return err
	}
	fmt.Println("\noperator revokes build v1")
	if err := deployment.RevokeBuild("v1"); err != nil {
		return err
	}
	if _, err := deployment.AddClient(ctx, "laptop-legacy-2", oldSpec); errors.Is(err, endbox.ErrMeasurementDenied) {
		fmt.Println("new v1 handshake refused before any session crypto")
	}
	if _, err := deployment.ResumeClient(ctx, ticket, oldSpec); err != nil {
		fmt.Printf("v1 resume ticket refused: %v\n", err)
	}

	stats := deployment.LifecycleStats()
	fmt.Printf("\nsessions by build: %v (revoked: %d)\n",
		stats.Sessions.ByBuild, stats.Sessions.Revoked)
	return nil
}

func waitVersion(c *endbox.Client, v uint64) {
	for c.AppliedVersion() != v {
		time.Sleep(2 * time.Millisecond)
	}
}
