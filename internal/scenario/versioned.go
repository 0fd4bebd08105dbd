package scenario

import (
	"context"
	"errors"
	"fmt"

	"endbox/internal/attest"
	"endbox/internal/core"
	"endbox/internal/packet"
	"endbox/internal/policy"
	"endbox/internal/sgx"
	"endbox/internal/trace"
	"endbox/mbox"
)

func init() {
	Register(Scenario{
		Name: "versioned-fleet",
		Description: "two attested enclave builds share one deployment; mid-run, " +
			"a measurement-sealed canary upgrades only the new build (the old " +
			"build cannot even decrypt the update), then the old build is " +
			"revoked live — sessions evicted, re-admission refused",
		Defaults: Params{
			"bulk":  "48", // datagrams per client per round
			"old":   "2",  // clients on the old (v1) build
			"new":   "2",  // clients on the new (v2) build
			"grace": "60", // update grace period, seconds
		},
		Setup: setupVersionedFleet,
	})
}

// fleetNewBuild is the ClientSpec.BuildVersion of the scenario's new
// build; the old build runs the default client image.
const fleetNewBuild = "2.0.0"

func setupVersionedFleet(cfg Config) (*Instance, error) {
	bulk, err := cfg.Params.Int("bulk")
	if err != nil {
		return nil, err
	}
	oldN, err := cfg.Params.Int("old")
	if err != nil {
		return nil, err
	}
	newN, err := cfg.Params.Int("new")
	if err != nil {
		return nil, err
	}
	if oldN < 1 || newN < 1 {
		return nil, fmt.Errorf("%w: old=%d new=%d (need at least one client per build)",
			ErrBadSpec, oldN, newN)
	}
	grace, err := cfg.Params.Int("grace")
	if err != nil {
		return nil, err
	}
	if grace < 1 {
		return nil, fmt.Errorf("%w: grace=%d (need at least 1 second)", ErrBadSpec, grace)
	}

	// Virtual time keeps the grace period from ever expiring mid-run, so
	// the only thing that may remove a session is the revocation.
	e, err := newEnv(cfg.Transport, core.DeploymentOptions{Policy: policy.NewRegistry()}, true)
	if err != nil {
		return nil, err
	}

	if _, err := e.d.RegisterBuild("v1", ""); err != nil {
		e.Close()
		return nil, err
	}
	v2meas, err := e.d.RegisterBuild("v2", fleetNewBuild)
	if err != nil {
		e.Close()
		return nil, err
	}

	oldSpec := core.ClientSpec{
		Mode:     sgx.ModeSimulation,
		Pipeline: mbox.Chain(mbox.Firewall("allow all")),
	}
	newSpec := oldSpec
	newSpec.BuildVersion = fleetNewBuild

	var oldIDs, newIDs []string
	for i := 0; i < oldN; i++ {
		oldIDs = append(oldIDs, fmt.Sprintf("fleet-v1-%d", i))
	}
	for i := 0; i < newN; i++ {
		newIDs = append(newIDs, fmt.Sprintf("fleet-v2-%d", i))
	}
	clients := make(map[string]*core.Client, oldN+newN)
	specFor := func(id string) core.ClientSpec {
		for _, old := range oldIDs {
			if id == old {
				return oldSpec
			}
		}
		return newSpec
	}
	for _, id := range append(append([]string{}, oldIDs...), newIDs...) {
		cli, err := e.d.AddClient(context.Background(), id, specFor(id))
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("adding %s: %w", id, err)
		}
		clients[id] = cli
	}

	// The fleet-wide baseline: version 1, applied by both builds. It is
	// the canary's rollback point and the last-known-good configuration
	// the old build must keep when it cannot open the sealed v2 blob.
	_, err = e.d.Rollout(context.Background(), core.Rollout{
		Version:      1,
		GraceSeconds: uint32(grace),
		Pipeline:     mbox.Chain(mbox.Firewall("allow all")),
	})
	if err != nil {
		e.Close()
		return nil, fmt.Errorf("baseline rollout: %w", err)
	}
	for id, cli := range clients {
		cli := cli
		if !pollUntil(pollBudget(cfg.Transport), func() bool { return cli.AppliedVersion() == 1 }) {
			e.Close()
			return nil, fmt.Errorf("%s never applied the baseline", id)
		}
	}

	src := packet.AddrFrom(10, 8, 0, 2)
	dst := packet.AddrFrom(203, 0, 113, 7)
	bulkFlow, err := trace.NewBulkFlow(src, dst, 1200)
	if err != nil {
		e.Close()
		return nil, err
	}

	// active is the set of clients each round sends through; the mid-run
	// revocation shrinks it to the surviving build.
	active := append(append([]string{}, oldIDs...), newIDs...)

	var packets, bytes, dropped uint64
	play := func() error {
		for i := 0; i < bulk; i++ {
			for _, id := range active {
				p := bulkFlow.Next()
				if err := sendTolerant(clients[id], p, &dropped); err != nil {
					return fmt.Errorf("%s: %w", id, err)
				}
				packets++
				bytes += uint64(len(p))
			}
		}
		return nil
	}

	mid := func() error {
		ctx := context.Background()

		// 1. Measurement-sealed canary: version 2 is staged to exactly the
		// clients whose *attested* measurement is the v2 build — a client
		// cannot label itself into the cohort — and the blob is encrypted
		// under v2's per-measurement key. The cohort is the whole v2 fleet
		// (Fraction 1), so a healthy watch promotes v2 fleet-wide.
		res, err := e.d.RolloutCanary(ctx, core.CanaryRollout{
			Rollout: core.Rollout{
				Version:      2,
				GraceSeconds: uint32(grace),
				Pipeline: mbox.Chain(
					mbox.ConnTrack(mbox.ConnTrackOptions{}),
					mbox.Firewall("allow all"),
				),
				Target: core.Selector{Measurements: []sgx.Measurement{v2meas}},
			},
			Fraction: 1,
			Deadline: pollBudget(cfg.Transport),
		})
		if err != nil {
			return fmt.Errorf("measurement canary: %w", err)
		}
		if !res.Promoted {
			return fmt.Errorf("measurement canary not promoted: %s", res.Reason)
		}
		if len(res.Canary) != newN {
			return fmt.Errorf("canary cohort %v, want the %d v2 clients", res.Canary, newN)
		}
		for _, id := range newIDs {
			cli := clients[id]
			if !pollUntil(pollBudget(cfg.Transport), func() bool { return cli.AppliedVersion() == 2 }) {
				return fmt.Errorf("%s never converged to v2", id)
			}
		}
		// Zero cross-build leak: the promotion announced version 2 to the
		// old build too, but the blob is sealed to v2's measurement — v1
		// clients fail with ErrSealedToOtherBuild and keep last-known-good.
		e.settle()
		for _, id := range oldIDs {
			if v := clients[id].AppliedVersion(); v != 1 {
				return fmt.Errorf("sealed update leaked to %s (applied v%d, want LKG v1)", id, v)
			}
		}

		// 2. Live revocation of the old build. Let in-flight frames land
		// first so the counters are stable when the sessions vanish.
		e.settle()
		resumeState, err := e.d.ResumeState(oldIDs[0])
		if err != nil {
			return fmt.Errorf("snapshotting v1 resume state: %w", err)
		}
		if err := e.d.RevokeBuild("v1"); err != nil {
			return fmt.Errorf("revoking v1: %w", err)
		}
		if n := e.d.Server.VPN().ClientCount(); n != newN {
			return fmt.Errorf("%d sessions live after revocation, want %d (v2 only)", n, newN)
		}
		// Re-admission is refused before any handshake crypto: a fresh v1
		// enclave is denied at enrolment, a resumption ticket from an
		// evicted v1 session is refused by the measurement it carries.
		if _, err := e.d.AddClient(ctx, "fleet-v1-late", oldSpec); !errors.Is(err, attest.ErrMeasurementDenied) {
			return fmt.Errorf("revoked build re-admitted: err = %v, want ErrMeasurementDenied", err)
		}
		if _, err := e.d.ResumeClient(ctx, resumeState, oldSpec); err == nil ||
			!(errors.Is(err, policy.ErrBuildRevoked) || errors.Is(err, attest.ErrMeasurementDenied)) {
			return fmt.Errorf("revoked build resumed: err = %v, want ErrBuildRevoked", err)
		}
		active = newIDs
		return nil
	}

	collect := func() (*Result, error) {
		e.settle()
		ls := e.d.LifecycleStats()
		if ls.Sessions.Revoked != uint64(oldN) {
			return nil, fmt.Errorf("versioned-fleet: %d revocation evictions, want %d",
				ls.Sessions.Revoked, oldN)
		}
		if got := ls.Sessions.ByBuild["v2"]; got != newN {
			return nil, fmt.Errorf("versioned-fleet: ByBuild[v2] = %d, want %d", got, newN)
		}
		if got, ok := ls.Sessions.ByBuild["v1"]; ok {
			return nil, fmt.Errorf("versioned-fleet: %d v1 sessions survived revocation", got)
		}
		stats := e.d.AggregateStats()
		var flows Result
		for _, id := range newIDs {
			fs, err := clients[id].FlowStats()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", id, err)
			}
			flows.FlowsActive += fs.Active
			flows.FlowCapacity += fs.Capacity
			flows.FlowsEvicted += fs.Evicted
		}
		return &Result{
			Packets:        packets,
			Bytes:          bytes,
			Delivered:      e.delivered.Load(),
			Dropped:        dropped + stats.Dropped,
			Shed:           stats.Shed,
			Alerts:         e.alerts.Load(),
			FlowsActive:    flows.FlowsActive,
			FlowCapacity:   flows.FlowCapacity,
			FlowsEvicted:   flows.FlowsEvicted,
			Retransmits:    e.retransmits(),
			Evicted:        ls.Sessions.Evicted,
			Resumed:        ls.Sessions.Resumed,
			Revoked:        ls.Sessions.Revoked,
			RolloutVersion: 2,
			ControlOK:      true,
		}, nil
	}

	return &Instance{Play: play, Mid: mid, Collect: collect, Close: e.Close}, nil
}
