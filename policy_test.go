package endbox

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"endbox/mbox"
)

// policyTransports runs a subtest over the in-process transport and real
// UDP sockets: attested-identity refusals must carry their typed errors
// across both.
func policyTransports(t *testing.T, fn func(t *testing.T, opts []Option)) {
	t.Run("inprocess", func(t *testing.T) { fn(t, nil) })
	t.Run("udp", func(t *testing.T) {
		fn(t, []Option{WithTransport(NewUDPTransport("127.0.0.1:0"))})
	})
}

// pollFor polls cond until it holds or the budget expires.
func pollFor(budget time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(budget)
	for {
		if cond() {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestMeasurementDeniedOverTransports checks that a client whose build was
// never allowlisted is refused at enrolment with ErrMeasurementDenied —
// and that the sentinel survives errors.Is on both transports (over UDP
// the error crosses the wire as text and is re-typed by the link).
func TestMeasurementDeniedOverTransports(t *testing.T) {
	policyTransports(t, func(t *testing.T, opts []Option) {
		d, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()

		spec := ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP), BuildVersion: "9.9.9-rogue"}
		if _, err := d.AddClient(context.Background(), "rogue", spec); !errors.Is(err, ErrMeasurementDenied) {
			t.Fatalf("unapproved build admitted: err = %v, want ErrMeasurementDenied", err)
		}
	})
}

// TestFleetVersioningE2E drives the whole attested-identity policy flow
// through the facade on both transports: two registered builds, a
// measurement-sealed canary that updates only the new build while the old
// build keeps its last-known-good configuration, then live revocation —
// sessions evicted with observer events, re-admission and resume refused
// with typed errors.
func TestFleetVersioningE2E(t *testing.T) {
	policyTransports(t, func(t *testing.T, opts []Option) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		budget := 5 * time.Second

		var mu sync.Mutex
		var revokedSessions []string
		pol := NewPolicy()
		opts = append(opts,
			WithPolicy(pol),
			WithObserver(ObserverFuncs{
				OnRevoked: func(clientID, build string) {
					mu.Lock()
					revokedSessions = append(revokedSessions, clientID+"@"+build)
					mu.Unlock()
				},
			}),
		)
		d, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()

		if _, err := d.RegisterBuild("v1", ""); err != nil {
			t.Fatal(err)
		}
		v2meas, err := d.RegisterBuild("v2", "2.0.0")
		if err != nil {
			t.Fatal(err)
		}

		oldSpec := ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)}
		newSpec := oldSpec
		newSpec.BuildVersion = "2.0.0"
		cliOld, err := d.AddClient(ctx, "e2e-v1", oldSpec)
		if err != nil {
			t.Fatal(err)
		}
		cliNew, err := d.AddClient(ctx, "e2e-v2", newSpec)
		if err != nil {
			t.Fatal(err)
		}

		// Fleet-wide baseline both builds apply: the canary's rollback
		// point and the LKG the old build must keep.
		if _, err := d.Rollout(ctx, Rollout{Version: 1, GraceSeconds: 60, Pipeline: mbox.Chain(mbox.Firewall("allow all"))}); err != nil {
			t.Fatal(err)
		}
		if !pollFor(budget, func() bool {
			return cliOld.AppliedVersion() == 1 && cliNew.AppliedVersion() == 1
		}) {
			t.Fatalf("baseline never applied: v1=%d v2=%d", cliOld.AppliedVersion(), cliNew.AppliedVersion())
		}

		// Measurement-sealed canary to exactly the v2 build. Promotion
		// announces version 2 fleet-wide, but the blob is encrypted under
		// v2's per-measurement key: the v1 client cannot open it.
		res, err := d.RolloutCanary(ctx, CanaryRollout{
			Rollout: Rollout{
				Version:      2,
				GraceSeconds: 60,
				Pipeline:     mbox.Chain(mbox.Firewall("allow all")),
				Target:       Selector{Measurements: []Measurement{v2meas}},
			},
			Fraction: 1,
			Deadline: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Promoted || len(res.Canary) != 1 || res.Canary[0] != "e2e-v2" {
			t.Fatalf("canary result %+v, want promoted cohort [e2e-v2]", res)
		}
		if !pollFor(budget, func() bool { return cliNew.AppliedVersion() == 2 }) {
			t.Fatalf("v2 client never converged to the canary version")
		}
		if v := cliOld.AppliedVersion(); v != 1 {
			t.Fatalf("sealed update leaked to the v1 client (applied v%d, want LKG v1)", v)
		}

		// Live revocation: the v1 session is evicted (observer fires), the
		// v2 session survives, and v1 can neither re-enrol nor resume.
		state, err := d.ResumeState("e2e-v1")
		if err != nil {
			t.Fatal(err)
		}
		if err := d.RevokeBuild("v1"); err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		revoked := append([]string{}, revokedSessions...)
		mu.Unlock()
		if len(revoked) != 1 || revoked[0] != "e2e-v1@v1" {
			t.Fatalf("revocation events %v, want [e2e-v1@v1]", revoked)
		}
		st := d.LifecycleStats()
		if st.Sessions.Revoked != 1 {
			t.Fatalf("Sessions.Revoked = %d, want 1", st.Sessions.Revoked)
		}
		if st.Sessions.ByBuild["v2"] != 1 {
			t.Fatalf("ByBuild = %v, want v2:1", st.Sessions.ByBuild)
		}
		if _, ok := st.Sessions.ByBuild["v1"]; ok {
			t.Fatalf("v1 sessions survived revocation: %v", st.Sessions.ByBuild)
		}
		if _, err := d.AddClient(ctx, "e2e-v1-late", oldSpec); !errors.Is(err, ErrMeasurementDenied) {
			t.Fatalf("revoked build re-admitted: err = %v, want ErrMeasurementDenied", err)
		}
		if _, err := d.ResumeClient(ctx, state, oldSpec); err == nil ||
			!(errors.Is(err, ErrBuildRevoked) || errors.Is(err, ErrMeasurementDenied)) {
			t.Fatalf("revoked build resumed: err = %v, want ErrBuildRevoked", err)
		}

		// The surviving build still takes updates after the revocation.
		if _, err := d.Rollout(ctx, Rollout{
			Version:      3,
			GraceSeconds: 60,
			Pipeline:     mbox.Chain(mbox.Firewall("allow all")),
			Target:       Selector{Measurements: []Measurement{v2meas}},
		}); err != nil {
			t.Fatal(err)
		}
		if !pollFor(budget, func() bool { return cliNew.AppliedVersion() == 3 }) {
			t.Fatalf("v2 client stuck on v%d after revocation", cliNew.AppliedVersion())
		}
	})
}
