package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"endbox/internal/click"
	"endbox/internal/config"
	"endbox/internal/policy"
	"endbox/internal/sgx"
)

// spyTransport counts the work joins and publishes hand the transport:
// links opened and frames (pings included) pushed to clients.
type spyTransport struct {
	Transport
	links, frames atomic.Int64
}

func (s *spyTransport) Link(ctx context.Context, clientID string) (ClientLink, error) {
	s.links.Add(1)
	return s.Transport.Link(ctx, clientID)
}

func (s *spyTransport) SendToClient(clientID string, frame []byte) error {
	s.frames.Add(1)
	return s.Transport.SendToClient(clientID, frame)
}

// TestBadPipelineRefusedAtEveryEntryPoint pins the one name a middlebox
// function has: every call that takes a Pipeline refuses a zero one and one
// that does not build with ErrBadPipeline, before it opens a link, replaces
// a client, publishes a blob or pings anyone.
func TestBadPipelineRefusedAtEveryEntryPoint(t *testing.T) {
	ctx := context.Background()
	spy := &spyTransport{Transport: NewInProcessTransport()}
	d := newDeployment(t, DeploymentOptions{Transport: spy})
	live := addClient(t, d, "live", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
	publish(t, d, Rollout{Version: 1, Pipeline: click.StockPipeline(click.UseCaseNOP)})
	state, err := d.ResumeState("live")
	if err != nil {
		t.Fatal(err)
	}

	entryPoints := map[string]func(p click.Pipeline) error{
		"AddClient": func(p click.Pipeline) error {
			_, err := d.AddClient(ctx, "fresh", ClientSpec{Mode: sgx.ModeSimulation, Pipeline: p})
			return err
		},
		"ResumeClient": func(p click.Pipeline) error {
			_, err := d.ResumeClient(ctx, state, ClientSpec{Mode: sgx.ModeSimulation, Pipeline: p})
			return err
		},
		"Rollout": func(p click.Pipeline) error {
			_, err := d.Rollout(ctx, Rollout{Version: 2, Pipeline: p})
			return err
		},
		"RolloutCanary": func(p click.Pipeline) error {
			_, err := d.RolloutCanary(ctx, CanaryRollout{Rollout: Rollout{Version: 2, Pipeline: p}, Fraction: 1})
			return err
		},
	}
	bad := map[string]click.Pipeline{
		"zero":        {},
		"invalid raw": click.Raw("FromDevice -> Frobnicator -> ToDevice;"),
	}
	links, frames := spy.links.Load(), spy.frames.Load()
	for entry, call := range entryPoints {
		for name, p := range bad {
			if err := call(p); !errors.Is(err, click.ErrBadPipeline) {
				t.Errorf("%s with a %s pipeline: err = %v, want ErrBadPipeline", entry, name, err)
			}
		}
	}
	if got := spy.links.Load(); got != links {
		t.Errorf("%d links opened for refused pipelines", got-links)
	}
	if got := spy.frames.Load(); got != frames {
		t.Errorf("%d frames pushed to clients for refused pipelines", got-frames)
	}
	if v := d.Server.Configs().Latest(); v != 1 {
		t.Errorf("config store latest = %d, want 1 (nothing published)", v)
	}
	if v := d.Server.LatestGlobal(); v != 1 {
		t.Errorf("LatestGlobal = %d, want 1", v)
	}
	if c, ok := d.Client("live"); !ok || c != live {
		t.Error("a refused ResumeClient displaced the connected client")
	}
	if v := live.AppliedVersion(); v != 1 {
		t.Errorf("live client at v%d, want 1", v)
	}
}

// TestOnePublishSequence drives every publish the deployment makes —
// global, targeted, sealed-targeted, canary staging, canary rollback and
// promotion — and checks they are one sequence: each leaves a journal
// entry, only the global publish and the promotion move LatestGlobal, and
// a selector naming exactly one measurement seals the blob to that build,
// rollback included, with no option set.
func TestOnePublishSequence(t *testing.T) {
	ctx := context.Background()
	d := newDeployment(t, DeploymentOptions{Policy: policy.NewRegistry()})
	if _, err := d.RegisterBuild("v1", ""); err != nil {
		t.Fatal(err)
	}
	v2meas, err := d.RegisterBuild("v2", "2.0.0")
	if err != nil {
		t.Fatal(err)
	}
	nop := click.StockPipeline(click.UseCaseNOP)
	fw := click.StockPipeline(click.UseCaseFW)
	old := addClient(t, d, "old", ClientSpec{Pipeline: nop})
	modern := addClient(t, d, "modern", ClientSpec{Pipeline: nop, BuildVersion: "2.0.0"})
	toV2 := Selector{Measurements: []sgx.Measurement{v2meas}}

	check := func(step string, version, wantGlobal, wantOld, wantModern uint64) {
		t.Helper()
		if _, ok := d.Server.JournalEntry(version); !ok {
			t.Errorf("%s: version %d left no journal entry", step, version)
		}
		if got := d.Server.LatestGlobal(); got != wantGlobal {
			t.Errorf("%s: LatestGlobal = %d, want %d", step, got, wantGlobal)
		}
		if old.AppliedVersion() != wantOld || modern.AppliedVersion() != wantModern {
			t.Errorf("%s: clients at old=v%d modern=v%d, want v%d / v%d",
				step, old.AppliedVersion(), modern.AppliedVersion(), wantOld, wantModern)
		}
	}
	// sealedToV2 shows a published blob is unreadable by the v1 build,
	// which keeps whatever it runs.
	sealedToV2 := func(step string, version uint64) {
		t.Helper()
		blob, err := d.Server.Configs().Fetch(version)
		if err != nil {
			t.Fatal(err)
		}
		before := old.AppliedVersion()
		if _, err := old.ApplyUpdateBlob(blob); !errors.Is(err, config.ErrSealedToOtherBuild) {
			t.Errorf("%s: v1 build opening version %d: err = %v, want ErrSealedToOtherBuild", step, version, err)
		}
		if got := old.AppliedVersion(); got != before {
			t.Errorf("%s: v1 build moved from v%d to v%d on a blob sealed to v2", step, before, got)
		}
	}

	publish(t, d, Rollout{Version: 1, Pipeline: nop})
	check("global", 1, 1, 1, 1)

	publish(t, d, Rollout{Version: 2, Pipeline: fw, Target: Selector{IDs: []string{"old"}}})
	check("targeted", 2, 1, 2, 1)

	publish(t, d, Rollout{Version: 3, Pipeline: fw, Target: toV2})
	check("sealed-targeted", 3, 1, 2, 3)
	sealedToV2("sealed-targeted", 3)

	// A canary cancelled mid-watch rolls its cohort back to the journal's
	// last global entry, republished as version+1 through the same step.
	watch, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	res, err := d.RolloutCanary(watch, CanaryRollout{
		Rollout:  Rollout{Version: 4, Pipeline: fw, Target: toV2},
		Fraction: 1,
		Deadline: time.Minute,
	})
	if !errors.Is(err, context.DeadlineExceeded) || !res.RolledBack || res.RollbackVersion != 5 {
		t.Fatalf("cancelled canary: res %+v err %v, want a rollback to v5", res, err)
	}
	check("canary staging", 4, 1, 2, 5)
	check("canary rollback", 5, 1, 2, 5)
	sealedToV2("canary staging", 4)
	sealedToV2("canary rollback", 5)
	lkg, _ := d.Server.JournalEntry(1)
	if rb, _ := d.Server.JournalEntry(5); rb.ClickConfig != lkg.ClickConfig {
		t.Errorf("rollback republished %q, want the last global content %q", rb.ClickConfig, lkg.ClickConfig)
	}

	res, err = d.RolloutCanary(ctx, CanaryRollout{
		Rollout:  Rollout{Version: 6, Pipeline: fw},
		Fraction: 1,
		Deadline: 100 * time.Millisecond,
	})
	if err != nil || !res.Promoted {
		t.Fatalf("healthy canary: res %+v err %v, want promoted", res, err)
	}
	check("promotion", 6, 6, 6, 6)
}
