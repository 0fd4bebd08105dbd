package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"endbox"
)

// controlStats is what the churn and rollout segments of one run measured.
type controlStats struct {
	joinMs, resumeMs, convergeMs []float64
	setupS                       []float64 // set-ups of the workload's environment timed between the segments
	churnAllocs                  uint64    // heap allocations of the timed joins and resumes
	churnOps                     int
	attempted, failed            uint64
	rolloutsBehind               int    // rollouts after which some client was not on the new version
	lastVersion                  uint64 // the last version rolled out
}

const (
	coldID   = "churn-cold"
	resumeID = "churn-resume"
)

// churn alternates a cold join (AddClient, then RemoveClient outside the
// timing) with a resume of one snapshot (ResumeClient, which replaces the
// previous incarnation) on the workload's churn deployment, for dur. One
// goroutine, nothing else running: the allocation count is the segment's.
func (e *env) churn(dur time.Duration, st *controlStats) error {
	d, spec := e.churnOn, e.w.spec()
	if e.w.udp && !e.w.churnInProcess {
		// Churn over UDP gets a deployment of its own for the segment. Every
		// link it closes stays held (heldTransport) until its transport
		// closes, and two thousand of them beside the measured deployment
		// made each later set-up and round slower than the one before.
		var err error
		d, err = endbox.New(endbox.WithUDPWorkers(2),
			endbox.WithTransport(&heldTransport{Transport: endbox.NewUDPTransport("127.0.0.1:0")}))
		if err != nil {
			return fmt.Errorf("churn: %w", err)
		}
		defer d.Close()
	}
	control := func(op func(ctx context.Context) error) (time.Duration, uint64, error) {
		ctx, cancel := context.WithTimeout(context.Background(), controlWait)
		defer cancel()
		a0, t0 := heapAllocs(), time.Now()
		err := op(ctx)
		return time.Since(t0), heapAllocs() - a0, err
	}

	// The snapshot every resume starts from.
	if _, _, err := control(func(ctx context.Context) error {
		_, err := d.AddClient(ctx, resumeID, spec)
		return err
	}); err != nil {
		return fmt.Errorf("churn: first join: %w", err)
	}
	state, err := d.ResumeState(resumeID)
	if err != nil {
		return fmt.Errorf("churn: snapshot: %w", err)
	}
	defer d.RemoveClient(resumeID)

	deadline := time.Now().Add(dur)
	for first := true; first || time.Now().Before(deadline); first = false {
		took, allocs, err := control(func(ctx context.Context) error {
			_, err := d.AddClient(ctx, coldID, spec)
			return err
		})
		st.attempted++
		if err != nil {
			st.failed++
		} else {
			st.joinMs = append(st.joinMs, ms(took))
			st.churnAllocs += allocs
			st.churnOps++
		}
		d.RemoveClient(coldID)

		took, allocs, err = control(func(ctx context.Context) error {
			_, err := d.ResumeClient(ctx, state, spec)
			return err
		})
		st.attempted++
		if err != nil {
			st.failed++
			continue
		}
		st.resumeMs = append(st.resumeMs, ms(took))
		st.churnAllocs += allocs
		st.churnOps++
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// rollouts publishes one version after another for dur, alternating the
// workload's two configurations, and times each from the Rollout call until
// every long-lived client has applied the version and the server has heard
// so. After each rollout of an unprobed workload every client sends one
// packet, which a server that still held it to the old version would refuse.
func (e *env) rollouts(dur time.Duration, seed int64, st *controlStats) {
	cfgs := e.w.rolloutConfigs(seed)
	version := st.lastVersion
	deadline := time.Now().Add(dur)
	for first := true; first || time.Now().Before(deadline); first = false {
		version++
		cfg := cfgs[version%2]
		st.attempted++
		ctx, cancel := context.WithTimeout(context.Background(), controlWait)
		t0 := time.Now()
		_, err := e.d.Rollout(ctx, endbox.Rollout{
			Version: version, GraceSeconds: rolloutGrace,
			Pipeline: cfg.pipeline, RuleSets: cfg.ruleSets,
		})
		converged := err == nil && e.awaitVersion(ctx, version)
		took := time.Since(t0)
		cancel()
		if !converged {
			st.failed++
			st.rolloutsBehind++
			continue
		}
		st.convergeMs = append(st.convergeMs, ms(took))
		if !e.w.probed {
			for _, c := range e.clients {
				e.dataOp(c, 1, false)
			}
		}
	}
	st.lastVersion = version
}

// awaitVersion polls until every long-lived client runs version and the
// server has recorded its report of it, or ctx ends.
func (e *env) awaitVersion(ctx context.Context, version uint64) bool {
	for {
		all := true
		for _, c := range e.clients {
			reported, err := e.d.Server.VPN().ReportedVersion(c.id)
			if err != nil || reported != version || c.cli.AppliedVersion() != version {
				all = false
				break
			}
		}
		if all {
			return true
		}
		if ctx.Err() != nil {
			return false
		}
		// In-process rollouts converge inside the Rollout call; over UDP the
		// wait is tens of milliseconds, which a 100 µs poll resolves well.
		if e.w.udp {
			time.Sleep(100 * time.Microsecond)
		} else {
			runtime.Gosched()
		}
	}
}
