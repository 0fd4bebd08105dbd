package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"endbox/internal/click"
	"endbox/internal/vpn"
)

// CanaryRollout stages a configuration to a fraction of the selected
// clients first, watches their health over a deadline, and either widens
// the rollout to the whole fleet or automatically rolls the cohort back
// to the last-known-good configuration. It embeds Rollout: the Target
// selector picks the candidate set (zero = every connected client), and
// the cohort is the first Fraction of it.
type CanaryRollout struct {
	Rollout
	// Fraction of the selected clients staged as the canary cohort
	// (0 < Fraction <= 1; 0 selects the default 0.25). The cohort is
	// never empty when the selector matches anyone: at least one client
	// canaries.
	Fraction float64
	// Deadline bounds the observation window. Every cohort member must
	// acknowledge the new version within it, and no member may report a
	// fault — only then is the version promoted fleet-wide. A nack or an
	// unhealthy report rolls back immediately, without waiting out the
	// window. 0 selects the default 30s.
	Deadline time.Duration
}

// DefaultCanaryFraction and DefaultCanaryDeadline are the zero-value
// substitutions for CanaryRollout.
const (
	DefaultCanaryFraction = 0.25
	DefaultCanaryDeadline = 30 * time.Second
)

// CanaryResult reports what a canary rollout did.
type CanaryResult struct {
	// Version is the canary version that was staged.
	Version uint64
	// Canary lists the cohort the version was staged to, sorted.
	Canary []string
	// Promoted reports that every cohort member acknowledged the version
	// healthily and it was announced fleet-wide.
	Promoted bool
	// RolledBack reports that the cohort was rolled back to the
	// last-known-good configuration, republished as RollbackVersion.
	RolledBack bool
	// RollbackVersion is the fresh version carrying the last-known-good
	// content (0 unless RolledBack).
	RollbackVersion uint64
	// Reason explains a rollback (the triggering nack or fault, or the
	// missed deadline).
	Reason string
	// Health holds the last health report received from each cohort
	// member during the watch (acks and fault notifications).
	Health map[string]vpn.HealthReport
	// Nacks holds the typed rejections received from cohort members.
	Nacks map[string]vpn.Nack
}

// canaryWatch collects the cohort's verdicts on one staged version. The
// VPN server's sealed-frame hooks feed it from whatever goroutine carried
// the frame; RolloutCanary blocks on failed / the deadline.
type canaryWatch struct {
	version uint64
	cohort  map[string]bool

	mu     sync.Mutex
	health map[string]vpn.HealthReport
	nacks  map[string]vpn.Nack
	acked  map[string]bool
	reason string

	once   sync.Once
	failed chan struct{}
}

func newCanaryWatch(version uint64, cohort []string) *canaryWatch {
	w := &canaryWatch{
		version: version,
		cohort:  make(map[string]bool, len(cohort)),
		health:  make(map[string]vpn.HealthReport, len(cohort)),
		nacks:   make(map[string]vpn.Nack),
		acked:   make(map[string]bool, len(cohort)),
		failed:  make(chan struct{}),
	}
	for _, id := range cohort {
		w.cohort[id] = true
	}
	return w
}

func (w *canaryWatch) onHealth(clientID string, h vpn.HealthReport) {
	w.mu.Lock()
	if !w.cohort[clientID] || h.Version != w.version {
		w.mu.Unlock()
		return
	}
	w.health[clientID] = h
	if h.OK {
		w.acked[clientID] = true
	}
	w.mu.Unlock()
	if !h.OK {
		w.fail(fmt.Sprintf("client %s unhealthy on version %d (element %s quarantined)",
			clientID, h.Version, h.Fault))
	}
}

func (w *canaryWatch) onNack(clientID string, n vpn.Nack) {
	w.mu.Lock()
	if !w.cohort[clientID] || n.Version != w.version {
		w.mu.Unlock()
		return
	}
	w.nacks[clientID] = n
	w.mu.Unlock()
	w.fail(fmt.Sprintf("client %s rejected version %d: %s", clientID, n.Version, n.Reason))
}

func (w *canaryWatch) fail(reason string) {
	w.once.Do(func() {
		w.mu.Lock()
		w.reason = reason
		w.mu.Unlock()
		close(w.failed)
	})
}

// verdict snapshots the watch for the result. missing lists cohort
// members that never acknowledged healthily.
func (w *canaryWatch) verdict() (health map[string]vpn.HealthReport, nacks map[string]vpn.Nack, missing []string, reason string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	health = make(map[string]vpn.HealthReport, len(w.health))
	for id, h := range w.health {
		health[id] = h
	}
	nacks = make(map[string]vpn.Nack, len(w.nacks))
	for id, n := range w.nacks {
		nacks[id] = n
	}
	for id := range w.cohort {
		if !w.acked[id] {
			missing = append(missing, id)
		}
	}
	return health, nacks, missing, w.reason
}

// RolloutCanary publishes a configuration to a canary cohort, gates it on
// the cohort's health, and self-heals on failure:
//
//  1. The Target selector picks the candidate set; the first Fraction of
//     it (sorted by ID — deterministic) becomes the cohort. The update is
//     published and announced to exactly the cohort; the rest of the
//     fleet never sees the canary version.
//  2. Cohort clients fetch, apply, and acknowledge with a sealed health
//     report carrying the in-enclave swap timing. A client that cannot
//     apply pushes a typed nack; a client whose fresh pipeline trips
//     quarantine reports unhealthy (and self-reverts locally).
//  3. All cohort members healthy by the deadline: the version is promoted
//     fleet-wide (Server.AnnounceGlobal). Any nack or fault — or a missed
//     deadline — rolls the cohort back automatically: the last-known-good
//     configuration (from the publication journal) is republished under a
//     fresh version targeted at the cohort, which converges back onto
//     known-good content.
//
// The call blocks for at most the deadline (it returns early on failure).
// One canary runs at a time; a concurrent call errors. The context bounds
// the publication and announcement fan-outs; cancelling it mid-watch rolls
// the cohort back rather than stranding it on an unjudged version.
func (d *Deployment) RolloutCanary(ctx context.Context, r CanaryRollout) (CanaryResult, error) {
	if err := ctx.Err(); err != nil {
		return CanaryResult{}, err
	}
	if r.Fraction == 0 {
		r.Fraction = DefaultCanaryFraction
	}
	if r.Fraction < 0 || r.Fraction > 1 {
		return CanaryResult{}, fmt.Errorf("core: canary fraction %v outside (0, 1]", r.Fraction)
	}
	if r.Deadline == 0 {
		r.Deadline = DefaultCanaryDeadline
	}
	// The rollback point must exist before anything is staged: a canary
	// without a last-known-good configuration to return to is a gamble,
	// not a rollout.
	lkgVersion := d.Server.LatestGlobal()
	lkg, ok := d.Server.JournalEntry(lkgVersion)
	if !ok {
		return CanaryResult{}, fmt.Errorf("core: no last-known-good configuration to roll back to (publish a global version first)")
	}

	ids, seqs := d.selectClients(r.Target)
	if len(ids) == 0 {
		return CanaryResult{}, fmt.Errorf("core: canary selector matches no connected clients")
	}
	n := int(math.Ceil(r.Fraction * float64(len(ids))))
	if n < 1 {
		n = 1
	}
	if n > len(ids) {
		n = len(ids)
	}
	cohort := ids[:n]

	w := newCanaryWatch(r.Version, cohort)
	d.watchMu.Lock()
	if d.watch != nil {
		d.watchMu.Unlock()
		return CanaryResult{}, fmt.Errorf("core: a canary rollout is already in progress")
	}
	d.watch = w
	d.watchMu.Unlock()
	defer func() {
		d.watchMu.Lock()
		d.watch = nil
		d.watchMu.Unlock()
	}()

	if err := d.stage(ctx, r.Rollout, cohort, seqs); err != nil {
		return CanaryResult{}, err
	}

	res := CanaryResult{Version: r.Version, Canary: cohort}

	// The announcement fan-out is synchronous on the in-process transport:
	// acks, nacks, and early quarantine trips may already be in the watch.
	// Block for the rest of the window — faults from live traffic arrive
	// while we wait.
	timer := time.NewTimer(r.Deadline)
	defer timer.Stop()
	var reason string
	select {
	case <-w.failed:
		_, _, _, reason = w.verdict()
	case <-ctx.Done():
		reason = fmt.Sprintf("canary watch cancelled: %v", ctx.Err())
	case <-timer.C:
		health, nacks, missing, _ := w.verdict()
		res.Health, res.Nacks = health, nacks
		if len(missing) == 0 {
			// Every cohort member acknowledged healthily and nothing
			// faulted during the window: widen fleet-wide.
			if err := d.Server.AnnounceGlobal(ctx, r.Version, r.GracePeriod()); err != nil {
				return res, err
			}
			res.Promoted = true
			return res, nil
		}
		reason = fmt.Sprintf("clients %v missed the canary deadline", missing)
	}

	// Roll back: republish the last-known-good content under a fresh,
	// higher version targeted at the cohort. Clients that self-reverted
	// are already running the LKG content and simply converge onto its
	// new version number; clients still on the canary version are pulled
	// off it. The canary version itself is never announced again.
	res.Reason = reason
	res.RolledBack = true
	res.RollbackVersion = r.Version + 1
	rb := Rollout{
		Version:      res.RollbackVersion,
		GraceSeconds: r.GraceSeconds,
		Pipeline:     click.Raw(lkg.ClickConfig),
		RuleSets:     lkg.RuleSets,
		Target:       r.Target,
	}
	// The rollback must go out even when the caller's context is done —
	// use a detached context so cancellation cannot strand the cohort. It
	// carries the staging rollout's Target, so it is sealed exactly like
	// the canary was: the rollback content stays as leak-free.
	if err := d.stage(context.WithoutCancel(ctx), rb, cohort, seqs); err != nil {
		return res, fmt.Errorf("core: canary rollback failed: %w (cohort may be stranded on version %d)", err, r.Version)
	}
	health, nacks, _, _ := w.verdict()
	res.Health, res.Nacks = health, nacks
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}
