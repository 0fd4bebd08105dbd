package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"endbox/internal/click"
	"endbox/internal/config"
	"endbox/internal/policy"
	"endbox/internal/sgx"
)

// Selector picks the clients a targeted rollout applies to. The zero
// Selector matches every connected client (a global rollout). All
// restrictions compose (logical AND): a client matches when its ID is in
// IDs (or IDs is empty), every Labels entry equals the client's label,
// its attested measurement is in Measurements (or Measurements is empty)
// and its build is at or after MinBuild in the policy lineage (or
// MinBuild is empty).
type Selector struct {
	// IDs restricts the target set to these client IDs.
	IDs []string
	// Labels must all be present, with equal values, in a client's
	// ClientSpec.Labels.
	Labels map[string]string
	// Measurements restricts the target set to clients whose verified
	// enclave measurement (recorded at handshake or resume) is one of
	// these — attested targeting: a client cannot label itself into the
	// set, the measurement was proven by the attestation chain.
	Measurements []sgx.Measurement
	// MinBuild restricts the target set to clients whose build sits at or
	// after the named build in the policy registry's lineage. Requires a
	// deployment policy registry; without one (or with an unregistered
	// name) it matches nothing.
	MinBuild string
}

// Empty reports whether the selector matches everything (global rollout).
func (s Selector) Empty() bool {
	return len(s.IDs) == 0 && len(s.Labels) == 0 && len(s.Measurements) == 0 && s.MinBuild == ""
}

// matches reports whether a client with the given ID, labels and attested
// measurement is selected. pol resolves MinBuild (nil: MinBuild matches
// nothing).
func (s Selector) matches(id string, labels map[string]string, meas sgx.Measurement, pol *policy.Registry) bool {
	if len(s.IDs) > 0 {
		found := false
		for _, want := range s.IDs {
			if want == id {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	for k, v := range s.Labels {
		if labels[k] != v {
			return false
		}
	}
	if len(s.Measurements) > 0 {
		found := false
		for _, want := range s.Measurements {
			if want == meas {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	if s.MinBuild != "" {
		if pol == nil || !pol.AtLeast(meas, s.MinBuild) {
			return false
		}
	}
	return true
}

// Rollout describes one middlebox configuration rollout: a pipeline, the
// version it publishes as, the grace period within which targeted clients
// must converge, and the set of clients it applies to. A zero Target rolls
// out globally; a non-empty Target publishes the update, arms a per-client
// policy requirement for the selected clients only, and announces the
// version to exactly those clients, leaving the rest of the fleet on the
// globally current configuration (canary rings, per-site configurations,
// staged migrations).
type Rollout struct {
	// Version is the update's version; it must be newer than every
	// previously published version. Required.
	Version uint64
	// GraceSeconds is how long the VPN server keeps accepting the
	// clients' previous configuration version (paper §III-E). For a
	// targeted rollout the deadline applies per target group.
	GraceSeconds uint32
	// Pipeline is the middlebox function to roll out. Compiled and
	// validated before anything is published. Required.
	Pipeline click.Pipeline
	// RuleSets ships named IDPS rule sets with the update.
	RuleSets map[string]string
	// Target selects the clients to roll out to (zero = all). A Target
	// naming exactly one measurement seals the update to that build: no
	// other build can open it (ErrSealedToOtherBuild; they keep their
	// last-known-good configuration).
	Target Selector
}

// GracePeriod returns the grace period as a duration.
func (r Rollout) GracePeriod() time.Duration {
	return time.Duration(r.GraceSeconds) * time.Second
}

// RolloutResult reports what a rollout did.
type RolloutResult struct {
	// Version is the published version.
	Version uint64
	// Clients are the IDs the rollout was announced to, sorted. A
	// targeted rollout with no matching connected clients publishes the
	// update (late joiners can fetch it) but announces to nobody.
	Clients []string
}

// Rollout publishes a middlebox update to a targeted set of clients (or,
// with an empty Target, to the whole fleet). It is the one public publish
// call: the pipeline is compiled and validated first, so a bad
// configuration returns an error wrapping ErrBadPipeline before anything is
// published or announced. The context bounds the sealing and the
// announcement fan-out.
func (d *Deployment) Rollout(ctx context.Context, r Rollout) (RolloutResult, error) {
	if err := ctx.Err(); err != nil {
		return RolloutResult{}, err
	}
	ids, seqs := d.selectClients(r.Target)
	audience := ids
	if r.Target.Empty() {
		audience = nil // the whole fleet, whoever joins meanwhile included
	}
	if err := d.stage(ctx, r, audience, seqs); err != nil {
		return RolloutResult{}, err
	}
	return RolloutResult{Version: r.Version, Clients: ids}, nil
}

// stage is the one publish step behind Rollout, RolloutCanary's staging
// and its rollback: compile and validate the pipeline, build the update,
// seal it to the build when the selector names exactly one, and publish
// it to the audience (nil = the whole fleet; otherwise IDs selectClients
// returned together with seqs).
func (d *Deployment) stage(ctx context.Context, r Rollout, audience []string, seqs map[string]uint64) error {
	if r.Version == 0 {
		return fmt.Errorf("core: rollout needs a version")
	}
	// Validate against the community set plus whatever the update ships:
	// that is what a freshly joined client resolves rule sets from, and
	// what AddClient validates against.
	cfg, err := r.Pipeline.Compile(nil, mergedRuleSets(r.RuleSets))
	if err != nil {
		return err
	}
	u := &config.Update{
		Version:      r.Version,
		GraceSeconds: r.GraceSeconds,
		ClickConfig:  cfg,
		RuleSets:     r.RuleSets,
	}
	if err := d.Server.Publish(ctx, u, audience, sealTarget(r.Target)); err != nil {
		return err
	}
	// Close the race with a concurrent RemoveClient (or a remove + same-ID
	// rejoin): an ID whose join generation changed between the selector
	// snapshot and the announcement must not keep the freshly armed
	// target — the client it now names was never part of this rollout.
	d.mu.Lock()
	for _, id := range audience {
		if d.joinSeq[id] != seqs[id] {
			d.Server.VPN().Policy().ForgetClient(id)
		}
	}
	d.mu.Unlock()
	return nil
}

// selectClients returns the sorted IDs of connected clients the selector
// matches, plus their join generations for the post-publish race check.
// Measurement predicates read the VPN session table's verified
// measurement (recorded at handshake/resume), never anything the client
// self-reported.
func (d *Deployment) selectClients(sel Selector) ([]string, map[string]uint64) {
	pol := d.opts.Policy
	meas := func(id string) sgx.Measurement {
		m, _ := d.Server.VPN().Measurement(id)
		return m
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	ids := make([]string, 0, len(d.clients))
	seqs := make(map[string]uint64, len(d.clients))
	for id := range d.clients {
		if sel.matches(id, d.labels[id], meas(id), pol) {
			ids = append(ids, id)
			seqs[id] = d.joinSeq[id]
		}
	}
	// Standalone clients (cmd/endbox-client) handshake over the transport
	// without passing through AddClient, so they exist only in the VPN
	// session table. Include them: ID, measurement and catch-all selectors
	// must see them, though label selectors can't match (they carry no
	// labels).
	for _, id := range d.Server.VPN().ClientIDs() {
		if _, inproc := d.clients[id]; inproc {
			continue
		}
		if sel.matches(id, nil, meas(id), pol) {
			ids = append(ids, id)
			seqs[id] = d.joinSeq[id] // 0: remote joins don't bump the generation
		}
	}
	sort.Strings(ids)
	return ids, seqs
}

// sealTarget is the measurement a rollout's update blob is sealed to
// (zero: the fleet-shared key). A selector naming exactly one measurement
// makes the key unambiguous, and a sealed blob is cryptographically
// unopenable by every other build — the strongest form of "zero
// cross-build config leaks".
func sealTarget(sel Selector) sgx.Measurement {
	if len(sel.Measurements) != 1 {
		return sgx.Measurement{}
	}
	return sel.Measurements[0]
}
