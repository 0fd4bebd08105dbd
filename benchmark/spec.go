package main

import (
	"runtime"
	"time"

	"endbox"
	"endbox/internal/click"
	"endbox/internal/idps"
	"endbox/mbox"
)

// sizeShare is one packet size of a workload's mix and its weight.
type sizeShare struct{ size, share int }

// workload describes one of the benchmark's four closed-loop workloads. All
// four run the same three segments on the real endbox facade — data
// operations, session churn, configuration rollouts — and differ in the
// deployment they run them on and in how the measured window is shared
// between the segments, so every end-to-end metric exists on every workload.
type workload struct {
	name string // why each workload exists is recorded in BENCHMARK.json and README.md

	udp bool // loopback UDP transport with two ingress workers; otherwise in-process
	// procs > 0 fixes the number of long-lived clients, and with it the
	// GOMAXPROCS of the run; 0 means one client per CPU. The UDP workloads
	// run one client on one processor: their packet path is a chain of
	// goroutines that block and wake one another, and spread over the vCPUs
	// of a shared host its figures measure how fast the host wakes a halted
	// vCPU (README, "Bounds").
	procs   int
	echo    bool // the managed network reflects packets: an operation completes when its echoes are back at the client app
	mode    endbox.EnclaveMode
	burnCPU bool
	inspect bool // ConnTrack + IDS pipeline; otherwise the stock 16-rule firewall
	canary  bool // once a second a packet matching firewall rule 1 must be dropped inside the enclave

	sizes      []sizeShare
	flows      int   // distinct 5-tuples per client
	craftEvery int   // every n-th packet hits one IDS alert rule (0 = none)
	ops        []int // burst sizes of the data operations, cycled
	// pace is the think time between two data operations of one client
	// while rollouts run beside them. In the measured data window the next
	// operation is always issued as soon as the previous one completed.
	pace time.Duration

	// Shares of the measured window. A probed workload churns first and
	// keeps its data operations running through the rollout segment, where
	// they no longer count towards the data metrics but a lost or refused
	// one still counts as a failure.
	dataShare, churnShare, rolloutShare float64
	probed                              bool
	// churnInProcess runs the churn segment on an in-process deployment of
	// its own although the data path is UDP (see README, "Why churn is not
	// over UDP").
	churnInProcess bool
	// fleetRules > 0 makes rollouts alternate two seeded generated IDS rule
	// sets of that many rules, shipped inside the update; otherwise rollouts
	// alternate the boot pipeline with a close variant of it.
	fleetRules int
}

const (
	burst        = 32
	rolloutGrace = 5 // seconds
	controlWait  = 2 * time.Second
	// echoWait is how long an operation waits for its packets to complete
	// before it counts as failed. A second tells a lost packet from a late
	// one: a client applies an update on the goroutine that also delivers its
	// echoes, so a probe sent just before a rollout waits for the whole fetch,
	// engine build and hot-swap, and a shared host can hold a process off the
	// CPU for a tenth of a second.
	echoWait      = time.Second
	canaryEvery   = time.Second
	verifyEvery   = 256 // one delivered packet in this many is compared byte for byte
	packetsPerCli = 2048
	siteRules     = 23 // rules the inspect workload's rollout variant adds to the community set
)

// repeatOps builds an operation schedule of n bursts of size a followed by
// one burst of size b.
func repeatOps(n, a, b int) []int {
	ops := make([]int, 0, n+1)
	for i := 0; i < n; i++ {
		ops = append(ops, a)
	}
	return append(ops, b)
}

var workloads = []workload{
	{
		name: "bulk-egress",
		mode: endbox.ModeSimulation, canary: true,
		sizes: []sizeShare{{1500, 1}}, flows: 64,
		// One lone packet per eight bursts keeps a single-packet completion
		// time on this workload at a cost of 0.4% of its packets.
		ops:       repeatOps(8, burst, 1),
		dataShare: 0.6, churnShare: 0.15, rolloutShare: 0.25,
	},
	{
		name: "burst-echo-udp",
		udp:  true, procs: 1, echo: true, mode: endbox.ModeSimulation, canary: true,
		sizes: []sizeShare{{64, 1}}, flows: 64,
		ops:       []int{1, burst},
		dataShare: 0.6, churnShare: 0.15, rolloutShare: 0.25,
	},
	{
		name: "inspect-hw-echo",
		echo: true, mode: endbox.ModeHardware, burnCPU: true, inspect: true,
		sizes: []sizeShare{{64, 7}, {576, 4}, {1500, 1}}, flows: 256, craftEvery: 128,
		ops:       []int{1, burst},
		dataShare: 0.6, churnShare: 0.15, rolloutShare: 0.25,
	},
	{
		name: "fleet-control",
		udp:  true, procs: 1, echo: true, mode: endbox.ModeSimulation,
		sizes: []sizeShare{{64, 1}}, flows: 64,
		// Lone packets back to back, so nothing batches and every packet
		// pays the whole wake-up chain; every 64th operation is a burst of 32
		// so the burst completion time exists here too. While rollouts run,
		// each client sends one such probe a millisecond.
		ops:        repeatOps(63, 1, burst),
		pace:       time.Millisecond,
		churnShare: 0.35, dataShare: 0.25, rolloutShare: 0.4, probed: true,
		churnInProcess: true,
		fleetRules:     1000,
	},
}

// parallelism is the number of long-lived clients of a run, each with its
// one generator goroutine, and the GOMAXPROCS the run is made at.
func (w workload) parallelism() int {
	if w.procs > 0 {
		return w.procs
	}
	return runtime.NumCPU()
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// rolloutConfig is one of the two configurations a workload's rollouts
// alternate between.
type rolloutConfig struct {
	pipeline endbox.Pipeline
	ruleSets map[string]string
}

func firewallPipeline(rules int) endbox.Pipeline {
	return mbox.Chain(mbox.Firewall(click.SplitArgs(click.FirewallRules(rules))...))
}

func inspectPipeline(ruleSet string) endbox.Pipeline {
	return mbox.Chain(mbox.ConnTrack(mbox.ConnTrackOptions{Loose: true}), mbox.IDS(ruleSet))
}

// bootPipeline is the pipeline the workload's clients join with.
func (w workload) bootPipeline() endbox.Pipeline {
	if w.inspect {
		return inspectPipeline("community")
	}
	return mbox.Stock(endbox.UseCaseFW)
}

// rolloutConfigs returns the two configurations the workload's rollouts
// alternate between; the rule-set seeds derive from the benchmark seed.
func (w workload) rolloutConfigs(seed int64) [2]rolloutConfig {
	switch {
	case w.fleetRules > 0:
		var out [2]rolloutConfig
		for i := range out {
			out[i] = rolloutConfig{
				pipeline: mbox.Chain(mbox.IDS("fleet")),
				ruleSets: map[string]string{"fleet": idps.GenerateRuleSet(w.fleetRules, seed*2+int64(i)+1)},
			}
		}
		return out
	case w.inspect:
		// The variant inspects with the community rules plus a few seeded
		// ones, shipped inside the update, so crafted packets raise their
		// alert under either configuration.
		site := endbox.CommunityRuleSets()["community"] + idps.GenerateRuleSet(siteRules, seed+1)
		return [2]rolloutConfig{
			{pipeline: inspectPipeline("community")},
			{pipeline: inspectPipeline("site"), ruleSets: map[string]string{"site": site}},
		}
	default:
		// Both variants keep rule 1, which the canary packet matches.
		return [2]rolloutConfig{{pipeline: firewallPipeline(16)}, {pipeline: firewallPipeline(17)}}
	}
}
