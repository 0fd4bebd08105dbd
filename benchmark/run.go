package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"endbox/internal/config"
)

// runOptions are the knobs of one run of one workload.
type runOptions struct {
	seed     int64
	seconds  float64
	smoke    bool   // a run too short to compare; the result says so
	traceDir string // where a traced run writes its spans
}

// metric is one reported number.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// check is one output check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
}

// runResult is everything one run reports.
type runResult struct {
	Workload  string            `json:"workload"`
	Traced    bool              `json:"traced"`
	Smoke     bool              `json:"smoke,omitempty"`
	Seconds   float64           `json:"seconds"`
	Clients   int               `json:"clients"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	Checks    []check           `json:"checks"`
	Digest    string            `json:"input_digest"`
}

const (
	// setupRepeats set-ups are timed at the start of each round, so that
	// setup_s, like every other figure, draws on separate stretches of the
	// run: thirty set-ups back to back take a tenth of a second, which one
	// disturbance of the host covers whole.
	setupRepeats = 8
	maxWarmUp    = 2 * time.Second
)

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// warmUp is the discarded head of a data window: two seconds at the
// benchmark's run length, a tenth of a shorter run.
func warmUp(total float64) time.Duration {
	if w := seconds(total / 10); w < maxWarmUp {
		return w
	}
	return maxWarmUp
}

// setUps builds the workload's environment n times, tearing each down
// again, and returns how long each build took. Set-up covers the deployment
// and the join of every long-lived client; generating the inputs is the
// benchmark's own work.
func setUps(w workload, in *inputs, n int) ([]float64, error) {
	took := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		e, err := buildEnv(w, in, nil)
		if err != nil {
			return nil, err
		}
		took = append(took, time.Since(t0).Seconds())
		e.close()
	}
	return took, nil
}

// rounds is how many times a run goes through its three segments. Each
// segment gets its share of the window in that many separate stretches, so
// that a disturbed few seconds of the host reach a part of every figure's
// slices and not all the slices of one figure.
const rounds = 4

// segments runs the workload's three segments on e, rounds times over: data
// operations, then churn, then rollouts — or, on a probed workload, churn,
// then data operations that keep running through the rollouts. Each round
// begins with the timed set-ups of a second environment (setup_s). Every
// segment starts from a collected heap, so the garbage of one is not
// collected on the next one's time.
func (e *env) segments(o runOptions) (windowSlices, controlStats, error) {
	w := e.w
	var all windowSlices
	var st controlStats
	share := func(s float64) time.Duration { return seconds(o.seconds * s / rounds) }
	repeats := setupRepeats
	if o.smoke {
		repeats = 1
	}
	for r := 0; r < rounds; r++ {
		took, err := setUps(w, e.in, repeats)
		if err != nil {
			return all, st, err
		}
		st.setupS = append(st.setupS, took...)
		runtime.GC()
		warm := warmUp(o.seconds)
		if r > 0 {
			warm /= 10 // caches and heap are warm; the generators only have to get going
		}
		churn := func() error {
			runtime.GC()
			return e.churn(share(w.churnShare), &st)
		}
		roll := func() {
			runtime.GC()
			e.rollouts(share(w.rolloutShare), o.seed, &st)
		}
		if w.probed {
			if err := churn(); err != nil {
				return all, st, err
			}
			runtime.GC()
			all.add(e.slicesOf(e.runGenerators(warm, share(w.dataShare), 0, roll)))
			continue
		}
		all.add(e.slicesOf(e.runGenerators(warm, share(w.dataShare), 0, nil)))
		if err := churn(); err != nil {
			return all, st, err
		}
		roll()
	}
	return all, st, nil
}

// forSmoke shrinks the rule sets a smoke run rolls out: under the race
// detector a 1000-rule engine build outlasts the probes' echo wait.
func (w workload) forSmoke(smoke bool) workload {
	if smoke {
		w.fleetRules /= 10
	}
	return w
}

// runUntraced measures a workload's end-to-end metrics with tracing off.
func runUntraced(w workload, o runOptions) (*runResult, error) {
	w = w.forSmoke(o.smoke)
	n := w.parallelism()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	in, err := generateInputs(w, o.seed, n)
	if err != nil {
		return nil, err
	}
	e, err := buildEnv(w, in, nil)
	if err != nil {
		return nil, err
	}
	defer e.close()

	slices, st, err := e.segments(o)
	if err != nil {
		return nil, err
	}
	res := &runResult{
		Workload: w.name, Smoke: o.smoke, Seconds: o.seconds, Clients: n,
		Metrics: slices.metrics(), Digest: in.digest(),
	}
	res.Metrics["join_ms_p50"] = metric{Value: best(chunkMedians(st.joinMs), false), Unit: "ms", Samples: len(st.joinMs)}
	res.Metrics["resume_ms_p50"] = metric{Value: best(chunkMedians(st.resumeMs), false), Unit: "ms", Samples: len(st.resumeMs)}
	res.Metrics["churn_allocs_per_op"] = metric{Value: ratio(float64(st.churnAllocs), float64(st.churnOps)), Unit: "allocs", Samples: st.churnOps}
	res.Metrics["rollout_converge_ms_p50"] = metric{Value: best(chunkMedians(st.convergeMs), false), Unit: "ms", Samples: len(st.convergeMs)}
	res.Metrics["setup_s"] = metric{Value: best(st.setupS, false), Unit: "s", Samples: len(st.setupS)}

	res.Attempted, res.Failed = st.attempted, st.failed
	for _, c := range e.clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
	}
	res.Metrics["ok_ratio"] = metric{Value: 1 - ratio(float64(res.Failed), float64(res.Attempted)), Unit: "ratio", Samples: int(res.Attempted)}
	res.Checks = e.outputChecks(st)
	res.Correct = allOK(res.Checks)
	return res, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func allOK(checks []check) bool {
	for _, c := range checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// Every timing and rate of a run is computed per slice of its segment, and
// the slice at the undisturbed decile is reported: the best tenth for a
// rate, the cheapest tenth for a cost or a time. Other tenants of a shared
// host only ever slow a slice down, while a regression in the code slows
// every slice; with medians over the whole segment a noisy quarter of an
// hour spread the churn figures by 30-50% between runs, with the undisturbed
// decile by 3-11%.
const undisturbed = 0.1

// sliceWidth is the slice of the packet-path metrics. The host's disturbed
// spells last minutes, longer than a run, but inside one the disturbance
// comes in bursts of tens of milliseconds: of 15 ms probes of socket calls a
// quarter to a half still ran at full speed, while hardly any stretch of
// half a second did. Slices must be short enough to fall between the bursts.
const sliceWidth = 20 * time.Millisecond

func best(perSlice []float64, higherIsBetter bool) float64 {
	perSlice = append([]float64(nil), perSlice...) // quantile sorts in place
	if higherIsBetter {
		return quantile(perSlice, 1-undisturbed)
	}
	return quantile(perSlice, undisturbed)
}

// chunkMedians splits the samples of back-to-back operations, in the order
// they were taken, into consecutive chunks of at least five, which are
// slices of their time, and returns each chunk's median. Short chunks for
// the same reason as sliceWidth: five joins take 15 to 200 ms.
func chunkMedians(samples []float64) []float64 {
	chunks := len(samples) / 5
	if chunks < 1 {
		chunks = 1
	}
	meds := make([]float64, 0, chunks)
	for i := 0; i < chunks; i++ {
		if part := samples[i*len(samples)/chunks : (i+1)*len(samples)/chunks]; len(part) > 0 {
			meds = append(meds, median(append([]float64(nil), part...)))
		}
	}
	return meds
}

// sliceQuantiles returns the q-quantile of the completion times in every
// slice of the given width of the window that holds at least minSamples of
// them; if none does, the quantile of all samples is the one value.
func sliceQuantiles(samples []latSample, from, to, width time.Duration, q float64, minSamples int) []float64 {
	if len(samples) == 0 {
		return nil
	}
	slices := int((to - from) / width)
	if slices < 1 {
		slices = 1
	}
	buckets := make([][]float64, slices)
	all := make([]float64, 0, len(samples))
	for _, s := range samples {
		i := int((time.Duration(s.atUs)*time.Microsecond - from) / width)
		if i >= slices {
			i = slices - 1
		}
		took := float64(s.tookNs) / 1e3
		buckets[i] = append(buckets[i], took)
		all = append(all, took)
	}
	var qs []float64
	for _, b := range buckets {
		if len(b) >= minSamples {
			qs = append(qs, quantile(b, q))
		}
	}
	if len(qs) == 0 {
		return []float64{quantile(all, q)}
	}
	return qs
}

// windowSlices is what data windows contribute to the packet-path metrics:
// one value per slice of sliceWidth (a second for the tail, which needs the
// samples).
type windowSlices struct {
	mbps, pps, cpu        []float64
	rtt50, rtt99, burst50 []float64
	lone, bursts          int // completion times behind the slices
	// Heap allocations and completed packets of the windows. A count does
	// not depend on the host's speed, so the whole windows are reported.
	allocs, pkts uint64
}

// slicesOf cuts one data window of e into its slices.
func (e *env) slicesOf(win dataWindow) windowSlices {
	var s windowSlices
	for i := 1; i < len(win.snaps); i++ {
		a, b := win.snaps[i-1], win.snaps[i]
		dt, pkts := (b.at - a.at).Seconds(), float64(b.pkts-a.pkts)
		if dt <= 0 || pkts == 0 {
			continue
		}
		s.mbps = append(s.mbps, float64(b.bytes-a.bytes)*8/dt/1e6)
		s.pps = append(s.pps, pkts/dt)
		s.cpu = append(s.cpu, us(b.cpu-a.cpu)/pkts)
	}
	if n := len(win.snaps); n > 0 {
		s.allocs, s.pkts = win.snaps[n-1].allocs-win.snaps[0].allocs, win.snaps[n-1].pkts-win.snaps[0].pkts
	}
	var lat1, lat32 []latSample
	for _, c := range e.clients {
		lat1 = appendWithin(lat1, c.lat1, win.from, win.to)
		lat32 = appendWithin(lat32, c.lat32, win.from, win.to)
	}
	s.lone, s.bursts = len(lat1), len(lat32)
	s.rtt50 = sliceQuantiles(lat1, win.from, win.to, sliceWidth, 0.5, 10)
	s.rtt99 = sliceQuantiles(lat1, win.from, win.to, time.Second, 0.99, 1000) // ten samples beyond the percentile
	s.burst50 = sliceQuantiles(lat32, win.from, win.to, sliceWidth, 0.5, 10)
	return s
}

func (s *windowSlices) add(o windowSlices) {
	s.mbps, s.pps = append(s.mbps, o.mbps...), append(s.pps, o.pps...)
	s.cpu = append(s.cpu, o.cpu...)
	s.allocs, s.pkts = s.allocs+o.allocs, s.pkts+o.pkts
	s.rtt50, s.rtt99 = append(s.rtt50, o.rtt50...), append(s.rtt99, o.rtt99...)
	s.burst50 = append(s.burst50, o.burst50...)
	s.lone, s.bursts = s.lone+o.lone, s.bursts+o.bursts
}

// tail is the 99th percentile of the lone-packet completion times. A slice's
// 99th percentile flips between a quiet and a collecting level from one
// second to the next (10 and 15 µs on bulk-egress) by the program's own
// doing, so the best slices say nothing about the tail; the upper quartile
// sits in the upper level every run, which is the level a tail figure is
// for. That also leaves it open to every disturbance of the host, so it is
// reported with the per-layer metrics, which carry no bound (README,
// "Bounds").
func (s windowSlices) tail() metric {
	return metric{Value: quantile(append([]float64(nil), s.rtt99...), 0.75), Unit: "us", Samples: s.lone}
}

// metrics reduces the slices to the packet-path metrics.
func (s windowSlices) metrics() map[string]metric {
	return map[string]metric{
		"goodput_mbps":   {Value: best(s.mbps, true), Unit: "Mbit/s", Samples: len(s.mbps)},
		"delivered_pps":  {Value: best(s.pps, true), Unit: "1/s", Samples: len(s.pps)},
		"cpu_us_per_pkt": {Value: best(s.cpu, false), Unit: "us", Samples: len(s.cpu)},
		"allocs_per_pkt": {Value: ratio(float64(s.allocs), float64(s.pkts)), Unit: "allocs", Samples: int(s.pkts)},
		"rtt_p50_us":     {Value: best(s.rtt50, false), Unit: "us", Samples: s.lone},
		"burst32_p50_us": {Value: best(s.burst50, false), Unit: "us", Samples: s.bursts},
	}
}

func appendWithin(dst, src []latSample, from, to time.Duration) []latSample {
	for _, s := range src {
		if at := time.Duration(s.atUs) * time.Microsecond; at >= from && at <= to {
			dst = append(dst, s)
		}
	}
	return dst
}

// outputChecks verifies what the run produced. Every check is part of the
// one command; a failed check makes the run incorrect.
func (e *env) outputChecks(st controlStats) []check {
	w := e.w
	var sent, crafted, alerts, canaries, canariesBad, doubleDriven, latDropped uint64
	behind := 0
	for _, c := range e.clients {
		latDropped += c.latDropped
		sent += c.sentPackets
		crafted += c.craftedSent
		alerts += c.alerts.Load()
		canaries += c.canariesSent
		canariesBad += c.canariesBad
		doubleDriven += c.doubleDriven.Load()
		if c.cli.AppliedVersion() != st.lastVersion {
			behind++
		}
	}
	var checks []check
	add := func(name string, ok bool, format string, args ...any) {
		checks = append(checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}

	add("packets-identical", e.obs.mismatched.Load() == 0,
		"%d of %d sampled packets differ from what was sent", e.obs.mismatched.Load(), e.obs.verified.Load())

	add("middlebox-not-bypassed", canariesBad == 0 && e.obs.bypassed.Load() == 0,
		"%d canaries sent, %d not dropped in the enclave, %d reached the managed network", canaries, canariesBad, e.obs.bypassed.Load())

	// An alert rule sees a crafted packet once on the way out and, on an
	// echo workload, once more on the way back in.
	passes := uint64(1)
	if w.echo {
		passes = 2
	}
	add("alerts-match-crafted", alerts == crafted*passes,
		"%d alerts for %d crafted packets (%d pipeline passes each)", alerts, crafted, passes)

	add("rollouts-converged", st.rolloutsBehind == 0 && behind == 0,
		"%d rollouts left a client behind; %d clients not on final version %d", st.rolloutsBehind, behind, st.lastVersion)

	agg := e.d.AggregateStats()
	wantTx := uint64(0)
	if w.echo {
		wantTx = sent
	}
	add("server-counts-match", agg.RxPackets == sent && agg.TxPackets == wantTx && agg.Dropped == 0 && agg.Shed == 0,
		"generator sent %d; server rx %d tx %d dropped %d shed %d", sent, agg.RxPackets, agg.TxPackets, agg.Dropped, agg.Shed)

	add("one-generator-per-client", doubleDriven == 0 && len(e.clients) <= runtime.GOMAXPROCS(0) && latDropped == 0,
		"%d clients on %d processors, %d operations found their client already driven, %d completion times not kept",
		len(e.clients), runtime.GOMAXPROCS(0), doubleDriven, latDropped)
	return checks
}

// runTraced measures a workload's per-layer metrics: a short untraced
// reference window, the same window traced, the same work at one client, the
// control operations through the facade, and the standalone replay.
func runTraced(w workload, o runOptions) (*runResult, error) {
	w = w.forSmoke(o.smoke)
	n := w.parallelism()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	in, err := generateInputs(w, o.seed, n)
	if err != nil {
		return nil, err
	}
	res := &runResult{Workload: w.name, Traced: true, Smoke: o.smoke, Seconds: o.seconds, Clients: n, Digest: in.digest()}
	add := func(name string, ok bool, format string, args ...any) {
		res.Checks = append(res.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
	}
	// Three live windows share the run's seconds with the replay. On a
	// probed workload a few rollouts follow each window under its probes.
	window := func(e *env) (dataWindow, controlStats) {
		var st controlStats
		if w.probed {
			tail := func() { e.rollouts(seconds(o.seconds/12), o.seed, &st) }
			return e.runGenerators(warmUp(o.seconds/4), seconds(o.seconds/6), 0, tail), st
		}
		return e.runGenerators(warmUp(o.seconds/4), seconds(o.seconds/4), 0, nil), st
	}

	// 1. Untraced reference, and the control operations through the facade.
	ref, err := buildEnv(w, in, nil)
	if err != nil {
		return nil, err
	}
	refWin, refSt := window(ref)
	refSlices := ref.slicesOf(refWin)
	refM := refSlices.metrics()
	var churnSt controlStats
	var applyM map[string]metric
	if err = ref.churn(seconds(o.seconds/20), &churnSt); err == nil {
		applyM, err = ref.applyUpdates(o.seed, replayBudget(o.smoke)*4)
	}
	ref.close()
	if err != nil {
		return nil, err
	}

	// 2. The same window at one client.
	oneIn := &inputs{pools: in.pools[:1], crafted: in.crafted[:1], canary: in.canary}
	one, err := buildEnv(w, oneIn, nil)
	if err != nil {
		return nil, err
	}
	oneWin, _ := window(one)
	oneM := one.slicesOf(oneWin).metrics()
	one.close()

	// 3. The same window traced, then a few traced rollouts.
	tr := newTracer(!w.udp)
	traced, err := buildEnv(w, in, tr)
	if err != nil {
		return nil, err
	}
	defer traced.close()
	tr.on.Store(true)
	trWin, trSt := window(traced)
	trM := traced.slicesOf(trWin).metrics()
	if !w.probed {
		traced.rollouts(seconds(o.seconds/20), o.seed, &trSt)
	}
	tr.on.Store(false)
	tracePath := filepath.Join(o.traceDir, "trace-"+w.name+".csv")
	if err := tr.write(tracePath); err != nil {
		return nil, err
	}

	// 4. The replay.
	m, err := replayLayers(w, in, o.seed, o.smoke)
	if err != nil {
		return nil, err
	}

	// Self time of a seam's spans per completed packet.
	selfPerPkt := func(t spanType) metric {
		return metric{Value: ratio(float64(tr.selfNs(t)), float64(trWin.packets)), Unit: "ns", Samples: int(tr.spans(t))}
	}
	m["core.send_self_ns"] = selfPerPkt(spanSend)
	m["core.handle_self_ns"] = selfPerPkt(spanDeliver)
	m["vpn.server_handle_ns"] = selfPerPkt(spanHandleFrame)
	m["vpn.server_sendto_ns"] = selfPerPkt(spanSendToClient)
	m["udptransport.send_frame_ns"] = metric{
		Value: ratio(float64(tr.selfNs(spanSendFrame)), float64(tr.spans(spanSendFrame))), Unit: "ns", Samples: int(tr.spans(spanSendFrame)),
	}
	wireNs := tr.sum(func(ct *clientTrace) int64 { return ct.wireNs.Load() })
	wireN := tr.sum(func(ct *clientTrace) int64 { return ct.wireCount.Load() })
	m["udptransport.wire_to_handler_us"] = metric{Value: ratio(float64(wireNs)/1e3, float64(wireN)), Unit: "us", Samples: int(wireN)}
	m["udptransport.fetch_config_ms"] = metric{
		Value: ratio(float64(tr.totalNs(spanFetchConfig))/1e6, float64(tr.spans(spanFetchConfig))), Unit: "ms", Samples: int(tr.spans(spanFetchConfig)),
	}
	var arqRetransmits, arqAcks uint64
	if traced.udp != nil {
		a := traced.udp.ARQStats()
		arqRetransmits, arqAcks = a.Retransmits+a.FastRetransmit, a.AcksSent
	}
	m["udptransport.arq_retransmits"] = metric{Value: float64(arqRetransmits), Unit: "count"}
	m["udptransport.arq_acks"] = metric{Value: float64(arqAcks), Unit: "count"}
	agg := traced.d.AggregateStats()
	m["dataplane.shed_frames"] = metric{Value: float64(agg.Shed), Unit: "count"}
	m["vpn.dropped_frames"] = metric{Value: float64(agg.Dropped), Unit: "count"}

	m["rtt_p99_us"] = refSlices.tail()
	m["sgx.crossings_per_pkt"] = metric{Value: ratio(float64(refWin.crossing), float64(refWin.packets)), Unit: "count", Samples: int(refWin.packets)}
	m["core.add_client_ms"] = metric{Value: median(churnSt.joinMs), Unit: "ms", Samples: len(churnSt.joinMs)}
	m["core.resume_client_ms"] = metric{Value: median(churnSt.resumeMs), Unit: "ms", Samples: len(churnSt.resumeMs)}
	for k, v := range applyM {
		m[k] = v
	}
	m["core.scaling_x"] = metric{Value: ratio(refM["delivered_pps"].Value, oneM["delivered_pps"].Value), Unit: "x", Samples: n}
	m["trace.overhead_pct"] = metric{
		Value: 100 * (1 - ratio(trM["delivered_pps"].Value, refM["delivered_pps"].Value)), Unit: "%", Samples: trM["delivered_pps"].Samples,
	}

	// Reconcile the replayed rows with the untraced cost of a packet.
	explained := 0.0
	for name, calls := range w.callsPerPacket(ratio(float64(refWin.ecalls), float64(refWin.packets))) {
		explained += m[name].Value * calls
	}
	cpuNs := refM["cpu_us_per_pkt"].Value * 1e3
	m["core.unattributed_ns"] = metric{Value: cpuNs - explained, Unit: "ns", Samples: refM["cpu_us_per_pkt"].Samples}
	m["core.ledger_gap_pct"] = metric{Value: 100 * ratio(cpuNs-explained, cpuNs), Unit: "%", Samples: refM["cpu_us_per_pkt"].Samples}

	res.Metrics = m
	for _, st := range []controlStats{refSt, churnSt, trSt} {
		res.Attempted += st.attempted
		res.Failed += st.failed
	}
	for _, c := range traced.clients {
		res.Attempted += c.attempted
		res.Failed += c.failed
	}

	// The traced run must take the code path of the untraced one: the same
	// enclave crossings for the same packets. Over UDP the client opens
	// echoes in whatever batches the socket hands over, so the crossings per
	// packet vary from run to run there and only the egress side is fixed.
	refX, trX := ratio(float64(refWin.crossing), float64(refWin.packets)), ratio(float64(trWin.crossing), float64(trWin.packets))
	tolerance := 0.01
	if w.udp {
		tolerance = 0.5
	}
	add("traced-path-same", refX > 0 && math.Abs(trX-refX) <= tolerance*refX,
		"enclave crossings per packet: untraced %.4f, traced %.4f", refX, trX)
	// One way and in-process is the path the replay covers end to end. The
	// ledger's target there is a gap within 10% (core.ledger_gap_pct); the
	// two sides are measured seconds apart on a host whose speed drifts (a
	// noisy spell read -15%), so the run is only called incorrect at 35%,
	// which a missing seal or open row still exceeds.
	if !w.udp && !w.echo {
		add("ledger-reconciles", math.Abs(cpuNs-explained) <= 0.35*cpuNs,
			"replayed rows explain %.0f ns of %.0f ns per packet", explained, cpuNs)
	}
	add("spans-written", tr.spans(spanHandleFrame) > 0, "%d server spans, trace at %s", tr.spans(spanHandleFrame), tracePath)
	res.Checks = append(res.Checks, traced.outputChecks(trSt)...)
	res.Correct = allOK(res.Checks)
	return res, nil
}

// callsPerPacket is how often each replayed row runs per completed packet
// on the workload's path; rows that are absent do not run on it. ecalls is
// the measured number of enclave calls per packet.
func (w workload) callsPerPacket(ecalls float64) map[string]float64 {
	if !w.echo {
		// Client: pack, parse, pipeline, seal. Server: look the session up,
		// open, parse for delivery.
		return map[string]float64{
			"vpn.slab_ns": 1, "sgx.ecall_ns": ecalls, "packet.parse_ns": 2, "click.process_ns": 1,
			"wire.seal_ns": 1, "dataplane.table_get_ns": 1, "wire.open_ns": 1, "wire.buf_cycle_ns": 2.0 / burst,
		}
	}
	// An echo adds the server's re-serialisation, TOS-scrub parse, seal and
	// second lookup, and the client's open, parse and ingress pipeline run.
	return map[string]float64{
		"vpn.slab_ns": 1, "sgx.ecall_ns": ecalls, "packet.parse_ns": 4, "packet.marshal_ns": 1, "click.process_ns": 2,
		"wire.seal_ns": 2, "dataplane.table_get_ns": 2, "wire.open_ns": 2, "wire.buf_cycle_ns": 3,
	}
}

// applyUpdates times Client.ApplyUpdateBlob, with its in-enclave split, on
// the first long-lived client of e: each call applies the next version of
// the configuration the workload rolls out, sealed here with the
// deployment's own CA.
func (e *env) applyUpdates(seed int64, budget time.Duration) (map[string]metric, error) {
	cfgs := e.w.rolloutConfigs(seed)
	var text [2]string
	for i, cfg := range cfgs {
		var err error
		if text[i], err = cfg.pipeline.Config(); err != nil {
			return nil, err
		}
	}
	cli := e.clients[0].cli
	version := cli.AppliedVersion()
	var total, decrypt, hotswap []float64
	for start := time.Now(); time.Since(start) < budget || len(total) < 3; {
		version++
		u := &config.Update{Version: version, GraceSeconds: rolloutGrace, ClickConfig: text[version%2], RuleSets: cfgs[version%2].ruleSets}
		blob, err := config.Seal(u, e.d.CA.SignConfig, nil)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		timing, err := cli.ApplyUpdateBlob(blob)
		if err != nil {
			return nil, fmt.Errorf("apply update v%d: %w", version, err)
		}
		total = append(total, ms(time.Since(t0)))
		decrypt = append(decrypt, ms(timing.Decrypt))
		hotswap = append(hotswap, ms(timing.Hotswap))
	}
	return map[string]metric{
		"core.apply_update_ms":  {Value: median(total), Unit: "ms", Samples: len(total)},
		"core.apply_decrypt_ms": {Value: median(decrypt), Unit: "ms", Samples: len(total)},
		"core.apply_hotswap_ms": {Value: median(hotswap), Unit: "ms", Samples: len(total)},
	}, nil
}

// metricNames returns a result's metric names, sorted.
func metricNames(m map[string]metric) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
