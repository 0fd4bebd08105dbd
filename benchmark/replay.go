package main

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"endbox"
	"endbox/internal/attest"
	"endbox/internal/click"
	"endbox/internal/config"
	"endbox/internal/dataplane"
	"endbox/internal/flow"
	"endbox/internal/idps"
	"endbox/internal/lifecycle"
	"endbox/internal/packet"
	"endbox/internal/sgx"
	"endbox/internal/vpn"
	"endbox/internal/wire"
)

// The replay drives the workload's own seeded packets through each layer's
// public functions, one layer at a time and outside any deployment, and
// reports wall time (and where asked, heap allocations) per call. Its rows
// are what the per-packet cost is reconciled against.

type rows map[string]metric

func (r rows) ns(name string, d time.Duration, fn func()) { r.scaled(name, "ns", 1, d, fn) }

func (r rows) scaled(name, unit string, perUnit float64, d time.Duration, fn func()) {
	v, _, n := timed(d, fn)
	r[name] = metric{Value: v / perUnit, Unit: unit, Samples: n}
}

// replayBudget is how long one replay row measures. A traced run has some
// fifty rows, so the whole replay stays within a few seconds.
func replayBudget(smoke bool) time.Duration {
	if smoke {
		return 2 * time.Millisecond
	}
	return 60 * time.Millisecond
}

// ruleSetResolver resolves rule-set names the way a client enclave does:
// shipped sets first, then the community set, then generated provider names.
func ruleSetResolver(shipped map[string]string) func(string) (string, error) {
	community := endbox.CommunityRuleSets()
	return func(name string) (string, error) {
		if text, ok := shipped[name]; ok {
			return text, nil
		}
		if text, ok := community[name]; ok {
			return text, nil
		}
		if text, ok, err := idps.ResolveGenerated(name); ok {
			return text, err
		}
		return "", fmt.Errorf("unknown rule set %q", name)
	}
}

func replayLayers(w workload, in *inputs, seed int64, smoke bool) (rows, error) {
	r := rows{}
	d := replayBudget(smoke)
	pool := in.pools[0]
	next := 0
	pkt := func() []byte {
		p := pool[next]
		if next++; next == len(pool) {
			next = 0
		}
		return p
	}

	// packet: header parse and re-serialisation at the workload's sizes.
	var hdr packet.IPv4
	r.ns("packet.parse_ns", d, func() {
		if err := hdr.Parse(pkt()); err != nil {
			panic(err)
		}
	})
	scratch := make([]byte, 2048)
	r.ns("packet.marshal_ns", d, func() {
		_ = hdr.Parse(pkt())
		hdr.MarshalTo(scratch)
	})
	// MarshalTo needs a parsed header; take the parse back out.
	m := r["packet.marshal_ns"]
	m.Value -= r["packet.parse_ns"].Value
	r["packet.marshal_ns"] = m

	if err := replayClick(w, in, seed, d, r); err != nil {
		return nil, err
	}
	if err := replaySGX(w, d, r); err != nil {
		return nil, err
	}
	// Seal and open are nine tenths of the ledger; they get a longer look.
	if err := replayWire(pool, 4*d, r); err != nil {
		return nil, err
	}
	replaySlab(pool, d, r)
	if err := replayVPNControl(d, smoke, r); err != nil {
		return nil, err
	}
	replayDataplane(len(in.pools), d, r)
	if err := replayAttest(d, r); err != nil {
		return nil, err
	}
	if err := replayConfig(w, seed, d, r); err != nil {
		return nil, err
	}
	if err := replayLifecycle(d, r); err != nil {
		return nil, err
	}
	return r, nil
}

// replayClick times the workload's pipeline, and the IDS engine and flow
// table on their own, over the workload's packet mix.
func replayClick(w workload, in *inputs, seed int64, d time.Duration, r rows) error {
	pool := in.pools[0]
	parsed := make([]*packet.IPv4, len(pool))
	for i, raw := range pool {
		p, err := packet.ParseIPv4(raw)
		if err != nil {
			return err
		}
		parsed[i] = p
	}
	next := 0
	ip := func() *packet.IPv4 {
		p := parsed[next]
		if next++; next == len(parsed) {
			next = 0
		}
		return p
	}

	cfgs := w.rolloutConfigs(seed)
	boot, err := w.bootPipeline().Config()
	if err != nil {
		return err
	}
	other, err := cfgs[1].pipeline.Config()
	if err != nil {
		return err
	}
	newCtx := func() *click.Context {
		return &click.Context{RuleSet: ruleSetResolver(cfgs[1].ruleSets)}
	}
	inst, err := click.NewInstance(boot, nil, newCtx())
	if err != nil {
		return err
	}
	v, allocs, n := timed(d, func() {
		if res := inst.Process(ip()); !res.Accepted {
			panic("replay: pipeline dropped a workload packet")
		}
	})
	r["click.process_ns"] = metric{Value: v, Unit: "ns", Samples: n}
	r["click.process_allocs"] = metric{Value: allocs, Unit: "allocs", Samples: n}

	// Building and hot-swapping the configuration the workload rolls out.
	r.scaled("click.build_ms", "ms", 1e6, d, func() {
		if _, err := click.NewInstance(other, nil, newCtx()); err != nil {
			panic(err)
		}
	})
	toggle := [2]string{other, boot}
	k := 0
	r.scaled("click.swap_ms", "ms", 1e6, d, func() {
		if _, err := inst.Swap(toggle[k%2]); err != nil {
			panic(err)
		}
		k++
	})

	// The IDS engine: the rule set the workload inspects with, or rolls out.
	text, err := ruleSetResolver(cfgs[1].ruleSets)(w.idsRuleSet())
	if err != nil {
		return err
	}
	var engine *idps.Engine
	r.scaled("idps.build_ms", "ms", 1e6, d, func() {
		rules, err := idps.ParseRules(text)
		if err != nil {
			panic(err)
		}
		if engine, err = idps.NewEngine(rules); err != nil {
			panic(err)
		}
	})
	r.ns("idps.match_ns", d, func() { engine.Evaluate(ip()) })

	// The flow table: a lookup that finds its flow, and one that must insert.
	flows := flow.NewContext(flow.Config{Seed: 1})
	for _, p := range parsed {
		flows.Bind(packet.FlowOf(p), int(p.TotalLen))
	}
	r.ns("flow.bind_hit_ns", d, func() {
		p := ip()
		flows.Bind(packet.FlowOf(p), int(p.TotalLen))
	})
	fresh := packet.Flow{Src: packet.AddrFrom(10, 9, 0, 1), Dst: packet.AddrFrom(10, 9, 0, 2), Protocol: packet.ProtoUDP, SrcPort: 1, DstPort: 1}
	inserts := flow.NewContext(flow.Config{Seed: 1})
	count := 0
	r.ns("flow.bind_insert_ns", d, func() {
		// A fresh table before the bound is reached: the row is an insert
		// into free space, not an eviction.
		if count++; count == flow.DefaultCapacity/2 {
			inserts, count = flow.NewContext(flow.Config{Seed: 1}), 0
		}
		fresh.SrcPort++
		if fresh.SrcPort == 0 {
			fresh.DstPort++
		}
		inserts.Bind(fresh, 64)
	})
	return nil
}

// idsRuleSet names the rule set whose engine the replay builds and matches
// with: the one the workload's rollouts ship, else the community set.
func (w workload) idsRuleSet() string {
	if w.fleetRules > 0 {
		return "fleet"
	}
	return "community"
}

// replaySGX times an ecall of a handler that does nothing, in the
// workload's enclave mode.
func replaySGX(w workload, d time.Duration, r rows) error {
	cpu := sgx.NewCPU("replay-cpu")
	encl, err := cpu.CreateEnclave(sgx.Image{Name: "replay", Version: "1", Code: []byte("nop")},
		sgx.Config{Mode: w.mode, BurnCPU: w.burnCPU})
	if err != nil {
		return err
	}
	defer encl.Destroy()
	if err := encl.RegisterEcall("nop", func(*sgx.Ctx, any) (any, error) { return nil, nil }); err != nil {
		return err
	}
	if err := encl.Init(); err != nil {
		return err
	}
	r.ns("sgx.ecall_ns", d, func() {
		if _, err := encl.Ecall("nop", nil); err != nil {
			panic(err)
		}
	})
	return nil
}

// replayWire times sealing and opening at the workload's sizes on an
// encrypted session pair, and one buffer-pool round trip.
func replayWire(pool [][]byte, d time.Duration, r rows) error {
	master := make([]byte, 32)
	if _, err := rand.Read(master); err != nil {
		return err
	}
	cli, err := wire.NewSession(master, wire.ModeEncrypted, true)
	if err != nil {
		return err
	}
	srv, err := wire.NewSession(master, wire.ModeEncrypted, false)
	if err != nil {
		return err
	}
	// A frame opens once (the replay window), so frames are sealed in
	// batches and each batch is then opened in order.
	const batch = 256
	payloads := make([][]byte, batch)
	frames := make([][]byte, batch)
	for i := range payloads {
		payloads[i] = append([]byte{vpn.FrameData}, pool[i%len(pool)]...)
		frames[i] = make([]byte, cli.SealedLen(len(payloads[i])))
	}
	sealed := make([][]byte, batch)
	var sealNs, openNs time.Duration
	rounds := 0
	for sealNs+openNs < 2*d || rounds < 2 {
		t0 := time.Now()
		for i, p := range payloads {
			if sealed[i], err = cli.SealTo(p, frames[i]); err != nil {
				return err
			}
		}
		t1 := time.Now()
		for _, f := range sealed {
			if _, err := srv.OpenInPlace(f); err != nil {
				return err
			}
		}
		if rounds > 0 { // the first round warms up
			sealNs += t1.Sub(t0)
			openNs += time.Since(t1)
		}
		rounds++
	}
	n := (rounds - 1) * batch
	r["wire.seal_ns"] = metric{Value: float64(sealNs.Nanoseconds()) / float64(n), Unit: "ns", Samples: n}
	r["wire.open_ns"] = metric{Value: float64(openNs.Nanoseconds()) / float64(n), Unit: "ns", Samples: n}

	size := len(payloads[0]) + 64
	r.ns("wire.buf_cycle_ns", d, func() { wire.PutBuffer(wire.GetBuffer(size)) })
	return nil
}

// replaySlab times the slab codec per packet of a 32-packet burst: packing
// the request slab, walking it and reserving the result entries on the
// enclave side, and reading the result slab back.
func replaySlab(pool [][]byte, d time.Duration, r rows) {
	slab := make([]byte, 0, burst*2048)
	res := make([]byte, 0, burst*2048)
	at := 0
	v, _, n := timed(d, func() {
		slab, res = slab[:0], res[:0]
		for i := 0; i < burst; i++ {
			slab = vpn.AppendSlabFrame(slab, vpn.FrameData, pool[(at+i)%len(pool)])
		}
		at += burst
		if _, err := vpn.SlabCount(slab); err != nil {
			panic(err)
		}
		rd := vpn.NewSlabReader(slab)
		for {
			entry, ok := rd.Next()
			if !ok {
				break
			}
			res, _ = vpn.AppendResultReserve(res, len(entry))
		}
		rr := vpn.NewResultReader(res)
		for {
			if _, _, ok := rr.Next(); !ok {
				break
			}
		}
	})
	r["vpn.slab_ns"] = metric{Value: v / burst, Unit: "ns", Samples: n * burst}
}

// replayVPNControl times the VPN server's share of a join and of a resume,
// and the heap a session holds.
func replayVPNControl(d time.Duration, smoke bool, r rows) error {
	ias, err := attest.NewIAS()
	if err != nil {
		return err
	}
	ca, err := attest.NewCA(ias)
	if err != nil {
		return err
	}
	srvPub, srvPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	newServer := func() (*vpn.Server, error) {
		return vpn.NewServer(vpn.ServerOptions{CAPub: ca.PublicKey(), Credential: ca.SignServerKey(srvPub), SignKey: srvPriv})
	}
	srv, err := newServer()
	if err != nil {
		return err
	}
	signPub, signPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	cert, err := ca.IssueDirect(attest.EnclaveKeys{SignPub: signPub, BoxPub: make([]byte, 32)})
	if err != nil {
		return err
	}
	sign := func(transcript []byte) ([]byte, error) { return ed25519.Sign(signPriv, transcript), nil }

	var ticket []byte
	r.scaled("vpn.handshake_ms", "ms", 1e6, d, func() {
		hello, _, err := vpn.NewClientHello("replay", cert, 0, vpn.TLS13, sign)
		if err != nil {
			panic(err)
		}
		sh, err := srv.Accept(hello)
		if err != nil {
			panic(err)
		}
		ticket = sh.Ticket
		srv.Disconnect("replay")
	})
	r.scaled("vpn.resume_ms", "ms", 1e6, d, func() {
		req, err := vpn.NewResumeRequest("replay", ticket, 0, sign)
		if err != nil {
			panic(err)
		}
		if _, err := srv.Resume(req); err != nil {
			panic(err)
		}
	})

	// Heap held per established session.
	sessions := 1000
	if smoke {
		sessions = 50
	}
	hold, err := newServer()
	if err != nil {
		return err
	}
	hellos := make([]*vpn.ClientHello, sessions)
	for i := range hellos {
		if hellos[i], _, err = vpn.NewClientHello(fmt.Sprintf("s%d", i), cert, 0, vpn.TLS13, sign); err != nil {
			return err
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, h := range hellos {
		if _, err := hold.Accept(h); err != nil {
			return err
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	r["vpn.bytes_per_session"] = metric{
		Value: (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(sessions), Unit: "B", Samples: sessions,
	}
	runtime.KeepAlive(hold)
	return nil
}

// replayDataplane times a session-table lookup at fleet size and the
// hand-off from a submit to the worker's handler.
func replayDataplane(fleet int, d time.Duration, r rows) {
	table := dataplane.NewTable[int](0)
	ids := make([]string, fleet)
	for i := range ids {
		ids[i] = fmt.Sprintf("c%d", i)
		table.Insert(ids[i], i)
	}
	k := 0
	r.ns("dataplane.table_get_ns", d, func() {
		if _, ok := table.Get(ids[k%fleet]); !ok {
			panic("replay: session table lost an entry")
		}
		k++
	})

	var entered atomic.Int64
	done := make(chan struct{}, 1)
	pool := dataplane.NewPool(2, 0, func(string, []byte) {
		entered.Store(time.Now().UnixNano())
		done <- struct{}{}
	})
	defer pool.Close()
	frame := make([]byte, 64)
	var wait time.Duration
	n := 0
	for wait < d || n < 16 {
		t0 := time.Now().UnixNano()
		if !pool.SubmitOwned(ids[n%fleet], frame, nil) {
			panic("replay: idle pool refused a frame")
		}
		<-done
		wait += time.Duration(entered.Load() - t0)
		n++
	}
	r["dataplane.pool_wait_us"] = metric{Value: us(wait) / float64(n), Unit: "us", Samples: n}
}

// replayAttest times the quoting enclave and the CA's enrolment.
func replayAttest(d time.Duration, r rows) error {
	ias, err := attest.NewIAS()
	if err != nil {
		return err
	}
	ca, err := attest.NewCA(ias)
	if err != nil {
		return err
	}
	cpu := sgx.NewCPU("replay-attest")
	img := sgx.Image{Name: "replay", Version: "1", Code: []byte("attest")}
	encl, err := cpu.CreateEnclave(img, sgx.Config{Mode: sgx.ModeSimulation})
	if err != nil {
		return err
	}
	defer encl.Destroy()
	signPub, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	// A real X25519 public key: enrolment encrypts the shared key to it.
	boxPub, err := newBoxKey()
	if err != nil {
		return err
	}
	keys := attest.EnclaveKeys{SignPub: signPub, BoxPub: boxPub}
	if err := encl.RegisterEcall("report", func(ctx *sgx.Ctx, _ any) (any, error) {
		return ctx.CreateReport(keys.UserData()), nil
	}); err != nil {
		return err
	}
	if err := encl.Init(); err != nil {
		return err
	}
	rep, err := encl.Ecall("report", nil)
	if err != nil {
		return err
	}
	qe, err := attest.NewQuotingEnclave(cpu, "replay-platform")
	if err != nil {
		return err
	}
	ias.RegisterPlatformKey(qe.PlatformID(), qe.VerificationKey())
	ca.AllowMeasurement(img.Measure())

	var quote attest.Quote
	r.scaled("attest.quote_ms", "ms", 1e6, d, func() {
		if quote, err = qe.Quote(rep.(sgx.Report)); err != nil {
			panic(err)
		}
	})
	r.scaled("attest.enroll_ms", "ms", 1e6, d, func() {
		if _, err := ca.Enroll(quote); err != nil {
			panic(err)
		}
	})
	return nil
}

func newBoxKey() ([]byte, error) {
	k, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	return k.PublicKey().Bytes(), nil
}

// replayConfig times sealing and opening the update the workload rolls out.
func replayConfig(w workload, seed int64, d time.Duration, r rows) error {
	ias, err := attest.NewIAS()
	if err != nil {
		return err
	}
	ca, err := attest.NewCA(ias)
	if err != nil {
		return err
	}
	cfg := w.rolloutConfigs(seed)[1]
	text, err := cfg.pipeline.Config()
	if err != nil {
		return err
	}
	u := &config.Update{Version: 1, GraceSeconds: rolloutGrace, ClickConfig: text, RuleSets: cfg.ruleSets}
	var blob []byte
	r.scaled("config.seal_ms", "ms", 1e6, d, func() {
		if blob, err = config.Seal(u, ca.SignConfig, nil); err != nil {
			panic(err)
		}
	})
	r.scaled("config.open_ms", "ms", 1e6, d, func() {
		if _, err := config.Open(blob, ca.PublicKey(), nil); err != nil {
			panic(err)
		}
	})
	return nil
}

// replayLifecycle times the resumption-ticket sealer, the admission gate
// and the liveness touch.
func replayLifecycle(d time.Duration, r rows) error {
	sealer, err := lifecycle.NewTicketSealer(0)
	if err != nil {
		return err
	}
	signPub, _, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return err
	}
	tk := lifecycle.Ticket{ClientID: "replay", SignPub: signPub, Master: make([]byte, 32), IssuedUnixNano: time.Now().UnixNano()}
	var blob []byte
	r.scaled("lifecycle.ticket_seal_us", "us", 1e3, d, func() {
		if blob, err = sealer.Seal(tk); err != nil {
			panic(err)
		}
	})
	now := time.Now().UnixNano()
	r.scaled("lifecycle.ticket_open_us", "us", 1e3, d, func() {
		if _, err := sealer.Open(blob, now); err != nil {
			panic(err)
		}
	})
	gate := lifecycle.NewAdmission(lifecycle.AdmissionConfig{MaxConcurrent: 1 << 20, MaxSessions: 1 << 20})
	r.ns("lifecycle.admit_ns", d, func() {
		release, err := gate.Begin(8, now)
		if err != nil {
			panic(err)
		}
		release()
	})
	entry := lifecycle.NewTracker(time.Minute).Add("replay", now)
	r.ns("lifecycle.touch_ns", d, func() {
		now++
		entry.Touch(now)
	})
	return nil
}
