package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"endbox"
	"endbox/internal/packet"
	"endbox/internal/udptransport"
	"endbox/internal/vpn"
)

// latSample is one completed data operation: when it ended, in microseconds
// since the generators started, and how many nanoseconds it took. Eight
// bytes a sample keeps a client's preallocated record small.
type latSample struct {
	atUs   uint32
	tookNs uint32
}

// client is one long-lived benchmark client: the endbox client, its seeded
// packet stream, the counters the observer updates and the state of the one
// generator goroutine that drives it.
type client struct {
	idx     int
	id      string
	cli     *endbox.Client
	pool    [][]byte
	crafted []bool
	echo    bool
	trace   *clientTrace // nil unless the run is traced

	// Updated from observer callbacks, on whichever goroutine carries the
	// packet; padded apart from the generator's fields.
	_         [64]byte
	delivered atomic.Uint64 // packets accepted into the managed network
	received  atomic.Uint64 // packets back at the client application
	bytes     atomic.Uint64 // IP bytes of completed packets
	alerts    atomic.Uint64
	want      atomic.Uint64 // completion count the operation in flight waits for
	done      chan struct{}
	_         [64]byte

	// driving is 1 while a generator goroutine is inside an operation; a
	// second goroutine finding it set is the failure the Go benchmarks hit.
	driving      atomic.Int32
	doubleDriven atomic.Uint64

	// Owned by the generator goroutine; read after it has exited.
	pos          int
	base         uint64 // completions expected once every issued operation has completed
	opNo         uint32
	timer        *time.Timer
	lat1, lat32  []latSample
	latDropped   uint64
	attempted    uint64
	failed       uint64
	sentPackets  uint64 // packets handed to the client that the pipeline must forward
	craftedSent  uint64
	canariesSent uint64
	canariesBad  uint64
}

// completed is the counter an operation's completion is read from: echoes
// back at the client app, or packets in the managed network on a one-way
// workload.
func (c *client) completed() *atomic.Uint64 {
	if c.echo {
		return &c.received
	}
	return &c.delivered
}

// await blocks until target completions have been observed or wait passes.
func (c *client) await(target uint64, wait time.Duration) bool {
	done := c.completed()
	if done.Load() >= target {
		return true // in-process transports complete on the caller's stack
	}
	c.want.Store(target)
	c.timer.Reset(wait)
	defer c.timer.Stop()
	for {
		if done.Load() >= target {
			return true
		}
		select {
		case <-c.done:
		case <-c.timer.C:
			return done.Load() >= target
		}
	}
}

// watch is the deployment's Observer: it counts completions per client,
// wakes waiting generators and runs the per-packet output checks.
type watch struct {
	byID map[string]*client // complete before the deployment exists; read-only afterwards
	echo bool
	tr   *tracer

	mismatched atomic.Uint64 // sampled packets that differ from what was sent
	bypassed   atomic.Uint64 // canary packets that reached the managed network
	verified   atomic.Uint64
}

func (o *watch) PacketDelivered(id string, ip []byte) {
	c := o.byID[id]
	if c == nil {
		return
	}
	if len(ip) >= packet.IPv4HeaderLen && packet.Addr(ip[12:16]) == canarySrc {
		o.bypassed.Add(1)
		return
	}
	if o.tr != nil {
		o.tr.stamp(c.trace, spanDelivered)
	}
	n := c.delivered.Add(1)
	if !o.echo {
		o.completed(c, n, ip)
	}
}

// completed accounts for the n-th completed packet of c: its bytes, the
// sampled comparison, and the wake-up of a generator waiting for it.
func (o *watch) completed(c *client, n uint64, ip []byte) {
	c.bytes.Add(uint64(len(ip)))
	if n%verifyEvery == 0 {
		o.verify(c, ip)
	}
	if n == c.want.Load() {
		select {
		case c.done <- struct{}{}:
		default:
		}
	}
}

func (o *watch) PacketReceived(id string, ip []byte) {
	c := o.byID[id]
	if c == nil {
		return
	}
	if o.tr != nil {
		o.tr.stamp(c.trace, spanReceived)
	}
	o.completed(c, c.received.Add(1), ip)
}

func (o *watch) Alert(id string, _ endbox.Alert) {
	if c := o.byID[id]; c != nil {
		c.alerts.Add(1)
	}
}

// verify compares a delivered packet with the generated packet its IP
// identification names: byte for byte on a one-way path (the type-of-service
// byte, which the server may scrub, and the checksum over it aside), and
// with source and destination swapped on an echo.
func (o *watch) verify(c *client, got []byte) {
	o.verified.Add(1)
	var g, s packet.IPv4
	if err := g.Parse(got); err != nil || int(g.ID) >= len(c.pool) {
		o.mismatched.Add(1)
		return
	}
	if err := s.Parse(c.pool[g.ID]); err != nil {
		o.mismatched.Add(1)
		return
	}
	if o.echo {
		s.Src, s.Dst = s.Dst, s.Src
	}
	same := g.Src == s.Src && g.Dst == s.Dst && g.Protocol == s.Protocol && g.TTL == s.TTL &&
		g.Flags == s.Flags && g.FragOff == s.FragOff && string(g.Payload) == string(s.Payload)
	if !same {
		o.mismatched.Add(1)
	}
}

// heldTransport keeps the sockets of closed client links open until the
// transport itself closes. The UDP transport's server remembers, per client
// address, which reliable transfers it has completed; a new link that the
// kernel gives a recently freed port restarts its transfer ids and is
// answered with duplicate acks and nothing else, stalling the join (README,
// "Why churn is not over UDP"). Holding the ports keeps a churn segment over
// UDP clear of that bug without touching the path that is measured.
type heldTransport struct {
	*udptransport.Transport
	mu   sync.Mutex
	held []*udptransport.Link
}

func (t *heldTransport) Link(ctx context.Context, id string) (endbox.ClientLink, error) {
	l, err := t.Transport.Link(ctx, id)
	if err != nil {
		return nil, err
	}
	return &heldLink{Link: l.(*udptransport.Link), t: t}, nil
}

func (t *heldTransport) Close() error {
	t.mu.Lock()
	held := t.held
	t.held = nil
	t.mu.Unlock()
	for _, l := range held {
		l.Close()
	}
	return t.Transport.Close()
}

type heldLink struct {
	*udptransport.Link
	t *heldTransport
}

func (l *heldLink) Close() error {
	l.t.mu.Lock()
	l.t.held = append(l.t.held, l.Link)
	l.t.mu.Unlock()
	return nil
}

// env is one workload's system under test: the deployment, its long-lived
// clients and, for workloads that churn in-process beside a UDP data path,
// the deployment the churn segment runs on.
type env struct {
	w       workload
	in      *inputs
	d       *endbox.Deployment
	udp     *heldTransport // nil on the in-process transport
	churnOn *endbox.Deployment
	clients []*client
	obs     *watch
	tr      *tracer
	start   time.Time // generators' time origin
	// pacing is set while a probed workload's rollouts run beside its
	// generators, which then add the workload's think time.
	pacing atomic.Bool
}

func (w workload) spec() endbox.ClientSpec {
	return endbox.ClientSpec{Mode: w.mode, BurnCPU: w.burnCPU, Pipeline: w.bootPipeline()}
}

// buildEnv sets a workload's deployment and clients up. tr is nil for an
// untraced run; a traced run differs only in the transport and observer
// decorations.
func buildEnv(w workload, in *inputs, tr *tracer) (*env, error) {
	e := &env{w: w, in: in, tr: tr}
	e.obs = &watch{byID: make(map[string]*client, len(in.pools)), echo: w.echo, tr: tr}
	for i, pool := range in.pools {
		c := &client{
			idx: i, id: fmt.Sprintf("c%d", i), pool: pool, crafted: in.crafted[i], echo: w.echo,
			done: make(chan struct{}, 1), timer: time.NewTimer(time.Hour),
		}
		c.timer.Stop()
		if tr != nil {
			c.trace = tr.client(c.id, i)
		}
		e.clients = append(e.clients, c)
		e.obs.byID[c.id] = c
	}

	opts := []endbox.Option{endbox.WithObserver(e.obs)}
	var transport endbox.Transport
	if w.udp {
		e.udp = &heldTransport{Transport: endbox.NewUDPTransport("127.0.0.1:0")}
		transport = e.udp
		opts = append(opts, endbox.WithUDPWorkers(2))
	} else if tr != nil {
		transport = endbox.NewInProcessTransport()
	}
	if tr != nil {
		transport = &tracedTransport{inner: transport, tr: tr}
	}
	if transport != nil {
		opts = append(opts, endbox.WithTransport(transport))
	}
	if w.echo {
		opts = append(opts, endbox.WithEchoNetwork())
	}
	d, err := endbox.New(opts...)
	if err != nil {
		return nil, err
	}
	e.d = d
	e.churnOn = d
	if w.udp && w.churnInProcess {
		if e.churnOn, err = endbox.New(); err != nil {
			e.close()
			return nil, err
		}
	}
	for _, c := range e.clients {
		ctx, cancel := context.WithTimeout(context.Background(), controlWait)
		c.cli, err = d.AddClient(ctx, c.id, w.spec())
		cancel()
		if err != nil {
			e.close()
			return nil, fmt.Errorf("set-up: add client %s: %w", c.id, err)
		}
		if addr, _ := d.ClientAddr(c.id); addr != clientAddr(c.idx) {
			e.close()
			return nil, fmt.Errorf("set-up: client %s got tunnel address %v, inputs were generated for %v", c.id, addr, clientAddr(c.idx))
		}
	}
	return e, nil
}

func (e *env) close() {
	if e.churnOn != nil && e.churnOn != e.d {
		e.churnOn.Close()
	}
	if e.d != nil {
		e.d.Close()
	}
}

// snapshot is one reading of the counters the windowed metrics derive from.
type snapshot struct {
	at     time.Duration
	pkts   uint64
	bytes  uint64
	cpu    time.Duration
	allocs uint64
}

func (e *env) snapshot() snapshot {
	s := snapshot{at: time.Since(e.start), cpu: processCPU(), allocs: heapAllocs()}
	for _, c := range e.clients {
		s.pkts += c.completed().Load()
		s.bytes += c.bytes.Load()
	}
	return s
}

// generate is the closed loop of one client: it issues the workload's next
// data operation when the previous one has completed (plus the think time
// of a paced workload) until stop is set or maxOps operations were issued.
func (e *env) generate(c *client, stop *atomic.Bool, maxOps int) {
	w := e.w
	nextCanary := time.Now().Add(canaryEvery / 2)
	var next time.Time
	for i := 0; !stop.Load() && (maxOps == 0 || i < maxOps); i++ {
		if w.pace > 0 && e.pacing.Load() {
			if next.IsZero() {
				next = time.Now()
			}
			next = next.Add(w.pace)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			} else {
				next = time.Now() // never burst to catch up: the loop stays closed
			}
		}
		if !c.driving.CompareAndSwap(0, 1) {
			c.doubleDriven.Add(1)
		}
		if w.canary && time.Now().After(nextCanary) {
			nextCanary = nextCanary.Add(canaryEvery)
			e.sendCanary(c)
		}
		e.dataOp(c, w.ops[i%len(w.ops)], true)
		c.driving.Store(0)
	}
}

// sendCanary sends the packet stock firewall rule 1 drops. The drop is the
// expected outcome, so it is not a failure; anything else is.
func (e *env) sendCanary(c *client) {
	c.attempted++
	c.canariesSent++
	if err := c.cli.SendPacket(e.in.canary); !errors.Is(err, vpn.ErrDropped) {
		c.failed++
		c.canariesBad++
	}
}

// dataOp sends the next n packets of the client's stream as one operation
// and waits for every one of them to complete.
func (e *env) dataOp(c *client, n int, record bool) {
	if c.pos+n > len(c.pool) {
		c.pos = 0
	}
	pkts := c.pool[c.pos : c.pos+n]
	for k := c.pos; k < c.pos+n; k++ {
		if c.crafted[k] {
			c.craftedSent++
		}
	}
	c.pos += n
	c.opNo++
	c.attempted++
	c.base += uint64(n)

	var op, send openSpan
	traced := c.trace != nil && e.tr.on.Load()
	start := time.Now()
	if traced {
		c.trace.op.Store(c.opNo)
		op = c.trace.begin(spanOp, 0, e.tr.since(start))
		send = c.trace.begin(spanSend, op.id, op.start)
	}
	sent, err := n, error(nil)
	if n == 1 {
		err = c.cli.SendPacket(pkts[0])
	} else {
		sent, err = c.cli.SendPackets(pkts)
	}
	if traced {
		c.trace.end(send, e.tr.now())
	}
	ok := err == nil && sent == n && c.await(c.base, echoWait)
	end := time.Now()
	if traced {
		c.trace.end(op, e.tr.since(end))
	}
	if !ok {
		c.failed++
		// Let stragglers land, then expect nothing more from this operation.
		time.Sleep(echoWait / 10)
		c.base = c.completed().Load()
		c.sentPackets += uint64(sent)
		return
	}
	c.sentPackets += uint64(n)
	if !record {
		return
	}
	s := latSample{atUs: uint32(end.Sub(e.start) / time.Microsecond), tookNs: uint32(end.Sub(start))}
	switch {
	case n == 1 && len(c.lat1) < cap(c.lat1):
		c.lat1 = append(c.lat1, s)
	case n != 1 && len(c.lat32) < cap(c.lat32):
		c.lat32 = append(c.lat32, s)
	default:
		c.latDropped++
	}
}

// dataWindow is what one run of the generators leaves behind.
type dataWindow struct {
	from, to time.Duration // the measured part, on the generators' clock
	snaps    []snapshot
	ecalls   uint64 // enclave ecalls of all clients over the whole run
	crossing uint64 // enclave boundary crossings, likewise
	packets  uint64 // completions over the whole run
}

// runGenerators starts one generator goroutine per client, lets them warm
// up, samples the counters over the measured duration and stops them. If
// tail is not nil it runs on the caller's goroutine after the measured
// window with the generators still going (the rollout segment of a probed
// workload): their operations then still count as attempted or failed, and
// no longer towards the window's metrics.
func (e *env) runGenerators(warm, measure time.Duration, maxOps int, tail func()) dataWindow {
	// Room for more operations a second than any workload completes per
	// client (lone UDP echoes reach some 80,000); a run that outgrows it
	// fails its checks.
	const perSec = 200000
	want := int((warm+measure).Seconds()*perSec) + 4096
	for _, c := range e.clients {
		if cap(c.lat1) < want {
			c.lat1, c.lat32 = make([]latSample, 0, want), make([]latSample, 0, want)
		}
		c.lat1, c.lat32 = c.lat1[:0], c.lat32[:0]
		c.base = c.completed().Load()
	}
	before := e.enclaveStats()
	pktsBefore := e.snapshotPackets()

	var stop atomic.Bool
	var wg sync.WaitGroup
	e.start = time.Now()
	for _, c := range e.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			e.generate(c, &stop, maxOps)
		}(c)
	}

	win := dataWindow{}
	if maxOps > 0 {
		wg.Wait() // a fixed amount of work: no sampling, the counts are the result
	} else {
		time.Sleep(warm)
		win.from = time.Since(e.start)
		win.snaps = append(win.snaps, e.snapshot())
		// Sampling slices of sliceWidth, a whole number of them; a short run
		// still gets eight.
		slices := int(measure / sliceWidth)
		if slices < 8 {
			slices = 8
		}
		for i := 0; i < slices; i++ {
			time.Sleep(measure / time.Duration(slices))
			win.snaps = append(win.snaps, e.snapshot())
		}
		win.to = time.Since(e.start)
		if tail != nil {
			e.pacing.Store(true)
			tail()
			e.pacing.Store(false)
		}
		stop.Store(true)
		wg.Wait()
	}
	after := e.enclaveStats()
	win.ecalls = after.Ecalls - before.Ecalls
	win.crossing = after.Transitions - before.Transitions
	win.packets = e.snapshotPackets() - pktsBefore
	return win
}

func (e *env) snapshotPackets() uint64 {
	var n uint64
	for _, c := range e.clients {
		n += c.completed().Load()
	}
	return n
}

// enclaveStats sums the boundary counters of the long-lived clients.
func (e *env) enclaveStats() (sum struct{ Ecalls, Transitions uint64 }) {
	for _, c := range e.clients {
		st := c.cli.EnclaveStats()
		sum.Ecalls += st.Ecalls
		sum.Transitions += st.Transitions
	}
	return sum
}
