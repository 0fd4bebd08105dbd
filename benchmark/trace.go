package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"endbox"
	"endbox/internal/core"
	"endbox/internal/vpn"
)

// A traced run records a span — name, start, end, the span that caused it,
// and client plus operation number as the trace id — at every seam the
// deployment exposes: the generator around an operation and around
// Client.SendPacket(s), the client link around SendFrame and FetchConfig,
// the server endpoint around HandleFrame, the transport around
// SendToClient, the link's deliver callback around Client.HandleFrame(s),
// and the observer's two packet events as instants. Nothing inside the
// program is touched.

type spanType uint8

const (
	spanOp           spanType = iota // one data operation, issue to completion
	spanSend                         // Client.SendPacket / SendPackets
	spanSendFrame                    // ClientLink.SendFrame / SendControlFrame
	spanHandleFrame                  // ServerEndpoint.HandleFrame
	spanSendToClient                 // Transport.SendToClient
	spanDeliver                      // deliver callback: Client.HandleFrame / HandleFrames
	spanFetchConfig                  // ClientLink.FetchConfig
	spanDelivered                    // Observer.PacketDelivered (instant)
	spanReceived                     // Observer.PacketReceived (instant)
	nSpanTypes
)

var spanNames = [nSpanTypes]string{
	"op", "core.send", "link.send_frame", "server.handle_frame", "transport.send_to_client",
	"link.deliver", "link.fetch_config", "observer.delivered", "observer.received",
}

// nested lists, per span type, the span types that run inside it on the
// same goroutine; their time is taken off the parent's to give its self
// time. On the in-process transport (sync) a whole round trip is one call
// stack; over UDP the server and the client's receive side run on
// goroutines of their own, where a span caused by another does not lie
// inside it and takes nothing off it.
func nested(t spanType, sync bool) []spanType {
	switch t {
	case spanOp:
		return []spanType{spanSend}
	case spanSend:
		return []spanType{spanSendFrame}
	case spanSendFrame:
		if sync {
			return []spanType{spanHandleFrame}
		}
	case spanHandleFrame:
		return []spanType{spanSendToClient}
	case spanSendToClient:
		if sync {
			return []spanType{spanDeliver}
		}
	case spanDeliver:
		// A ping announcing a new version makes the client fetch and apply
		// it and report back, all inside the deliver callback.
		if sync {
			return []spanType{spanFetchConfig, spanSendFrame}
		}
		return []spanType{spanFetchConfig}
	}
	return nil
}

// spanRec is one finished span as the ring keeps it. Times are nanoseconds
// since the tracer started.
type spanRec struct {
	client     uint16
	typ        spanType
	op         uint32
	id, parent uint32
	start, end int64
}

// openSpan is a span between begin and end.
type openSpan struct {
	typ      spanType
	id       uint32
	parent   uint32
	prevOpen uint32
	start    int64
	before   [2]int64 // the nested types' cumulative time when the span began
}

const ringSize = 1 << 16

// causeQueue carries, in order, the spans on one goroutine that cause spans
// on another: the k-th frame a client sends is the k-th the server handles.
type causeQueue struct {
	mu         sync.Mutex
	ids        [4096]uint32
	at         [4096]int64
	head, tail uint64
}

func (q *causeQueue) push(id uint32, at int64) {
	q.mu.Lock()
	q.ids[q.tail%uint64(len(q.ids))], q.at[q.tail%uint64(len(q.at))] = id, at
	q.tail++
	if q.tail-q.head > uint64(len(q.ids)) {
		q.head = q.tail - uint64(len(q.ids))
	}
	q.mu.Unlock()
}

func (q *causeQueue) pop() (id uint32, at int64, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == q.tail {
		return 0, 0, false
	}
	id, at = q.ids[q.head%uint64(len(q.ids))], q.at[q.head%uint64(len(q.at))]
	q.head++
	return id, at, true
}

// clientTrace is the trace state of one long-lived client.
type clientTrace struct {
	tr  *tracer
	idx uint16
	op  atomic.Uint32 // number of the operation in flight; a closed loop has one

	nextID atomic.Uint32
	open   [nSpanTypes]atomic.Uint32 // id of the span of each type now open
	total  [nSpanTypes]atomic.Int64  // cumulative duration of finished spans
	self   [nSpanTypes]atomic.Int64  // cumulative self time
	count  [nSpanTypes]atomic.Int64

	up, down  causeQueue   // send_frame -> handle_frame, send_to_client -> deliver
	wireNs    atomic.Int64 // SendFrame call to HandleFrame entry, summed (UDP only)
	wireCount atomic.Int64
	ring      []spanRec // the latest ringSize spans
	ringPos   atomic.Uint64
}

// tracer owns the spans of one traced run.
type tracer struct {
	base time.Time
	sync bool
	byID map[string]*clientTrace // complete before the deployment exists
	all  []*clientTrace
	on   atomic.Bool
	// rings is held shared to record a span and exclusively to write the
	// rings out: over UDP a server or receive goroutine may still be
	// finishing a span when the window's last operation has completed.
	rings sync.RWMutex
}

func newTracer(sync bool) *tracer {
	return &tracer{base: time.Now(), sync: sync, byID: make(map[string]*clientTrace)}
}

func (tr *tracer) client(id string, idx int) *clientTrace {
	ct := &clientTrace{tr: tr, idx: uint16(idx), ring: make([]spanRec, ringSize)}
	tr.byID[id] = ct
	tr.all = append(tr.all, ct)
	return ct
}

// now and since give a time as the tracer records it: nanoseconds since it
// started.
func (tr *tracer) now() int64              { return int64(time.Since(tr.base)) }
func (tr *tracer) since(t time.Time) int64 { return int64(t.Sub(tr.base)) }

func (ct *clientTrace) begin(typ spanType, parent uint32, at int64) openSpan {
	s := openSpan{typ: typ, id: ct.nextID.Add(1), parent: parent, start: at}
	for i, n := range nested(typ, ct.tr.sync) {
		s.before[i] = ct.total[n].Load()
	}
	s.prevOpen = ct.open[typ].Swap(s.id)
	return s
}

func (ct *clientTrace) end(s openSpan, at int64) {
	ct.open[s.typ].Store(s.prevOpen)
	dur := at - s.start
	self := dur
	for i, n := range nested(s.typ, ct.tr.sync) {
		self -= ct.total[n].Load() - s.before[i]
	}
	ct.total[s.typ].Add(dur)
	ct.self[s.typ].Add(self)
	ct.count[s.typ].Add(1)
	ct.record(spanRec{client: ct.idx, typ: s.typ, op: ct.op.Load(), id: s.id, parent: s.parent, start: s.start, end: at})
}

func (ct *clientTrace) record(r spanRec) {
	ct.tr.rings.RLock()
	ct.ring[(ct.ringPos.Add(1)-1)%ringSize] = r
	ct.tr.rings.RUnlock()
}

// stamp records an observer event as an instant inside whichever span
// carries the packet at that point.
func (tr *tracer) stamp(ct *clientTrace, typ spanType) {
	if ct == nil || !tr.on.Load() {
		return
	}
	parent := ct.open[spanHandleFrame].Load()
	if typ == spanReceived {
		parent = ct.open[spanDeliver].Load()
	}
	at := tr.now()
	ct.count[typ].Add(1)
	ct.record(spanRec{client: ct.idx, typ: typ, op: ct.op.Load(), id: ct.nextID.Add(1), parent: parent, start: at, end: at})
}

// write dumps the rings, oldest span first, as CSV.
func (tr *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tr.rings.Lock()
	defer tr.rings.Unlock()
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "client,op,id,parent,name,start_ns,end_ns")
	for _, ct := range tr.all {
		n := ct.ringPos.Load()
		first := uint64(0)
		if n > ringSize {
			first = n - ringSize
		}
		for p := first; p < n; p++ {
			r := ct.ring[p%ringSize]
			fmt.Fprintf(w, "%d,%d,%d,%d,%s,%d,%d\n", r.client, r.op, r.id, r.parent, spanNames[r.typ], r.start, r.end)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sum adds one per-type counter up over all clients.
func (tr *tracer) sum(pick func(*clientTrace) int64) int64 {
	var n int64
	for _, ct := range tr.all {
		n += pick(ct)
	}
	return n
}

func (tr *tracer) selfNs(t spanType) int64 {
	return tr.sum(func(ct *clientTrace) int64 { return ct.self[t].Load() })
}

func (tr *tracer) totalNs(t spanType) int64 {
	return tr.sum(func(ct *clientTrace) int64 { return ct.total[t].Load() })
}

func (tr *tracer) spans(t spanType) int64 {
	return tr.sum(func(ct *clientTrace) int64 { return ct.count[t].Load() })
}

// tracedTransport decorates the deployment's transport. It forwards every
// optional capability of the transport it wraps, and its links and server
// endpoint do the same, because the deployment and the UDP transport find
// those capabilities by type assertion: a decoration that hid one would make
// the traced run take another code path without any error.
type tracedTransport struct {
	inner endbox.Transport
	tr    *tracer
}

func (t *tracedTransport) BindServer(ep endbox.ServerEndpoint) error {
	return t.inner.BindServer(&tracedEndpoint{ServerEndpoint: ep, tr: t.tr})
}

func (t *tracedTransport) SendToClient(id string, frame []byte) error {
	ct := t.tr.byID[id]
	if ct == nil || !t.tr.on.Load() {
		return t.inner.SendToClient(id, frame)
	}
	s := ct.begin(spanSendToClient, ct.open[spanHandleFrame].Load(), t.tr.now())
	if !t.tr.sync {
		ct.down.push(s.id, s.start)
	}
	err := t.inner.SendToClient(id, frame)
	ct.end(s, t.tr.now())
	return err
}

func (t *tracedTransport) Close() error { return t.inner.Close() }

// SetWorkers implements core.WorkerTransport.
func (t *tracedTransport) SetWorkers(n int) {
	if wt, ok := t.inner.(core.WorkerTransport); ok {
		wt.SetWorkers(n)
	}
}

// SetRetransmit implements core.ReliableTransport.
func (t *tracedTransport) SetRetransmit(cfg endbox.RetransmitConfig) {
	if rt, ok := t.inner.(core.ReliableTransport); ok {
		rt.SetRetransmit(cfg)
	}
}

// SetLossProfile implements core.LossyTransport.
func (t *tracedTransport) SetLossProfile(p endbox.LossProfile) {
	if lt, ok := t.inner.(core.LossyTransport); ok {
		lt.SetLossProfile(p)
	}
}

// Link wraps the client's link, keeping its capability set exactly: the
// in-process link can resume and nothing else, the UDP link can also send
// control-class frames and deliver in batches. Any other combination is
// refused, so a new capability cannot go unforwarded unnoticed.
func (t *tracedTransport) Link(ctx context.Context, id string) (endbox.ClientLink, error) {
	inner, err := t.inner.Link(ctx, id)
	if err != nil {
		return nil, err
	}
	ct := t.tr.byID[id]
	if ct == nil {
		return inner, nil // churn clients come and go untraced
	}
	control, _ := inner.(core.ControlLink)
	resume, _ := inner.(core.ResumeLink)
	batch, _ := inner.(core.BatchClientLink)
	base := tracedLink{ClientLink: inner, resume: resume, ct: ct, tr: t.tr}
	switch {
	case resume != nil && control == nil && batch == nil:
		return &base, nil
	case resume != nil && control != nil && batch != nil:
		return &tracedBatchLink{tracedLink: base, control: control, batch: batch}, nil
	default:
		inner.Close()
		return nil, fmt.Errorf("traced transport: link %T has a capability set this benchmark does not forward (control=%t resume=%t batch=%t)",
			inner, control != nil, resume != nil, batch != nil)
	}
}

// tracedLink decorates a link that implements core.ResumeLink and no other
// optional capability (the in-process link).
type tracedLink struct {
	endbox.ClientLink
	resume core.ResumeLink
	ct     *clientTrace
	tr     *tracer
}

func (l *tracedLink) Resume(ctx context.Context, r *vpn.ResumeRequest) (*vpn.ResumeReply, error) {
	return l.resume.Resume(ctx, r)
}

// sendFrameParent is the span a frame is sent from: an operation's send, or
// the deliver callback when the client answers a server ping.
func (l *tracedLink) sendFrameParent() uint32 {
	if id := l.ct.open[spanDeliver].Load(); id != 0 && l.tr.sync {
		return id
	}
	return l.ct.open[spanSend].Load()
}

func (l *tracedLink) traceSend(frame []byte, send func([]byte) error) error {
	if !l.tr.on.Load() {
		return send(frame)
	}
	s := l.ct.begin(spanSendFrame, l.sendFrameParent(), l.tr.now())
	if !l.tr.sync {
		l.ct.up.push(s.id, s.start)
	}
	err := send(frame)
	l.ct.end(s, l.tr.now())
	return err
}

func (l *tracedLink) SendFrame(frame []byte) error { return l.traceSend(frame, l.ClientLink.SendFrame) }

func (l *tracedLink) FetchConfig(ctx context.Context, version uint64) ([]byte, error) {
	if !l.tr.on.Load() {
		return l.ClientLink.FetchConfig(ctx, version)
	}
	s := l.ct.begin(spanFetchConfig, l.ct.open[spanDeliver].Load(), l.tr.now())
	blob, err := l.ClientLink.FetchConfig(ctx, version)
	l.ct.end(s, l.tr.now())
	return blob, err
}

// deliverSpan opens the span around a deliver callback that hands over n
// frames; over UDP its cause is the SendToClient of the first of them.
func (l *tracedLink) deliverSpan(n int) openSpan {
	parent := l.ct.open[spanSendToClient].Load()
	if !l.tr.sync {
		parent = 0
		for i := 0; i < n; i++ {
			if id, _, ok := l.ct.down.pop(); ok && i == 0 {
				parent = id
			}
		}
	}
	return l.ct.begin(spanDeliver, parent, l.tr.now())
}

func (l *tracedLink) SetDeliver(fn func(frame []byte) error) {
	l.ClientLink.SetDeliver(func(frame []byte) error {
		if !l.tr.on.Load() {
			return fn(frame)
		}
		s := l.deliverSpan(1)
		err := fn(frame)
		l.ct.end(s, l.tr.now())
		return err
	})
}

// tracedBatchLink decorates a link that implements every optional link
// capability (the UDP link).
type tracedBatchLink struct {
	tracedLink
	control core.ControlLink
	batch   core.BatchClientLink
}

func (l *tracedBatchLink) SendControlFrame(frame []byte) error {
	return l.traceSend(frame, l.control.SendControlFrame)
}

func (l *tracedBatchLink) SetDeliverBatch(fn func(frames [][]byte) error) {
	l.batch.SetDeliverBatch(func(frames [][]byte) error {
		if !l.tr.on.Load() {
			return fn(frames)
		}
		s := l.deliverSpan(len(frames))
		err := fn(frames)
		l.ct.end(s, l.tr.now())
		return err
	})
}

// tracedEndpoint decorates the server endpoint the transport dispatches
// into.
type tracedEndpoint struct {
	endbox.ServerEndpoint
	tr *tracer
}

func (e *tracedEndpoint) HandleFrame(id string, frame []byte) error {
	ct := e.tr.byID[id]
	if ct == nil || !e.tr.on.Load() {
		return e.ServerEndpoint.HandleFrame(id, frame)
	}
	at := e.tr.now()
	parent := ct.open[spanSendFrame].Load()
	if !e.tr.sync {
		var sentAt int64
		var ok bool
		if parent, sentAt, ok = ct.up.pop(); ok {
			ct.wireNs.Add(at - sentAt)
			ct.wireCount.Add(1)
		}
	}
	s := ct.begin(spanHandleFrame, parent, at)
	err := e.ServerEndpoint.HandleFrame(id, frame)
	ct.end(s, e.tr.now())
	return err
}

// FrameShed implements udptransport.ShedCounter, which the UDP transport
// looks for on the endpoint it is bound to.
func (e *tracedEndpoint) FrameShed(id string) {
	if sc, ok := e.ServerEndpoint.(interface{ FrameShed(string) }); ok {
		sc.FrameShed(id)
	}
}
