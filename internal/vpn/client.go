package vpn

import (
	"fmt"
	"sync"
	"time"

	"endbox/internal/wire"
)

// ClientOptions configures a VPN client endpoint.
type ClientOptions struct {
	// ID identifies the client to the server. Required.
	ID string
	// Plane seals and opens data-channel slabs. For EndBox this wraps the
	// enclave (one ecall per slab); for vanilla OpenVPN it is a
	// PlainDataPlane. Required.
	Plane DataPlane
	// Send transmits frames to the server. Required.
	Send func(frame []byte) error
	// SendControl transmits control-class frames (pings, nacks, health
	// reports) to the server. Transports that distinguish delivery classes
	// route these past the overload-shedding watermark so they survive a
	// data flood. Optional; defaults to Send.
	SendControl func(frame []byte) error
	// Deliver hands decrypted, accepted inbound packets to local
	// applications. Optional. The ip slice is only valid for the duration
	// of the call (it aliases a pooled buffer); implementations that keep
	// packets must copy.
	Deliver func(ip []byte)
	// OnAnnounce fires when a server ping announces a configuration
	// version newer than the client's. The core update loop fetches and
	// applies the configuration from here (paper Fig. 5 step 5). Optional.
	OnAnnounce func(version uint64, grace time.Duration)
	// ConfigVersion reports the currently applied middlebox configuration
	// version for inclusion in pings. Optional; defaults to 0.
	ConfigVersion func() uint64
	// Clock is the time source (default time.Now).
	Clock Clock
}

// Client is the user-space VPN client endpoint. All sensitive work happens
// in the injected DataPlane; the client handles framing, ping multiplexing
// and delivery — the parts the paper leaves outside the enclave (Fig. 3:
// fragmentation, encapsulation, socket I/O).
type Client struct {
	opts ClientOptions

	mu       sync.Mutex
	lastPing Ping
	pingSeen bool
}

// NewClient validates options and creates the endpoint.
func NewClient(opts ClientOptions) (*Client, error) {
	if opts.ID == "" {
		return nil, fmt.Errorf("vpn: ClientOptions.ID required")
	}
	if opts.Plane == nil {
		return nil, fmt.Errorf("vpn: ClientOptions.Plane required")
	}
	if opts.Send == nil {
		return nil, fmt.Errorf("vpn: ClientOptions.Send required")
	}
	if opts.SendControl == nil {
		opts.SendControl = opts.Send
	}
	if opts.Clock == nil {
		opts.Clock = time.Now
	}
	if opts.ConfigVersion == nil {
		opts.ConfigVersion = func() uint64 { return 0 }
	}
	return &Client{opts: opts}, nil
}

// SendPacket tunnels one IP packet — SendPackets with a slab of one. A
// middlebox drop is reported as ErrDropped.
func (c *Client) SendPacket(ip []byte) error {
	one := [1][]byte{ip}
	_, err := c.SendPackets(one[:])
	return err
}

// SendPackets tunnels a batch of IP packets: the batch is packed into
// pooled request slabs, each slab crosses the data plane once (Click + seal
// inside the enclave for EndBox) and the resulting frames are transmitted.
// Middlebox drops skip the affected packet without aborting the batch. It
// returns the number of frames handed to the transport and the first error
// encountered (drops included).
func (c *Client) SendPackets(ips [][]byte) (int, error) {
	return c.runSlabBatch(ips,
		func(slab, ip []byte) []byte { return AppendSlabFrame(slab, FrameData, ip) },
		func(ip []byte) int { return SlabSize(1 + len(ip)) },
		c.opts.Plane.SealSlab,
		c.opts.Send,
	)
}

// sendControl seals one already-encapsulated control payload (ping, nack,
// health report) as a slab of one and transmits it in the control class.
func (c *Client) sendControl(payload []byte) error {
	one := [1][]byte{payload}
	_, err := c.runSlabBatch(one[:], AppendSlabEntry, slabEntrySize, c.opts.Plane.SealSlab, c.opts.SendControl)
	return err
}

// slabEntrySize is the slab bytes a verbatim entry occupies.
func slabEntrySize(entry []byte) int { return SlabSize(len(entry)) }

// runSlabBatch is the shared chunk-and-flush skeleton of the slab data
// paths: pack items into pooled request slabs, cross the boundary once per
// slab, and hand each successful result entry to consume. Chunking is
// bounded by budget in BOTH directions — the request slab must fit one
// boundary crossing, and so must the result slab, whose size is bounded by
// the request bytes plus slabResultOverhead per entry (AppendResultErr's
// message cap makes that bound sound even for error-dominated results).
// It returns the number of entries consumed without error and the first
// per-entry error (a malformed slab or boundary failure aborts instead).
func (c *Client) runSlabBatch(
	items [][]byte,
	appendEntry func(slab, item []byte) []byte,
	entrySize func(item []byte) int,
	cross func(slab []byte) ([]byte, error),
	consume func(data []byte) error,
) (int, error) {
	budget := c.opts.Plane.SlabBudget()
	want := 0
	for _, item := range items {
		want += entrySize(item)
	}
	if want > budget {
		want = budget
	}
	slab := wire.GetBuffer(want)[:0]
	defer func() { wire.PutBuffer(slab) }()

	done, count := 0, 0
	var firstErr error
	flush := func() error {
		if count == 0 {
			return nil
		}
		res, err := cross(slab)
		if err != nil {
			return err
		}
		r := NewResultReader(res)
		for {
			data, entryErr, ok := r.Next()
			if !ok {
				break
			}
			if entryErr == nil {
				entryErr = consume(data)
				if entryErr == nil {
					done++
				}
			}
			if entryErr != nil && firstErr == nil {
				firstErr = entryErr
			}
		}
		err = r.Err()
		wire.PutBuffer(res)
		slab = slab[:0]
		count = 0
		return err
	}

	for _, item := range items {
		need := entrySize(item)
		if need+slabResultOverhead > budget {
			// Too large to ever cross the boundary, even alone in a slab:
			// fail this item and keep the rest of the batch going.
			if firstErr == nil {
				firstErr = fmt.Errorf("vpn: packet of %d bytes exceeds the %d-byte slab budget", need, budget)
			}
			continue
		}
		if count > 0 && len(slab)+need+(count+1)*slabResultOverhead > budget {
			if err := flush(); err != nil {
				return done, err
			}
		}
		slab = appendEntry(slab, item)
		count++
	}
	if err := flush(); err != nil {
		return done, err
	}
	return done, firstErr
}

// HandleFrame processes a frame from the server — HandleFrames with a slab
// of one.
func (c *Client) HandleFrame(frame []byte) error {
	one := [1][]byte{frame}
	_, err := c.HandleFrames(one[:])
	return err
}

// HandleFrames processes a burst of frames from the server: the burst is
// packed into pooled request slabs, each slab crosses the data plane once
// (verify, decrypt, replay-check, ingress middlebox) and the opened
// payloads are dispatched — data delivered, pings recorded. Payloads are
// delivered synchronously and alias the pooled result slab, which is
// released before returning. Dropped or malformed frames are skipped
// without aborting the burst. It returns the number of frames fully
// handled and the first error encountered (drops included).
func (c *Client) HandleFrames(frames [][]byte) (int, error) {
	return c.runSlabBatch(frames, AppendSlabEntry, slabEntrySize, c.opts.Plane.OpenSlab, c.dispatchPayload)
}

// dispatchPayload routes one opened payload: deliver data or record pings.
func (c *Client) dispatchPayload(payload []byte) error {
	if len(payload) == 0 {
		return fmt.Errorf("vpn: empty payload from server")
	}
	switch payload[0] {
	case FrameData:
		if c.opts.Deliver != nil {
			c.opts.Deliver(payload[1:])
		}
		return nil
	case FramePing:
		ping, err := DecodePing(payload[1:])
		if err != nil {
			return err
		}
		c.mu.Lock()
		c.lastPing = ping
		c.pingSeen = true
		c.mu.Unlock()
		if c.opts.OnAnnounce != nil && ping.ConfigVersion > c.opts.ConfigVersion() {
			c.opts.OnAnnounce(ping.ConfigVersion, time.Duration(ping.GraceSeconds)*time.Second)
		}
		return nil
	default:
		return fmt.Errorf("vpn: unknown frame type %d from server", payload[0])
	}
}

// SendPing reports the client's applied configuration version to the server
// (paper Fig. 5 step 9: the client proves its successful update).
func (c *Client) SendPing() error {
	ping := Ping{
		SentUnixNano:  c.opts.Clock().UnixNano(),
		ConfigVersion: c.opts.ConfigVersion(),
	}
	return c.sendControl(EncodePing(ping))
}

// LastPing returns the most recent ping received from the server.
func (c *Client) LastPing() (Ping, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastPing, c.pingSeen
}
