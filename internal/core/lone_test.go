package core

import (
	"testing"

	"endbox/internal/click"
	"endbox/internal/packet"
)

// captureFrames redirects a client's server->client frames into a slice
// (copied: the frames alias transport buffers) and returns a restore func.
func captureFrames(t *testing.T, d *Deployment, id string) (frames *[][]byte, restore func()) {
	t.Helper()
	d.mu.Lock()
	link, cli := d.links[id], d.clients[id]
	d.mu.Unlock()
	if link == nil || cli == nil {
		t.Fatalf("client %q not connected", id)
	}
	var got [][]byte
	link.SetDeliver(func(frame []byte) error {
		got = append(got, append([]byte(nil), frame...))
		return nil
	})
	return &got, func() { link.SetDeliver(cli.HandleFrame) }
}

// TestLonePacketAllocs pins the allocation count of the lone-packet
// crossings — one SendPacket (egress ecall, in-process server delivery
// included) and one HandleFrame (ingress ecall) — so the slab-of-one path
// cannot quietly grow them.
func TestLonePacketAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const runs = 200
	d := newDeployment(t, DeploymentOptions{})
	c := addClient(t, d, "c1", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
	src, dst := packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1)
	pkt := packet.NewUDP(src, dst, 40000, 80, make([]byte, 64))

	egress := testing.AllocsPerRun(runs, func() {
		if err := c.SendPacket(pkt); err != nil {
			t.Fatal(err)
		}
	})

	frames, restore := captureFrames(t, d, "c1")
	reply := packet.NewUDP(dst, src, 80, 40000, make([]byte, 64))
	for i := 0; i < runs+1; i++ {
		if err := d.Server.VPN().SendTo("c1", reply, false); err != nil {
			t.Fatal(err)
		}
	}
	restore()
	next := 0
	ingress := testing.AllocsPerRun(runs, func() {
		if err := c.HandleFrame((*frames)[next]); err != nil {
			t.Fatal(err)
		}
		next++
	})

	t.Logf("lone SendPacket %.1f allocs, lone HandleFrame %.1f allocs", egress, ingress)
	if egress > loneSendAllocs {
		t.Errorf("lone SendPacket = %.1f allocs, want <= %d", egress, loneSendAllocs)
	}
	if ingress > loneHandleAllocs {
		t.Errorf("lone HandleFrame = %.1f allocs, want <= %d", ingress, loneHandleAllocs)
	}
}

// The lone-packet allocation floor: the slab ecalls are byte-typed, so a
// crossing boxes nothing, and every buffer on the way is pooled.
const (
	loneSendAllocs   = 0
	loneHandleAllocs = 0
)
