package main

import (
	"context"
	"crypto/ed25519"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"endbox/internal/click"
	"endbox/internal/core"
	"endbox/internal/packet"
	"endbox/internal/sgx"
	"endbox/internal/udptransport"
	"endbox/internal/vpn"
)

// spyLink counts the control round trips and delivery hooks core.Join uses
// on a real UDP link.
type spyLink struct {
	*udptransport.Link
	registers, resumes, perFrame, batch int
}

func (l *spyLink) Register(ctx context.Context, platformID string, key ed25519.PublicKey) (ed25519.PublicKey, error) {
	l.registers++
	return l.Link.Register(ctx, platformID, key)
}

func (l *spyLink) Resume(ctx context.Context, r *vpn.ResumeRequest) (*vpn.ResumeReply, error) {
	l.resumes++
	return l.Link.Resume(ctx, r)
}

func (l *spyLink) SetDeliver(fn func(frame []byte) error) {
	l.perFrame++
	l.Link.SetDeliver(fn)
}

func (l *spyLink) SetDeliverBatch(fn func(frames [][]byte) error) {
	l.batch++
	l.Link.SetDeliverBatch(fn)
}

// TestConnectStaleTicketFallsBack runs the standalone client's join twice
// against a UDP server: a first run that attests and saves its resume
// state, then — after the server evicted the session and the ticket aged
// out — a second run that presents the stale state, is refused, and joins
// through full attestation on the same link.
func TestConnectStaleTicketFallsBack(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	transport := udptransport.NewTransport("127.0.0.1:0")
	d, err := core.NewDeployment(core.DeploymentOptions{
		Transport:   transport,
		EchoNetwork: true,
		TicketTTL:   time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Rollout(ctx, core.Rollout{
		Version:  1,
		Pipeline: click.StockPipeline(click.UseCaseNOP),
	}); err != nil {
		t.Fatal(err)
	}

	const id = "standalone"
	received := make(chan struct{}, 1)
	opts := core.ClientOptions{
		ID:          id,
		CPU:         sgx.NewCPU("machine-" + id),
		Mode:        sgx.ModeSimulation,
		BatchEcalls: true,
		Deliver: func([]byte) {
			select {
			case received <- struct{}{}:
			default:
			}
		},
	}
	dial := func() *spyLink {
		t.Helper()
		l, err := udptransport.Dial(ctx, transport.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return &spyLink{Link: l}
	}
	statePath := filepath.Join(t.TempDir(), "resume.json")

	first := dial()
	cli, caPub, err := connect(ctx, first, nil, statePath, "", opts)
	if err != nil {
		t.Fatalf("first join: %v", err)
	}
	if first.registers != 1 || first.resumes != 0 {
		t.Errorf("first join: %d registrations, %d resumes, want 1 and 0", first.registers, first.resumes)
	}
	if err := saveResumeState(statePath, id, caPub, cli); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	first.Close()
	d.Server.VPN().Disconnect(id)
	time.Sleep(20 * time.Millisecond) // past the ticket TTL

	state, err := loadResumeState(statePath)
	if err != nil {
		t.Fatal(err)
	}
	second := dial()
	cli, _, err = connect(ctx, second, state, statePath, "", opts)
	if err != nil {
		t.Fatalf("join with a stale ticket: %v", err)
	}
	defer cli.Close()
	if second.resumes != 1 || second.registers != 1 {
		t.Errorf("stale-ticket join: %d resumes, %d registrations, want one refused resume then one full attestation",
			second.resumes, second.registers)
	}
	if _, err := os.Stat(statePath); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale resume state still on disk (stat err = %v)", err)
	}
	if second.batch == 0 || second.perFrame != 0 {
		t.Errorf("link delivery hooks: %d batch, %d per-frame, want batch delivery only", second.batch, second.perFrame)
	}

	// The session the fallback established carries traffic both ways.
	ping := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(10, 0, 0, 1), 40000, 80, []byte("after fallback"))
	if err := cli.SendPacket(ping); err != nil {
		t.Fatalf("SendPacket after fallback: %v", err)
	}
	select {
	case <-received:
	case <-ctx.Done():
		t.Fatal("echo never came back through the batch delivery hook")
	}
}
