package endbox

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"endbox/internal/packet"
	"endbox/mbox"
)

// TestResumeOverUDP drives fast resume over real sockets: the MsgResume /
// MsgResumeOK exchange, the server-side source-address rebind, and traffic
// through the resumed session in both directions.
func TestResumeOverUDP(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()

	var received atomic.Int64
	var resumed atomic.Int64
	d, err := New(
		WithTransport(NewUDPTransport("127.0.0.1:0")),
		WithEchoNetwork(),
		WithSessionTTL(time.Minute),
		WithSweepInterval(-1),
		WithObserver(ObserverFuncs{
			OnReceived: func(string, []byte) { received.Add(1) },
			OnResumed:  func(string) { resumed.Add(1) },
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	spec := ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)}
	if _, err := d.AddClient(ctx, "udp-r", spec); err != nil {
		t.Fatal(err)
	}
	state, err := d.ResumeState("udp-r")
	if err != nil {
		t.Fatal(err)
	}

	// Crash and resume: a fresh socket (new source address), no
	// attestation, no enrolment, one MsgResume round trip.
	cli, err := d.ResumeClient(ctx, state, spec)
	if err != nil {
		t.Fatalf("ResumeClient over UDP: %v", err)
	}
	if resumed.Load() != 1 {
		t.Errorf("observer saw %d resumes, want 1", resumed.Load())
	}

	// The echo exercises both directions: the client's frame reaches the
	// server through the resumed session, and the reply must come back to
	// the resumed link's rebound source address.
	pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 40000, 80, []byte("resumed over udp"))
	if err := cli.SendPacket(pkt); err != nil {
		t.Fatalf("SendPacket after resume: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for received.Load() < 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if received.Load() != 1 {
		t.Fatalf("echo never arrived at the resumed client")
	}

	if st := d.LifecycleStats(); st.Sessions.Resumed != 1 {
		t.Errorf("LifecycleStats.Sessions.Resumed = %d, want 1", st.Sessions.Resumed)
	}
}

// TestFacadeAdmissionErrors checks the re-exported error values survive
// errors.Is through the facade under a connect storm at the session bound.
func TestFacadeAdmissionErrors(t *testing.T) {
	ctx := context.Background()
	const bound = 3
	d, err := New(WithAdmission(AdmissionConfig{MaxSessions: bound, MaxConcurrent: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const workers = 9
	var wg sync.WaitGroup
	var admitted, full atomic.Int64
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				_, err := d.AddClient(ctx, fmt.Sprintf("storm-%d", i), ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(UseCaseNOP)})
				switch {
				case err == nil:
					admitted.Add(1)
				case errors.Is(err, ErrAdmissionThrottled):
					continue
				case errors.Is(err, ErrServerFull):
					full.Add(1)
				default:
					t.Errorf("worker %d: unexpected error %v", i, err)
				}
				return
			}
		}()
	}
	wg.Wait()
	if admitted.Load() != bound || full.Load() != workers-bound {
		t.Errorf("admitted %d / full %d, want %d / %d", admitted.Load(), full.Load(), bound, workers-bound)
	}
	if n := d.Server.VPN().ClientCount(); n != bound {
		t.Errorf("ClientCount = %d, want %d", n, bound)
	}
}
