package core

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"testing/quick"

	"endbox/internal/attest"
	"endbox/internal/click"
	"endbox/internal/config"
	"endbox/internal/packet"
	"endbox/internal/sgx"
)

// TestManyClientsConcurrentTraffic exercises the server's session table and
// per-client virtual interfaces under concurrent load from 8 clients.
func TestManyClientsConcurrentTraffic(t *testing.T) {
	d := newDeployment(t, DeploymentOptions{})
	const clients = 8
	const packetsPerClient = 50

	cls := make([]*Client, clients)
	for i := range cls {
		cls[i] = addClient(t, d, fmt.Sprintf("c%d", i), ClientSpec{Pipeline: click.StockPipeline(click.UseCaseFW)})
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i, c := range cls {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, byte(2+i)),
				packet.AddrFrom(192, 0, 2, 1), 40000, 80, []byte("concurrent"))
			for j := 0; j < packetsPerClient; j++ {
				if err := c.SendPacket(pkt); err != nil {
					errs <- fmt.Errorf("client %d packet %d: %w", i, j, err)
					return
				}
			}
		}(i, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	agg := d.Server.VPN().AggregateStats()
	if agg.RxPackets != clients*packetsPerClient {
		t.Errorf("aggregate RxPackets = %d, want %d", agg.RxPackets, clients*packetsPerClient)
	}
	for i := range cls {
		st, err := d.Server.VPN().Stats(fmt.Sprintf("c%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if st.RxPackets != packetsPerClient {
			t.Errorf("client %d RxPackets = %d", i, st.RxPackets)
		}
	}
}

// TestPayloadFidelityProperty pushes random payloads through the full
// EndBox pipeline (enclave Click + crypto + server + echo) and verifies
// they arrive back intact.
func TestPayloadFidelityProperty(t *testing.T) {
	var received [][]byte
	d := newDeployment(t, DeploymentOptions{
		EchoNetwork: true,
		Observer: ObserverFuncs{
			OnReceived: func(_ string, ip []byte) {
				received = append(received, append([]byte(nil), ip...))
			},
		},
	})
	c := addClient(t, d, "fidelity", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseFW)})

	f := func(payload []byte) bool {
		if len(payload) > 8000 {
			payload = payload[:8000]
		}
		received = received[:0]
		pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 7),
			41000, 9999, payload)
		if err := c.SendPacket(pkt); err != nil {
			return false
		}
		if len(received) != 1 {
			return false
		}
		echo, err := packet.ParseIPv4(received[0])
		if err != nil {
			return false
		}
		u, err := packet.ParseUDP(echo.Payload)
		if err != nil {
			return false
		}
		return bytes.Equal(u.Payload, payload) &&
			echo.Src == packet.AddrFrom(192, 0, 2, 7) &&
			echo.Dst == packet.AddrFrom(10, 8, 0, 2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestUpdateFetchFailureIsRecorded injects a configuration-server failure
// and checks the client records it and recovers on the next announce.
func TestUpdateFetchFailureIsRecorded(t *testing.T) {
	d := newDeployment(t, DeploymentOptions{})
	c := addClient(t, d, "c1", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})

	// Sabotage the fetch path, then announce.
	realFetch := c.opts.FetchConfig
	c.opts.FetchConfig = func(uint64) ([]byte, error) {
		return nil, fmt.Errorf("config server unreachable")
	}
	publish(t, d, Rollout{
		Version: 1, GraceSeconds: 300,
		Pipeline: click.StockPipeline(click.UseCaseFW),
	})
	if c.AppliedVersion() != 0 {
		t.Fatalf("applied = %d despite broken fetch", c.AppliedVersion())
	}
	if c.LastUpdateError() == nil {
		t.Fatal("fetch failure not recorded")
	}

	// Repair the path; the next periodic ping re-announces and the client
	// catches up.
	c.opts.FetchConfig = realFetch
	if err := d.Server.BroadcastPing(); err != nil {
		t.Fatal(err)
	}
	if c.AppliedVersion() != 1 {
		t.Errorf("applied = %d after recovery, want 1", c.AppliedVersion())
	}
	if err := c.LastUpdateError(); err != nil {
		t.Errorf("stale error retained: %v", err)
	}
}

// TestCorruptedUpdateBlobRejected covers the remaining tampering vectors
// on the update path end to end.
func TestCorruptedUpdateBlobRejected(t *testing.T) {
	d := newDeployment(t, DeploymentOptions{EncryptConfigs: true})
	c := addClient(t, d, "c1", ClientSpec{Pipeline: click.StockPipeline(click.UseCaseNOP)})
	publish(t, d, Rollout{
		Version: 1, GraceSeconds: 300,
		Pipeline: click.StockPipeline(click.UseCaseNOP),
	})
	blob, err := d.Server.Configs().Fetch(1)
	if err != nil {
		t.Fatal(err)
	}
	// Bit-flip anywhere must be rejected by signature or AEAD checks.
	for _, pos := range []int{0, len(blob) / 3, len(blob) / 2, len(blob) - 2} {
		bad := append([]byte(nil), blob...)
		bad[pos] ^= 0x40
		if _, err := c.ApplyUpdateBlob(bad); err == nil {
			t.Errorf("corrupted blob (byte %d) accepted", pos)
		}
	}
	// A syntactically valid but unparseable Click config must fail
	// in-enclave without breaking the active pipeline.
	badCfg, err := config.Seal(&config.Update{
		Version: 7, GraceSeconds: 300, ClickConfig: "FromDevice -> Nonexistent;",
	}, d.CA.SignConfig, d.CA.SharedKey())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ApplyUpdateBlob(badCfg); err == nil {
		t.Error("broken Click config applied")
	}
	pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 1, 2, []byte("x"))
	if err := c.SendPacket(pkt); err != nil {
		t.Errorf("pipeline broken after rejected update: %v", err)
	}
}

// TestHardwareModeEPCAccounting confirms the enclave charges EPC for
// hardware-mode clients.
func TestHardwareModeEPCAccounting(t *testing.T) {
	d := newDeployment(t, DeploymentOptions{})
	cpu := sgx.NewCPU("epc-host")
	qe, err := attest.NewQuotingEnclave(cpu, "platform-epc")
	if err != nil {
		t.Fatal(err)
	}
	d.IAS.RegisterPlatform(qe)
	d.CA.AllowMeasurement(ClientImage(d.CA.PublicKey()).Measure())
	c, err := NewClient(ClientOptions{
		ID:          "epc",
		CPU:         cpu,
		Mode:        sgx.ModeHardware,
		CAPub:       d.CA.PublicKey(),
		QE:          qe,
		Enroll:      d.CA.Enroll,
		ClickConfig: nopConfig,
		RuleSets:    CommunityRuleSets(),
		Send:        func([]byte) error { return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if cpu.EPCUsed() == 0 {
		t.Error("hardware-mode enclave reserved no EPC")
	}
	used := cpu.EPCUsed()
	c.Close()
	if cpu.EPCUsed() >= used {
		t.Error("EPC not released on destroy")
	}
}
