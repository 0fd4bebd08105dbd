package bench

import (
	"context"
	"fmt"
	"time"

	"endbox/internal/click"
	"endbox/internal/config"
	"endbox/internal/core"
	"endbox/internal/packet"
	"endbox/internal/sgx"
	"endbox/internal/tlstap"
	"endbox/internal/trace"
)

// Table1Sizes are the paper's HTTPS response sizes.
var Table1Sizes = []int{4 << 10, 16 << 10, 32 << 10}

// Table1 reproduces "HTTPS GET request latency for different response
// sizes and configurations" (paper Table I): EndBox with key-forwarding
// OpenSSL and in-Click decryption, the same without decryption, and stock
// OpenSSL — all through EndBox.
func Table1(iterations int) (*Table, error) {
	if iterations <= 0 {
		iterations = 50
	}
	type cfg struct {
		name       string
		clickCfg   string
		forwardKey bool
	}
	cfgs := []cfg{
		{
			name:       "EndBox OpenSSL w/ dec",
			clickCfg:   "FromDevice -> TLSDecrypt(PORT 443) -> IDSMatcher(RULESET community) -> ToDevice;",
			forwardKey: true,
		},
		{
			name:       "EndBox OpenSSL w/o dec",
			clickCfg:   "FromDevice -> IDSMatcher(RULESET community) -> ToDevice;",
			forwardKey: true,
		},
		{
			name:       "vanilla OpenSSL w/o dec",
			clickCfg:   "FromDevice -> IDSMatcher(RULESET community) -> ToDevice;",
			forwardKey: false,
		},
	}

	t := &Table{
		ID:      "Table I",
		Title:   "HTTPS GET latency by response size and TLS configuration",
		Columns: []string{"configuration", "4 KB", "16 KB", "32 KB"},
	}

	results := make(map[string][]time.Duration)
	for _, c := range cfgs {
		row := []string{c.name}
		for _, size := range Table1Sizes {
			avg, err := httpsGetLatency(c.clickCfg, c.forwardKey, size, iterations)
			if err != nil {
				return nil, fmt.Errorf("table1 %s/%d: %w", c.name, size, err)
			}
			results[c.name] = append(results[c.name], avg)
			row = append(row, fmt.Sprintf("%.3f ms", float64(avg)/float64(time.Millisecond)))
		}
		t.AddRow(row...)
	}
	dec := results[cfgs[0].name]
	vanilla := results[cfgs[2].name]
	worst := 0.0
	for i := range dec {
		if o := (float64(dec[i]) - float64(vanilla[i])) / float64(vanilla[i]) * 100; o > worst {
			worst = o
		}
	}
	t.AddNote("decryption + key forwarding overhead at most %.1f%% (paper: 'less than 8%%')", worst)
	t.AddNote("workload: GET exchange, response in 1400-byte TLS records, %d iterations per point", iterations)
	return t, nil
}

// httpsGetLatency measures one configuration: a client fetching a response
// of the given size from a synthetic HTTPS server behind the VPN.
func httpsGetLatency(clickCfg string, forwardKey bool, respSize, iterations int) (time.Duration, error) {
	const clientID = "https-client"
	var (
		sessionKey tlstap.SessionKey
		d          *core.Deployment
		received   int
	)
	exchange := trace.HTTPSGet(respSize)
	webAddr := packet.AddrFrom(93, 184, 216, 34)
	cliAddr := packet.AddrFrom(10, 8, 0, 2)
	flow := packet.Flow{Src: cliAddr, SrcPort: 40000, Dst: webAddr, DstPort: 443, Protocol: packet.ProtoTCP}

	deployment, err := core.NewDeployment(core.DeploymentOptions{
		Observer: core.ObserverFuncs{
			OnDelivered: func(id string, ip []byte) {
				// The "web server": answer a request with the response body in
				// MTU-sized TLS records tunnelled back to the client.
				var p packet.IPv4
				if p.Parse(ip) != nil || p.Protocol != packet.ProtoTCP {
					return
				}
				body := exchange.ResponseBody()
				for off := 0; off < len(body); off += 1400 {
					end := off + 1400
					if end > len(body) {
						end = len(body)
					}
					rec, err := tlstap.EncryptRecord(sessionKey, body[off:end])
					if err != nil {
						return
					}
					resp := packet.NewTCP(webAddr, cliAddr, 443, 40000, 1, 0, packet.TCPAck, rec)
					_ = d.Server.VPN().SendTo(id, resp, false)
				}
			},
			OnReceived: func(_ string, ip []byte) { received += len(ip) },
		},
	})
	if err != nil {
		return 0, err
	}
	d = deployment
	defer d.Close()

	cli, err := d.AddClient(context.Background(), clientID, core.ClientSpec{
		Mode:     sgx.ModeHardware,
		BurnCPU:  true,
		Pipeline: click.Raw(clickCfg),
	})
	if err != nil {
		return 0, err
	}

	lib := tlstap.NewClientLibrary(func(f packet.Flow, k tlstap.SessionKey) {
		sessionKey = k
		if forwardKey {
			_ = cli.ForwardTLSKey(f, k)
		}
	})
	key, err := lib.Handshake(flow)
	if err != nil {
		return 0, err
	}
	sessionKey = key

	var total time.Duration
	for i := 0; i < iterations; i++ {
		received = 0
		rec, err := lib.Encrypt(flow, exchange.Request)
		if err != nil {
			return 0, err
		}
		req := packet.NewTCP(cliAddr, webAddr, 40000, 443, 1, 0, packet.TCPAck|packet.TCPPsh, rec)
		start := time.Now()
		if err := cli.SendPacket(req); err != nil {
			return 0, err
		}
		// In-process transport: by the time SendPacket returns, the full
		// response has been pushed back through the client pipeline.
		total += time.Since(start)
		if received == 0 {
			return 0, fmt.Errorf("no response delivered")
		}
	}
	return total / time.Duration(iterations), nil
}

// Minimal configurations of the paper's Table II experiment ("a minimal
// configuration file with a size of 42 and 59 bytes").
const (
	table2ConfigA = "FromDevice -> c :: Counter -> ToDevice;   "                 // 42 bytes
	table2ConfigB = "FromDevice -> c :: Counter -> f :: Tee -> ToDevice;       " // 59 bytes
)

// Table2 reproduces "Timings of different phases of vanilla Click and
// EndBox configuration updates" (paper Table II).
func Table2(iterations int) (*Table, error) {
	if iterations <= 0 {
		iterations = 200
	}

	// Vanilla Click: hot-swap includes real device (file descriptor)
	// setup, which EndBox skips because OpenVPN owns the tunnel device.
	vanillaCtx := ServerClickContext(VanillaDeviceSetup)
	inst, err := click.NewInstance(table2ConfigA, nil, vanillaCtx)
	if err != nil {
		return nil, err
	}
	var vanillaSwap time.Duration
	for i := 0; i < iterations; i++ {
		cfg := table2ConfigB
		if i%2 == 1 {
			cfg = table2ConfigA
		}
		d, err := inst.Swap(cfg)
		if err != nil {
			return nil, err
		}
		vanillaSwap += d
	}
	vanillaSwap /= time.Duration(iterations)

	// EndBox: fetch from the config server, decrypt and hot-swap inside
	// the enclave.
	d, err := core.NewDeployment(core.DeploymentOptions{EncryptConfigs: true})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	cli, err := d.AddClient(context.Background(), "t2", core.ClientSpec{Mode: sgx.ModeHardware, BurnCPU: true, Pipeline: click.Raw(table2ConfigA)})
	if err != nil {
		return nil, err
	}

	var fetchTotal, decryptTotal, swapTotal time.Duration
	for i := 0; i < iterations; i++ {
		version := uint64(i + 1)
		cfg := table2ConfigB
		if i%2 == 1 {
			cfg = table2ConfigA
		}
		blob, err := config.Seal(&config.Update{
			Version: version, GraceSeconds: 60, ClickConfig: cfg,
		}, d.CA.SignConfig, d.CA.SharedKey())
		if err != nil {
			return nil, err
		}
		if err := d.Server.Configs().Publish(version, blob); err != nil {
			return nil, err
		}

		t0 := time.Now()
		fetched, err := d.Server.Configs().Fetch(version)
		if err != nil {
			return nil, err
		}
		fetchTotal += time.Since(t0)
		timing, err := cli.ApplyUpdateBlob(fetched)
		if err != nil {
			return nil, err
		}
		decryptTotal += timing.Decrypt
		swapTotal += timing.Hotswap
	}
	n := time.Duration(iterations)
	fetch, decrypt, swap := fetchTotal/n, decryptTotal/n, swapTotal/n

	msf := func(v time.Duration) string {
		return fmt.Sprintf("%.3f ms", float64(v)/float64(time.Millisecond))
	}
	t := &Table{
		ID:      "Table II",
		Title:   "configuration update phase timings",
		Columns: []string{"phase", "vanilla Click", "EndBox"},
	}
	t.AddRow("fetch", "-", msf(fetch))
	t.AddRow("decryption", "-", msf(decrypt))
	t.AddRow("hotswap", msf(vanillaSwap), msf(swap))
	t.AddRow("Total", msf(vanillaSwap), msf(fetch+decrypt+swap))
	t.AddNote("EndBox hot-swap takes %.0f%% of vanilla Click's (paper: 30%%) — vanilla re-opens device file descriptors, EndBox does not",
		float64(swap)/float64(vanillaSwap)*100)
	t.AddNote("fetch and decryption run in the background and do not stall traffic filtering (paper §V-F); fetch here is an in-memory config server, the paper's 0.86 ms includes a LAN HTTP request")
	t.AddNote("configs of %d and %d bytes, %d update rounds", len(table2ConfigA), len(table2ConfigB), iterations)
	return t, nil
}
