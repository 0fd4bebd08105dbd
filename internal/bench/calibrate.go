package bench

import (
	"fmt"
	"os"
	"time"

	"endbox/internal/click"
	"endbox/internal/idps"
	"endbox/internal/packet"
	"endbox/internal/sgx"
	"endbox/internal/wire"
)

// CostModel holds the per-operation CPU costs driving the virtual-time
// experiments. All values are measured live on this host by Calibrate and
// then scaled by a single normalisation constant so that the simulated
// 4-core (8 logical) server saturates at the paper's vanilla-OpenVPN
// plateau; every other curve follows from the measured cost ratios.
type CostModel struct {
	// CryptoPerPacket is the data-channel open/seal cost for a 1500-byte
	// packet (AES-128-CBC + HMAC-SHA256).
	CryptoPerPacket time.Duration
	// TunIOPerPacket is the user/kernel boundary cost a user-space VPN or
	// Click process pays per packet (measured as a real pipe round trip).
	TunIOPerPacket time.Duration
	// ClickPerPacket is the middlebox graph cost per 1500-byte packet for
	// each evaluation use case.
	ClickPerPacket map[click.UseCase]time.Duration
	// TransitionCost is one enclave boundary crossing.
	TransitionCost time.Duration
	// Scale is the normalisation applied to all measured values.
	Scale float64
	// OVCAttach is the extra per-packet cost of shuttling packets between
	// the OpenVPN process and an attached Click instance (kernel queues in
	// the paper's set-up). Zero for calibrated models, which fold this
	// into an extra TunIO crossing.
	OVCAttach time.Duration
	// ClientCost optionally overrides the client-side EndBox per-packet
	// cost per use case (used by the paper-parameterised model, which
	// derives it from Fig. 9's single-client throughputs).
	ClientCost map[click.UseCase]time.Duration
	// Source describes where the costs came from (for table notes).
	Source string
}

// PaperCostModel returns per-operation costs derived from the paper's own
// measurements, for reproducing the cluster experiments as the authors'
// testbed behaved (the derivations are the inverse of the reported
// plateaus; see EXPERIMENTS.md):
//
//   - vanilla server plateau 6.5 Gbps on 8 logical cores → 14.8 µs/packet
//     of crypto+tun I/O;
//   - single-process vanilla Click plateau 5.5 Gbps → 2.18 µs/packet of
//     graph+device I/O;
//   - OpenVPN+Click plateau 2.5 Gbps → 38.4 µs/packet, attributing the
//     difference to the OpenVPN↔Click packet shuttling;
//   - OpenVPN+Click IDPS/DDoS plateau 1.7 Gbps → +18 µs/packet of pattern
//     matching;
//   - client-side EndBox costs from Fig. 9's single-client throughputs.
//
// Calibrate() instead measures this host's real relative costs — under
// virtualised kernels (expensive syscalls) the setup ordering can differ
// from the paper's testbed, which is itself a result worth reporting.
func PaperCostModel() *CostModel {
	us := func(f float64) time.Duration { return time.Duration(f * float64(time.Microsecond)) }
	return &CostModel{
		CryptoPerPacket: us(12.8),
		TunIOPerPacket:  us(1.97),
		ClickPerPacket: map[click.UseCase]time.Duration{
			click.UseCaseNOP:  us(0.28),
			click.UseCaseLB:   us(0.33),
			click.UseCaseFW:   us(0.55),
			click.UseCaseIDPS: us(18.1),
			click.UseCaseDDoS: us(18.1),
		},
		TransitionCost: sgx.DefaultTransitionCost,
		Scale:          1,
		OVCAttach:      us(21.4),
		ClientCost: map[click.UseCase]time.Duration{
			click.UseCaseNOP:  us(22.6), // 530 Mbps single client (Fig. 9)
			click.UseCaseLB:   us(24.2), // 496 Mbps
			click.UseCaseFW:   us(22.8), // 527 Mbps
			click.UseCaseIDPS: us(28.4), // 422 Mbps
			click.UseCaseDDoS: us(29.0), // 414 Mbps
		},
		Source: "paper-derived per-packet costs (plateau inversion)",
	}
}

// Paper-anchored topology constants for the simulated cluster (§V-B): a
// 4-core hyper-threaded server with two 10 Gbps interfaces, clients
// offering 200 Mbps each.
const (
	ServerLogicalCores  = 8
	NICCapacityBps      = 20e9
	PerClientOfferedBps = 200e6
	SimPacketSize       = 1500
	// VanillaPlateauBps anchors the normalisation: the aggregate
	// throughput at which the paper's VPN server saturates on crypto
	// (Fig. 10a: 6.5 Gbps for vanilla OpenVPN and EndBox).
	VanillaPlateauBps = 6.5e9
)

// Calibrate measures real per-operation costs on this host and derives the
// normalised cost model. It takes on the order of a second.
func Calibrate() (*CostModel, error) {
	m := &CostModel{ClickPerPacket: make(map[click.UseCase]time.Duration)}

	// Data-channel crypto: server-side Open of a sealed 1500-byte frame.
	keys := wire.DeriveKeys([]byte("calibration master"), "c2s")
	codec, err := wire.NewCodec(wire.ModeEncrypted, keys)
	if err != nil {
		return nil, err
	}
	frame, err := codec.Seal(1, make([]byte, SimPacketSize))
	if err != nil {
		return nil, err
	}
	m.CryptoPerPacket = measure(func() {
		if _, _, err := codec.Open(frame); err != nil {
			panic(err)
		}
	})

	// Kernel boundary cost: a real 1-byte pipe round trip stands in for
	// the tun-device read/write a user-space VPN or Click performs per
	// packet.
	r, w, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	defer r.Close()
	defer w.Close()
	var one [1]byte
	m.TunIOPerPacket = measure(func() {
		if _, err := w.Write(one[:]); err != nil {
			panic(err)
		}
		if _, err := r.Read(one[:]); err != nil {
			panic(err)
		}
	})

	// Click graph cost per use case, including packet parse (the work the
	// serving process performs around the graph).
	raw := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(10, 8, 0, 1),
		40000, 5201, make([]byte, SimPacketSize-packet.IPv4HeaderLen-packet.UDPHeaderLen))
	ctx := &click.Context{
		RuleSet: func(string) (string, error) {
			return idps.CommunityRules(), nil
		},
	}
	for _, uc := range click.AllUseCases {
		cfg, err := click.StockPipeline(uc).Config()
		if err != nil {
			return nil, fmt.Errorf("calibrate %v: %w", uc, err)
		}
		inst, err := click.NewInstance(cfg, nil, ctx)
		if err != nil {
			return nil, fmt.Errorf("calibrate %v: %w", uc, err)
		}
		m.ClickPerPacket[uc] = measure(func() {
			var ip packet.IPv4
			if err := ip.Parse(raw); err != nil {
				panic(err)
			}
			if res := inst.Process(&ip); !res.Accepted {
				panic("calibration packet dropped")
			}
		})
	}

	m.TransitionCost = sgx.DefaultTransitionCost

	// Normalise: the simulated vanilla server spends crypto+tunIO per
	// packet across ServerLogicalCores; choose Scale so that saturates at
	// VanillaPlateauBps.
	vanillaCost := m.CryptoPerPacket + m.TunIOPerPacket
	platePPS := VanillaPlateauBps / (SimPacketSize * 8)
	needPerPacket := float64(ServerLogicalCores) / platePPS * float64(time.Second)
	m.Scale = needPerPacket / float64(vanillaCost)
	m.Source = "live calibration on this host, anchored to the 6.5 Gbps vanilla plateau"

	return m, nil
}

// measure times fn with enough iterations for a stable per-call figure.
func measure(fn func()) time.Duration {
	// Warm up.
	for i := 0; i < 100; i++ {
		fn()
	}
	const target = 20 * time.Millisecond
	n := 1000
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		elapsed := time.Since(start)
		if elapsed >= target || n >= 1<<20 {
			d := elapsed / time.Duration(n)
			if d <= 0 {
				d = time.Nanosecond
			}
			return d
		}
		n *= 4
	}
}

// scaled applies the normalisation to a measured cost.
func (m *CostModel) scaled(d time.Duration) time.Duration {
	return time.Duration(float64(d) * m.Scale)
}

// ServerCost returns the simulated server-side per-packet CPU cost for a
// deployment (Fig. 10's four set-ups).
func (m *CostModel) ServerCost(setup Setup, uc click.UseCase) time.Duration {
	switch setup {
	case SetupVanillaOpenVPN, SetupEndBoxSGX, SetupEndBoxSIM:
		// EndBox servers do no middlebox work: crypto + tun I/O only.
		return m.scaled(m.CryptoPerPacket + m.TunIOPerPacket)
	case SetupVanillaClick:
		// A single Click process: device I/O + graph, no VPN crypto.
		return m.scaled(m.TunIOPerPacket + m.ClickPerPacket[uc])
	case SetupOpenVPNClick:
		// OpenVPN crypto + tun I/O, plus Click's own packet fetching and
		// graph (paper §V-D: the Click instance's packet fetching costs
		// another kernel crossing). The paper-derived model carries the
		// shuttle cost explicitly in OVCAttach.
		extra := m.OVCAttach
		if extra == 0 {
			extra = m.TunIOPerPacket
		}
		return m.scaled(m.CryptoPerPacket+m.TunIOPerPacket+m.ClickPerPacket[uc]) + m.scaled(extra)
	default:
		return 0
	}
}

// ClientEnclaveCost returns the simulated client-side per-packet cost of
// EndBox processing (Click in the enclave, crypto, transitions). It is
// charged to clients, not the server — the decentralisation the paper
// leverages.
func (m *CostModel) ClientEnclaveCost(uc click.UseCase, hw bool) time.Duration {
	if c, ok := m.ClientCost[uc]; ok {
		if !hw {
			// Simulation mode skips the enclave transitions.
			c -= 2 * m.TransitionCost
		}
		return c
	}
	c := m.CryptoPerPacket + m.TunIOPerPacket + m.ClickPerPacket[uc]
	cost := m.scaled(c)
	if hw {
		cost += 2 * m.TransitionCost // one ecall per packet
	}
	return cost
}

// Setup identifies the deployments compared across the evaluation.
type Setup int

// Evaluation set-ups (legend labels from Figs. 8 and 10).
const (
	SetupVanillaOpenVPN Setup = iota + 1
	SetupOpenVPNClick
	SetupEndBoxSIM
	SetupEndBoxSGX
	SetupVanillaClick
)

// String implements fmt.Stringer with the paper's labels.
func (s Setup) String() string {
	switch s {
	case SetupVanillaOpenVPN:
		return "vanilla OpenVPN"
	case SetupOpenVPNClick:
		return "OpenVPN+Click"
	case SetupEndBoxSIM:
		return "EndBox SIM"
	case SetupEndBoxSGX:
		return "EndBox SGX"
	case SetupVanillaClick:
		return "vanilla Click"
	default:
		return fmt.Sprintf("Setup(%d)", int(s))
	}
}
