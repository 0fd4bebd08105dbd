package endbox

// One testing.B benchmark per table and figure of the paper's evaluation
// (§V). Each iteration regenerates the full artefact; the headline numbers
// are attached with b.ReportMetric so `go test -bench` output captures the
// reproduced shape. The cmd/endbox-bench tool prints the full tables.

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"endbox/internal/bench"
	"endbox/internal/packet"
	"endbox/mbox"
)

// sharedModel caches the calibration across benchmarks.
var sharedModel *bench.CostModel

func costModel(b *testing.B) *bench.CostModel {
	b.Helper()
	if sharedModel == nil {
		m, err := bench.Calibrate()
		if err != nil {
			b.Fatal(err)
		}
		sharedModel = m
	}
	return sharedModel
}

// cellMbps parses a throughput cell such as "412 Mbps" or "1.50 Gbps".
func cellMbps(b *testing.B, cell string) float64 {
	b.Helper()
	fields := strings.Fields(cell)
	if len(fields) != 2 {
		b.Fatalf("bad throughput cell %q", cell)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		b.Fatalf("bad throughput cell %q: %v", cell, err)
	}
	if fields[1] == "Gbps" {
		v *= 1000
	}
	return v
}

// cellMs parses a latency cell such as "11.5 ms" or "1.234 ms".
func cellMs(b *testing.B, cell string) float64 {
	b.Helper()
	fields := strings.Fields(cell)
	if len(fields) != 2 {
		b.Fatalf("bad latency cell %q", cell)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		b.Fatalf("bad latency cell %q: %v", cell, err)
	}
	return v
}

// BenchmarkFig6PageLoadCDF regenerates the page-load CDF (paper Fig. 6).
func BenchmarkFig6PageLoadCDF(b *testing.B) {
	m := costModel(b)
	for i := 0; i < b.N; i++ {
		tab, err := bench.Fig6(m)
		if err != nil {
			b.Fatal(err)
		}
		// Median gap between the two CDFs is the headline: ~0.
		_ = tab
	}
}

// BenchmarkFig7RedirectRTT regenerates the redirection RTT comparison
// (paper Fig. 7).
func BenchmarkFig7RedirectRTT(b *testing.B) {
	m := costModel(b)
	var endboxRTT, directRTT float64
	for i := 0; i < b.N; i++ {
		tab, err := bench.Fig7(m)
		if err != nil {
			b.Fatal(err)
		}
		directRTT = cellMs(b, tab.Rows[0][1])
		endboxRTT = cellMs(b, tab.Rows[2][1])
	}
	b.ReportMetric(directRTT, "direct-ms")
	b.ReportMetric(endboxRTT, "endbox-ms")
}

// BenchmarkFig8ThroughputPacketSize regenerates the packet-size throughput
// sweep (paper Fig. 8).
func BenchmarkFig8ThroughputPacketSize(b *testing.B) {
	var vanilla1500, sgx1500 float64
	for i := 0; i < b.N; i++ {
		tab, err := bench.Fig8(500)
		if err != nil {
			b.Fatal(err)
		}
		// Column 3 is the 1500-byte point (after the setup label).
		vanilla1500 = cellMbps(b, tab.Rows[0][3])
		sgx1500 = cellMbps(b, tab.Rows[3][3])
	}
	b.ReportMetric(vanilla1500, "vanilla-1500B-Mbps")
	b.ReportMetric(sgx1500, "endbox-sgx-1500B-Mbps")
}

// BenchmarkFig9UseCaseThroughput regenerates the per-use-case throughput
// comparison (paper Fig. 9).
func BenchmarkFig9UseCaseThroughput(b *testing.B) {
	var ebNOP, ebIDPS float64
	for i := 0; i < b.N; i++ {
		tab, err := bench.Fig9(500)
		if err != nil {
			b.Fatal(err)
		}
		ebNOP = cellMbps(b, tab.Rows[1][1])
		ebIDPS = cellMbps(b, tab.Rows[1][4])
	}
	b.ReportMetric(ebNOP, "endbox-NOP-Mbps")
	b.ReportMetric(ebIDPS, "endbox-IDPS-Mbps")
}

// BenchmarkFig10aScalabilityNOP regenerates the NOP scalability sweep
// (paper Fig. 10a) under the paper-derived cost model.
func BenchmarkFig10aScalabilityNOP(b *testing.B) {
	m := bench.PaperCostModel()
	var tab *bench.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = bench.Fig10a(m, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := tab.Rows[len(tab.Rows)-1]
	b.ReportMetric(cellMbps(b, last[1])/1000, "vanilla-60c-Gbps")
	b.ReportMetric(cellMbps(b, last[3])/1000, "endbox-60c-Gbps")
	b.ReportMetric(cellMbps(b, last[7])/1000, "openvpn+click-60c-Gbps")
}

// BenchmarkFig10bScalabilityUseCases regenerates the per-use-case
// scalability sweep (paper Fig. 10b), whose headline is the 2.6x-3.8x
// speed-up of EndBox over the centralised deployment.
func BenchmarkFig10bScalabilityUseCases(b *testing.B) {
	m := bench.PaperCostModel()
	var tab *bench.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = bench.Fig10b(m, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := tab.Rows[len(tab.Rows)-1]
	// Columns alternate EB/OVC per use case; IDPS is the 4th use case.
	ebIDPS := cellMbps(b, last[7])
	ovcIDPS := cellMbps(b, last[8])
	b.ReportMetric(ebIDPS/ovcIDPS, "IDPS-speedup-x")
}

// BenchmarkTable1HTTPSLatency regenerates the HTTPS GET latency matrix
// (paper Table I).
func BenchmarkTable1HTTPSLatency(b *testing.B) {
	var withDec, vanilla float64
	for i := 0; i < b.N; i++ {
		tab, err := bench.Table1(20)
		if err != nil {
			b.Fatal(err)
		}
		withDec = cellMs(b, tab.Rows[0][1])
		vanilla = cellMs(b, tab.Rows[2][1])
	}
	b.ReportMetric(withDec, "with-dec-4K-ms")
	b.ReportMetric(vanilla, "vanilla-4K-ms")
}

// BenchmarkTable2ReconfigPhases regenerates the reconfiguration phase
// breakdown (paper Table II).
func BenchmarkTable2ReconfigPhases(b *testing.B) {
	var endboxSwap, vanillaSwap float64
	for i := 0; i < b.N; i++ {
		tab, err := bench.Table2(100)
		if err != nil {
			b.Fatal(err)
		}
		vanillaSwap = cellMs(b, tab.Rows[2][1])
		endboxSwap = cellMs(b, tab.Rows[2][2])
	}
	b.ReportMetric(endboxSwap, "endbox-hotswap-ms")
	b.ReportMetric(vanillaSwap, "vanilla-hotswap-ms")
}

// BenchmarkFig11UpdateLatency regenerates the ping-loss-during-update
// experiment (paper Fig. 11).
func BenchmarkFig11UpdateLatency(b *testing.B) {
	lost := 0
	for i := 0; i < b.N; i++ {
		tab, err := bench.Fig11()
		if err != nil {
			b.Fatal(err)
		}
		lost = 0
		for _, row := range tab.Rows {
			for _, cell := range row[1:] {
				if cell == "lost" {
					lost++
				}
			}
		}
	}
	b.ReportMetric(float64(lost), "lost-pings")
}

// BenchmarkOptEnclaveTransitions regenerates the ecall-batching ablation
// (paper §V-G: +342% throughput).
func BenchmarkOptEnclaveTransitions(b *testing.B) {
	var batched, naive float64
	for i := 0; i < b.N; i++ {
		tab, err := bench.OptTransitions(500)
		if err != nil {
			b.Fatal(err)
		}
		batched = cellMbps(b, tab.Rows[0][2])
		naive = cellMbps(b, tab.Rows[1][2])
	}
	b.ReportMetric(batched/naive, "batching-speedup-x")
}

// BenchmarkOptISPIntegrityOnly regenerates the ISP traffic-protection
// ablation (paper §V-G: +11% throughput).
func BenchmarkOptISPIntegrityOnly(b *testing.B) {
	var enc, auth float64
	for i := 0; i < b.N; i++ {
		tab, err := bench.OptISP(500)
		if err != nil {
			b.Fatal(err)
		}
		enc = cellMbps(b, tab.Rows[0][1])
		auth = cellMbps(b, tab.Rows[1][1])
	}
	b.ReportMetric(auth/enc, "integrity-only-speedup-x")
}

// BenchmarkOptClientToClient regenerates the 0xeb-flagging ablation
// (paper §V-G: up to -13% latency for IDPS).
func BenchmarkOptClientToClient(b *testing.B) {
	var flagged, unflagged float64
	for i := 0; i < b.N; i++ {
		tab, err := bench.OptC2C(100)
		if err != nil {
			b.Fatal(err)
		}
		flagged = cellUs(b, tab.Rows[0][1])
		unflagged = cellUs(b, tab.Rows[1][1])
	}
	b.ReportMetric(flagged, "flagged-us")
	b.ReportMetric(unflagged, "unflagged-us")
}

func cellUs(b *testing.B, cell string) float64 {
	b.Helper()
	fields := strings.Fields(cell)
	if len(fields) != 2 {
		b.Fatalf("bad cell %q", cell)
	}
	v, err := strconv.ParseFloat(fields[0], 64)
	if err != nil {
		b.Fatalf("bad cell %q: %v", cell, err)
	}
	return v
}

// BenchmarkUseCasePipelineLatency measures single-packet latency through
// each standard middlebox pipeline — a finer-grained companion to Fig. 9.
func BenchmarkUseCasePipelineLatency(b *testing.B) {
	for _, uc := range []UseCase{UseCaseNOP, UseCaseLB, UseCaseFW, UseCaseIDPS, UseCaseDDoS} {
		b.Run(fmt.Sprintf("%v", uc), func(b *testing.B) {
			d, err := New()
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			cli, err := d.AddClient(context.Background(), "bench", ClientSpec{Mode: ModeSimulation, Pipeline: mbox.Stock(uc)})
			if err != nil {
				b.Fatal(err)
			}
			pkt := testPacket(1500)
			b.ReportAllocs()
			b.SetBytes(1500)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cli.SendPacket(pkt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchSend compares the per-packet and batched send paths on a
// hardware-mode client, where each saved enclave transition is real time:
// SendPackets seals a whole burst in one ecall.
func BenchmarkBatchSend(b *testing.B) {
	const batchSize = 64
	for _, batched := range []bool{false, true} {
		name := "SendPacket"
		if batched {
			name = "SendPackets"
		}
		b.Run(name, func(b *testing.B) {
			d, err := New()
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			cli, err := d.AddClient(context.Background(), "bench", ClientSpec{
				Mode:     ModeHardware,
				BurnCPU:  true,
				Pipeline: mbox.Stock(UseCaseNOP),
			})
			if err != nil {
				b.Fatal(err)
			}
			batch := make([][]byte, batchSize)
			for i := range batch {
				batch[i] = testPacket(1500)
			}
			b.ReportAllocs()
			b.SetBytes(batchSize * 1500)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if batched {
					if _, err := cli.SendPackets(batch); err != nil {
						b.Fatal(err)
					}
				} else {
					for _, pkt := range batch {
						if err := cli.SendPacket(pkt); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
		})
	}
}

// testPacket builds a UDP datagram of the given on-wire size.
func testPacket(size int) []byte {
	raw, err := packet.PadToSize(
		packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(10, 8, 0, 1), 40000, 5201, size)
	if err != nil {
		panic(err)
	}
	return raw
}
