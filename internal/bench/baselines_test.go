package bench

import (
	"testing"

	"endbox/internal/click"
	"endbox/internal/packet"
	"endbox/internal/wire"
)

func TestBaselinePairs(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    Baseline
		uc   click.UseCase
	}{
		{"vanilla", BaselineVanillaOpenVPN, 0},
		{"openvpn+click NOP", BaselineOpenVPNClick, click.UseCaseNOP},
		{"openvpn+click FW", BaselineOpenVPNClick, click.UseCaseFW},
		{"openvpn+click IDPS", BaselineOpenVPNClick, click.UseCaseIDPS},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pair, err := NewBaselinePair(tc.b, tc.uc, wire.ModeEncrypted)
			if err != nil {
				t.Fatal(err)
			}
			pkt := packet.NewUDP(packet.AddrFrom(10, 8, 0, 2), packet.AddrFrom(192, 0, 2, 1), 40000, 80, []byte("baseline"))
			for i := 0; i < 5; i++ {
				if err := pair.Client.SendPacket(pkt); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			if pair.Delivered != 5 {
				t.Errorf("delivered = %d", pair.Delivered)
			}
		})
	}
}
