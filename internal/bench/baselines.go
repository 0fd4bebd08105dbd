package bench

import (
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/rand"
	"fmt"
	"os"

	"endbox/internal/attest"
	"endbox/internal/click"
	"endbox/internal/core"
	"endbox/internal/idps"
	"endbox/internal/vpn"
	"endbox/internal/wire"
)

// Baseline identifies the comparison deployments of the evaluation
// (paper §V-B).
type Baseline int

// Evaluation set-ups. EndBox SIM/SGX are built with Deployment/ClientSpec;
// these two are the non-EndBox baselines.
const (
	// BaselineVanillaOpenVPN is unmodified OpenVPN: plain data channel,
	// no middlebox anywhere.
	BaselineVanillaOpenVPN Baseline = iota + 1
	// BaselineOpenVPNClick attaches a server-side Click instance to the
	// VPN server ("OpenVPN+Click").
	BaselineOpenVPNClick
)

// BaselinePair is a connected client/server pair for one baseline. The
// client's data plane runs entirely outside any enclave.
type BaselinePair struct {
	Client *vpn.Client
	Server *core.Server

	// Delivered counts packets accepted into the network.
	Delivered uint64
	// DeliveredBytes counts their payload bytes.
	DeliveredBytes uint64
	// ToClient receives packets tunnelled back to the client.
	ToClient func(ip []byte)
}

// NewBaselinePair wires a baseline deployment in process. For
// BaselineOpenVPNClick, useCase selects the server-side pipeline.
func NewBaselinePair(b Baseline, useCase click.UseCase, mode wire.Mode) (*BaselinePair, error) {
	ias, err := attest.NewIAS()
	if err != nil {
		return nil, err
	}
	ca, err := attest.NewCA(ias)
	if err != nil {
		return nil, err
	}

	pair := &BaselinePair{}

	var serverClick *click.Instance
	if b == BaselineOpenVPNClick {
		if useCase == 0 {
			useCase = click.UseCaseNOP
		}
		cfg, err := click.ServerConfig(useCase)
		if err != nil {
			return nil, err
		}
		inst, err := click.NewInstance(cfg, nil, ServerClickContext(nil))
		if err != nil {
			return nil, err
		}
		serverClick = inst
	} else if b != BaselineVanillaOpenVPN {
		return nil, fmt.Errorf("bench: unknown baseline %d", b)
	}

	var cli *vpn.Client
	srv, err := core.NewServer(core.ServerOptions{
		CA:   ca,
		Mode: mode,
		Deliver: func(_ string, ip []byte) {
			pair.Delivered++
			pair.DeliveredBytes += uint64(len(ip))
		},
		SendTo: func(_ string, frame []byte) error {
			return cli.HandleFrame(frame)
		},
		ServerClick: serverClick,
	})
	if err != nil {
		return nil, err
	}
	pair.Server = srv

	// Plain OpenVPN client: keys in process memory, certificate issued
	// directly by the CA (no attestation).
	signPub, signPriv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	boxPriv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	cert, err := ca.IssueDirect(attest.EnclaveKeys{
		SignPub: signPub,
		BoxPub:  boxPriv.PublicKey().Bytes(),
	})
	if err != nil {
		return nil, err
	}

	hello, st, err := vpn.NewClientHello("baseline-client", cert, 0, vpn.TLS13,
		func(tr []byte) ([]byte, error) { return ed25519.Sign(signPriv, tr), nil })
	if err != nil {
		return nil, err
	}
	sh, err := srv.VPN().Accept(hello)
	if err != nil {
		return nil, err
	}
	master, err := vpn.FinishClient(st, sh, ca.PublicKey(), vpn.TLS12)
	if err != nil {
		return nil, err
	}
	if mode == 0 {
		mode = wire.ModeEncrypted
	}
	sess, err := wire.NewSession(master, mode, true)
	if err != nil {
		return nil, err
	}
	cli, err = vpn.NewClient(vpn.ClientOptions{
		ID:    "baseline-client",
		Plane: &vpn.PlainDataPlane{Session: sess},
		Send: func(frame []byte) error {
			return srv.VPN().HandleFrame("baseline-client", frame)
		},
		Deliver: func(ip []byte) {
			if pair.ToClient != nil {
				pair.ToClient(ip)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	pair.Client = cli
	return pair, nil
}

// VanillaDeviceSetup performs the file-descriptor work vanilla Click's
// FromDevice and ToDevice elements do each time a configuration is
// installed — the cost the paper identifies as why EndBox reconfigures
// faster (Table II: "vanilla Click needs to set up file descriptors for
// the ToDevice and FromDevice elements, which is not necessary for ENDBOX
// because OpenVPN took care of this task earlier"). EndBox deployments
// pass no device setup at all.
func VanillaDeviceSetup() error {
	r, w, err := os.Pipe()
	if err != nil {
		return fmt.Errorf("bench: device setup: %w", err)
	}
	// Touch the descriptors like a device open/configure sequence would.
	if _, err := w.Write([]byte{0}); err != nil {
		r.Close()
		w.Close()
		return fmt.Errorf("bench: device setup: %w", err)
	}
	var buf [1]byte
	if _, err := r.Read(buf[:]); err != nil {
		r.Close()
		w.Close()
		return fmt.Errorf("bench: device setup: %w", err)
	}
	r.Close()
	w.Close()
	return nil
}

// ServerClickContext builds the Click context for a server-side (vanilla)
// instance: untrusted time, community rules, and real device setup — the
// file-descriptor work EndBox avoids (Table II).
func ServerClickContext(deviceSetup func() error) *click.Context {
	return &click.Context{
		RuleSet: func(name string) (string, error) {
			if name != "community" {
				return "", fmt.Errorf("bench: unknown rule set %q", name)
			}
			return idps.CommunityRules(), nil
		},
		DeviceSetup: deviceSetup,
	}
}
