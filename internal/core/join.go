package core

import (
	"context"
	"crypto/ed25519"
	"fmt"

	"endbox/internal/attest"
	"endbox/internal/vpn"
)

// JoinOptions describes one client joining a server through a link.
type JoinOptions struct {
	// Client is the client the caller wants: identity, CPU, enclave mode,
	// middlebox configuration, callbacks. Join fills in what the link and
	// the join itself provide — QE and Enroll (or SealedIdentity),
	// FetchConfig, Send, SendControl, and CAPub unless it is already set.
	Client ClientOptions
	// Resume re-establishes a previous session: the enclave is rebuilt from
	// the sealed identity (no platform registration, no attestation, no
	// enrolment) and the VPN session from the ticket (one round trip, no
	// certificate walk, no ECDH). Only SealedIdentity, Secret and Ticket are
	// read, and Client.CAPub must be set. Nil runs the full sequence.
	Resume *ResumeState
	// Boot, if set, runs once the CA key is known and before the enclave is
	// built, and may complete the client's middlebox configuration — the
	// standalone client fetches and verifies the server's current
	// configuration here (paper §III-E: the configuration server is publicly
	// readable so clients can obtain it before connecting).
	Boot func(caPub ed25519.PublicKey, o *ClientOptions) error
}

// Join is the one client join sequence, shared by Deployment.AddClient,
// Deployment.ResumeClient and cmd/endbox-client: platform registration and
// remote attestation over the link (or, resuming, the sealed identity),
// the enclave build, the inbound-frame hook — burst delivery when the link
// offers it, so queued frames cross the enclave boundary in one ecall —
// and the VPN handshake or ticket resume. The link stays the caller's to
// close; a client Join could not connect is destroyed before returning.
func Join(ctx context.Context, link ClientLink, o JoinOptions) (*Client, error) {
	opts := o.Client
	rl, canResume := link.(ResumeLink)
	if o.Resume != nil {
		if !canResume {
			return nil, fmt.Errorf("core: transport cannot resume client %q (no ResumeLink); join afresh", opts.ID)
		}
		opts.SealedIdentity = o.Resume.SealedIdentity
	} else {
		// Platform setup: quoting enclave and IAS registration, which also
		// returns the CA public key real deployments bake into the enclave
		// image at build time.
		qe, err := attest.NewQuotingEnclave(opts.CPU, "platform-"+opts.ID)
		if err != nil {
			return nil, err
		}
		if opts.CAPub, err = link.Register(ctx, qe.PlatformID(), qe.VerificationKey()); err != nil {
			return nil, err
		}
		opts.QE = qe
		opts.Enroll = func(q attest.Quote) (*attest.Provision, error) { return link.Enroll(ctx, q) }
	}
	if o.Boot != nil {
		if err := o.Boot(opts.CAPub, &opts); err != nil {
			return nil, err
		}
	}
	opts.FetchConfig = func(version uint64) ([]byte, error) {
		return link.FetchConfig(context.Background(), version)
	}
	opts.Send = link.SendFrame
	// Links that distinguish delivery classes carry pings, nacks and health
	// reports past the server's overload-shedding watermark.
	if cl, ok := link.(ControlLink); ok {
		opts.SendControl = cl.SendControlFrame
	}
	cli, err := NewClient(opts)
	if err != nil {
		return nil, err
	}
	if bl, ok := link.(BatchClientLink); ok {
		bl.SetDeliverBatch(func(frames [][]byte) error {
			_, err := cli.HandleFrames(frames)
			return err
		})
	} else {
		link.SetDeliver(cli.HandleFrame)
	}
	if o.Resume != nil {
		err = cli.Resume(ctx, o.Resume.Secret, o.Resume.Ticket, func(r *vpn.ResumeRequest) (*vpn.ResumeReply, error) {
			return rl.Resume(ctx, r)
		})
	} else {
		err = cli.Connect(ctx, func(h *vpn.ClientHello) (*vpn.ServerHello, error) {
			return link.Hello(ctx, h)
		})
	}
	if err != nil {
		cli.Close()
		return nil, err
	}
	return cli, nil
}
