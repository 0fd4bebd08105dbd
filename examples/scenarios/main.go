// Scenarios: the workload matrix against the real binaries.
//
// The in-process scenario harness (internal/scenario, `endbox-bench
// -scenario`) drives a Deployment through named end-to-end workloads.
// This walkthrough closes the loop with the real processes: it builds
// cmd/endbox-server and cmd/endbox-client, boots the server with the
// same ConnTrack+FlowRateLimit pipeline the ddos-flood scenario uses,
// and replays that scenario's attack from a genuine client process —
// spoofed SYNs pushed through the tunnel with `endbox-client -flood` —
// over real UDP sockets and a real attestation handshake.
//
// What to watch for in the output:
//
//   - the client's flood report: the enclave flow table stays at or
//     below its configured capacity (256 here) no matter how many
//     spoofed sources the flood invents — eviction, not growth;
//   - the pings after the flood: the control plane and legitimate
//     traffic still work once the attack stops.
//
// The same properties are asserted programmatically by the ddos-flood
// scenario (go test ./internal/scenario/); `endbox-bench -scenario list`
// prints the matrix.
package main

import (
	"bufio"
	"context"
	"fmt"
	"log"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"time"

	"endbox/internal/scenario"
	"endbox/mbox"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	fmt.Println("scenario matrix (endbox-bench -scenario list):")
	for _, name := range scenario.Names() {
		s, _ := scenario.Lookup(name)
		fmt.Printf("  %-16s %s\n", name, s.Description)
	}
	fmt.Println()

	// The ddos-flood scenario's pipeline, rendered to the raw Click text
	// the server's -pipeline flag takes: strict connection tracking in
	// front of a per-flow shaper.
	pipe, err := mbox.Chain(
		mbox.ConnTrack(mbox.ConnTrackOptions{}),
		mbox.FlowRateLimit("100M", 1<<20),
	).Config()
	if err != nil {
		return err
	}

	// Real binaries, not library calls: build them into a scratch dir.
	dir, err := os.MkdirTemp("", "endbox-scenarios")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	fmt.Println("building endbox-server and endbox-client...")
	build := exec.CommandContext(ctx, "go", "build", "-o", dir,
		"endbox/cmd/endbox-server", "endbox/cmd/endbox-client")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		return fmt.Errorf("go build: %w", err)
	}

	// Boot the server on an ephemeral port with the scenario's pipeline
	// and the scenario's flow-table bound.
	server := exec.CommandContext(ctx, filepath.Join(dir, "endbox-server"),
		"-listen", "127.0.0.1:0",
		"-pipeline", pipe,
		"-flow-capacity", "256",
		"-udp-workers", "2",
	)
	serverErr, err := server.StderrPipe()
	if err != nil {
		return err
	}
	if err := server.Start(); err != nil {
		return err
	}
	defer func() {
		server.Process.Kill()
		server.Wait()
	}()

	// The server announces its bound address on stderr; scan for it and
	// keep echoing its log lines in the background.
	addrCh := make(chan string, 1)
	listenRe := regexp.MustCompile(`listening on (\S+)`)
	go func() {
		// The flood makes the server's bounded ingress pool shed data
		// frames at its watermark — by design, and very loudly. Collapse
		// the repeats into a count.
		shed := 0
		sc := bufio.NewScanner(serverErr)
		for sc.Scan() {
			line := sc.Text()
			if strings.Contains(line, "ingress queue full") {
				if shed == 0 {
					fmt.Println("[server]", line)
				}
				shed++
				continue
			}
			if shed > 1 {
				fmt.Printf("[server] ... ingress watermark shed %d flood frames in total\n", shed)
				shed = 0
			}
			fmt.Println("[server]", line)
			if m := listenRe.FindStringSubmatch(line); m != nil {
				select {
				case addrCh <- m[1]:
				default:
				}
			}
		}
		if shed > 1 {
			fmt.Printf("[server] ... ingress watermark shed %d flood frames in total\n", shed)
		}
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("server never announced its listen address")
	}

	// One client process replays the attack: attest, connect, push 4000
	// spoofed SYNs through the tunnel, then ping to show the control
	// plane survived.
	fmt.Println()
	fmt.Println("running endbox-client -flood 4000 against", addr)
	client := exec.CommandContext(ctx, filepath.Join(dir, "endbox-client"),
		"-server", addr,
		"-id", "edge-1",
		"-flow-capacity", "256",
		"-flood", "4000",
		"-pings", "5",
		"-interval", "100ms",
	)
	out, err := client.CombinedOutput()
	for _, line := range strings.Split(strings.TrimRight(string(out), "\n"), "\n") {
		fmt.Println("[client]", line)
	}
	if err != nil {
		return fmt.Errorf("endbox-client: %w", err)
	}
	if !strings.Contains(string(out), "flood:") {
		return fmt.Errorf("client output missing flood report")
	}

	fmt.Println()
	fmt.Println("flood absorbed by a bounded flow table; pings survived.")
	fmt.Println("run the full matrix in-process with: go test ./internal/scenario/")
	return nil
}
