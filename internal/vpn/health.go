package vpn

import (
	"encoding/json"
	"fmt"
)

// Robustness frame types inside the sealed data channel (alongside
// FrameData/FramePing in handshake.go). Both ride the data channel rather
// than a plaintext control message deliberately: nacks and health reports
// drive canary rollback decisions, and an unauthenticated one would let
// an on-path attacker fabricate apply failures and force fleet-wide
// rollbacks. Sealing them gives both transports (in-process and UDP) the
// same authenticated path for free.
const (
	// FrameNack carries a client's typed rejection of an announced
	// configuration version (JSON Nack body).
	FrameNack byte = 3
	// FrameHealth carries a client's health report (JSON HealthReport
	// body): apply acks with swap timing, and fault notifications when a
	// freshly applied pipeline trips quarantine.
	FrameHealth byte = 4
)

// Nack reports that a client could not apply an announced configuration
// version — a fetch failure, a bad blob, an element that panicked during
// the hot-swap, or a version the client has marked bad after a local
// self-revert. Before nacks existed a failed applyVersion was only
// visible if someone polled Client.LastUpdateError.
type Nack struct {
	Version uint64 `json:"version"`
	Reason  string `json:"reason"`
}

// HealthReport is a client's view of its own pipeline health, keyed by
// the configuration version it is running. OK is the client's verdict at
// send time; the counters let the server compute post-swap deltas.
type HealthReport struct {
	// Version is the configuration version the report describes.
	Version uint64 `json:"version"`
	// OK reports whether the client considers the configuration healthy
	// (applied cleanly, no quarantined elements).
	OK bool `json:"ok"`
	// SwapNanos is the in-enclave hot-swap duration of the last apply.
	SwapNanos int64 `json:"swap_nanos,omitempty"`
	// Panics is the pipeline's cumulative recovered-panic count.
	Panics uint64 `json:"panics,omitempty"`
	// Drops is the pipeline's cumulative drop count (informational —
	// filters drop packets as their job).
	Drops uint64 `json:"drops,omitempty"`
	// Quarantined counts currently quarantined elements.
	Quarantined int `json:"quarantined,omitempty"`
	// Fault names a faulting element, when the report was triggered by a
	// containment event.
	Fault string `json:"fault,omitempty"`
}

// EncodeNack serialises a nack with its frame tag.
func EncodeNack(n Nack) ([]byte, error) {
	return encodeJSONFrame(FrameNack, n)
}

// DecodeNack parses a nack payload (after the frame tag).
func DecodeNack(body []byte) (Nack, error) {
	var n Nack
	if err := json.Unmarshal(body, &n); err != nil {
		return Nack{}, fmt.Errorf("vpn: bad nack: %w", err)
	}
	return n, nil
}

// EncodeHealth serialises a health report with its frame tag.
func EncodeHealth(h HealthReport) ([]byte, error) {
	return encodeJSONFrame(FrameHealth, h)
}

// DecodeHealth parses a health-report payload (after the frame tag).
func DecodeHealth(body []byte) (HealthReport, error) {
	var h HealthReport
	if err := json.Unmarshal(body, &h); err != nil {
		return HealthReport{}, fmt.Errorf("vpn: bad health report: %w", err)
	}
	return h, nil
}

func encodeJSONFrame(tag byte, v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("vpn: encode frame %d: %w", tag, err)
	}
	out := make([]byte, 1+len(raw))
	out[0] = tag
	copy(out[1:], raw)
	return out, nil
}

// SendNack seals and sends a typed configuration rejection to the server.
func (c *Client) SendNack(n Nack) error {
	payload, err := EncodeNack(n)
	if err != nil {
		return err
	}
	return c.sendControl(payload)
}

// SendHealth seals and sends a health report to the server.
func (c *Client) SendHealth(h HealthReport) error {
	payload, err := EncodeHealth(h)
	if err != nil {
		return err
	}
	return c.sendControl(payload)
}
