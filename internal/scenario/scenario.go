// Package scenario is the trace-driven workload harness: it composes the
// deterministic traffic generators (internal/trace, internal/netsim) with
// a real deployment — Deployment, vpn.Server, enclave pipelines — into
// named end-to-end scenarios that exercise whole subsystems together the
// way the paper's evaluation does (§V), rather than one element at a
// time. Each scenario runs over either transport (in-process direct calls
// or real UDP sockets) and reports a uniform Result: throughput, drop /
// shed / alert counters, flow-table occupancy, ARQ retransmissions and
// lifecycle events.
//
// A scenario is selected by a spec string:
//
//	name[:key=value[,key=value...]]
//
// e.g. "ddos-flood:syn=2000,capacity=512". Unknown scenario names,
// malformed specs and unknown or malformed parameters all fail with
// errors wrapping ErrBadSpec — never a panic — so specs can arrive from
// command lines and CI configuration.
package scenario

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ErrBadSpec reports a scenario spec that cannot be parsed or validated:
// bad syntax, an unknown scenario name, an unknown parameter key, or a
// parameter value of the wrong type. All spec-handling errors wrap it.
var ErrBadSpec = errors.New("scenario: bad spec")

// Params are a scenario's string-typed parameters (spec key=value pairs
// merged over the scenario's defaults). Typed accessors convert on read
// and return errors wrapping ErrBadSpec for malformed values.
type Params map[string]string

// Int reads an integer parameter. The key is guaranteed present after
// Run's merge (every key has a default); a missing key reads as zero.
func (p Params) Int(key string) (int, error) {
	raw, ok := p[key]
	if !ok {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("%w: parameter %s=%q is not an integer", ErrBadSpec, key, raw)
	}
	return n, nil
}

// Str reads a string parameter.
func (p Params) Str(key string) string { return p[key] }

// Spec is one parsed scenario selection.
type Spec struct {
	// Name is the scenario name ("enterprise-tls", "ddos-flood", ...).
	Name string
	// Params are the explicit key=value overrides from the spec string
	// (defaults not yet merged).
	Params Params
}

// ParseSpec parses "name[:key=value[,key=value...]]". It validates syntax
// only; Run checks the name against the registry and the keys against the
// scenario's defaults.
func ParseSpec(s string) (Spec, error) {
	name, rest, hasParams := strings.Cut(s, ":")
	if err := checkIdent("scenario name", name); err != nil {
		return Spec{}, err
	}
	spec := Spec{Name: name, Params: Params{}}
	if !hasParams {
		return spec, nil
	}
	if rest == "" {
		return Spec{}, fmt.Errorf("%w: %q has a ':' but no parameters", ErrBadSpec, s)
	}
	for _, kv := range strings.Split(rest, ",") {
		key, value, ok := strings.Cut(kv, "=")
		if !ok {
			return Spec{}, fmt.Errorf("%w: parameter %q is not key=value", ErrBadSpec, kv)
		}
		if err := checkIdent("parameter key", key); err != nil {
			return Spec{}, err
		}
		if value == "" {
			return Spec{}, fmt.Errorf("%w: parameter %q has an empty value", ErrBadSpec, key)
		}
		if _, dup := spec.Params[key]; dup {
			return Spec{}, fmt.Errorf("%w: duplicate parameter %q", ErrBadSpec, key)
		}
		spec.Params[key] = value
	}
	return spec, nil
}

// checkIdent validates a name or key: non-empty, lowercase letters,
// digits, '-' and '_' only.
func checkIdent(what, s string) error {
	if s == "" {
		return fmt.Errorf("%w: empty %s", ErrBadSpec, what)
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '-' || c == '_' {
			continue
		}
		return fmt.Errorf("%w: %s %q has invalid character %q", ErrBadSpec, what, s, c)
	}
	return nil
}

// Transport names accepted by Run.
const (
	TransportInProcess = "inprocess"
	TransportUDP       = "udp"
)

// Config is what a scenario's Setup receives: the resolved transport, the
// fully merged parameters, and the round count the harness will drive.
type Config struct {
	Transport string
	Params    Params
	Rounds    int
}

// Instance is one set-up scenario run. Play is called Rounds times; Mid
// (optional) once, before the middle round — the hook for mid-run
// perturbations (targeted rollouts, session eviction). Collect builds the
// Result after the last round and is where a scenario asserts its own
// invariants (an occupancy bound, control-plane survival), so violations
// fail the run rather than skewing a report. Close releases everything.
type Instance struct {
	Play    func() error
	Mid     func() error
	Collect func() (*Result, error)
	Close   func()
}

// Scenario is one registered named workload.
type Scenario struct {
	Name        string
	Description string
	// Defaults declares every parameter the scenario accepts, with its
	// default value; a spec key outside this set (or "rounds") is
	// rejected with ErrBadSpec.
	Defaults Params
	Setup    func(cfg Config) (*Instance, error)
}

// Result is the uniform scenario report. One JSON object per scenario run
// is the exchange format between the harness and the endbox-bench CLI.
type Result struct {
	Scenario  string        `json:"scenario"`
	Transport string        `json:"transport"`
	Rounds    int           `json:"rounds"`
	Packets   uint64        `json:"packets"`
	Bytes     uint64        `json:"bytes"`
	Elapsed   time.Duration `json:"elapsed_ns"`
	MBps      float64       `json:"mb_per_s"`

	// Delivered counts packets the server handed to the managed network;
	// Dropped counts middlebox rejections observed by the sender; Shed
	// counts frames discarded by server overload shedding; Alerts counts
	// IDS alerts raised in client enclaves.
	Delivered uint64 `json:"delivered"`
	Dropped   uint64 `json:"dropped"`
	Shed      uint64 `json:"shed"`
	Alerts    uint64 `json:"alerts"`

	// Flow-table state across all clients after the run.
	FlowsActive  uint64 `json:"flows_active"`
	FlowCapacity uint64 `json:"flow_capacity"`
	FlowsEvicted uint64 `json:"flows_evicted"`

	// Retransmits are server-side ARQ retransmissions (UDP transport
	// only; the in-process transport cannot lose messages).
	Retransmits uint64 `json:"retransmits"`

	// Lifecycle events (mixed-cohort: mid-run eviction and resume;
	// versioned-fleet: sessions evicted by a mid-run build revocation).
	Evicted uint64 `json:"evicted"`
	Resumed uint64 `json:"resumed"`
	Revoked uint64 `json:"revoked,omitempty"`
	// RolloutVersion is the configuration version a mid-run rollout
	// converged to (0 = no rollout in this scenario).
	RolloutVersion uint64 `json:"rollout_version,omitempty"`

	// ControlOK reports that control-plane traffic (a version-reporting
	// ping) survived the scenario's data-plane load.
	ControlOK bool `json:"control_ok"`
}

var registry = map[string]Scenario{}

// Register adds a scenario to the registry; duplicate names panic at
// init time (a programming error, not an input error).
func Register(s Scenario) {
	if s.Name == "" || s.Setup == nil {
		panic("scenario: Register needs a name and a Setup")
	}
	if _, dup := registry[s.Name]; dup {
		panic("scenario: duplicate scenario " + s.Name)
	}
	registry[s.Name] = s
}

// Names returns the registered scenario names, sorted.
func Names() []string {
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Lookup returns a registered scenario.
func Lookup(name string) (Scenario, bool) {
	s, ok := registry[name]
	return s, ok
}

// defaultRounds is the round count when neither the scenario's defaults
// nor the spec set "rounds".
const defaultRounds = 4

// Run parses a spec, sets the scenario up on the given transport
// ("inprocess" or "udp"), drives Play for the configured number of rounds
// with Mid fired once before the middle round, and returns the collected
// Result. Spec problems — syntax, unknown scenario, unknown or malformed
// parameters, unknown transport — fail with errors wrapping ErrBadSpec.
func Run(specStr, transport string) (*Result, error) {
	spec, err := ParseSpec(specStr)
	if err != nil {
		return nil, err
	}
	sc, ok := Lookup(spec.Name)
	if !ok {
		return nil, fmt.Errorf("%w: unknown scenario %q (have %s)",
			ErrBadSpec, spec.Name, strings.Join(Names(), ", "))
	}
	if transport != TransportInProcess && transport != TransportUDP {
		return nil, fmt.Errorf("%w: unknown transport %q (want %q or %q)",
			ErrBadSpec, transport, TransportInProcess, TransportUDP)
	}

	// Merge the spec's overrides onto the scenario's defaults, rejecting
	// keys the scenario never declared.
	merged := Params{"rounds": strconv.Itoa(defaultRounds)}
	for k, v := range sc.Defaults {
		merged[k] = v
	}
	for k, v := range spec.Params {
		if _, known := merged[k]; !known {
			return nil, fmt.Errorf("%w: scenario %q has no parameter %q",
				ErrBadSpec, spec.Name, k)
		}
		merged[k] = v
	}
	rounds, err := merged.Int("rounds")
	if err != nil {
		return nil, err
	}
	if rounds < 1 {
		return nil, fmt.Errorf("%w: rounds=%d (need at least 1)", ErrBadSpec, rounds)
	}

	inst, err := sc.Setup(Config{Transport: transport, Params: merged, Rounds: rounds})
	if err != nil {
		return nil, fmt.Errorf("scenario %s: setup: %w", spec.Name, err)
	}
	defer inst.Close()

	start := time.Now()
	for round := 0; round < rounds; round++ {
		if round == rounds/2 && inst.Mid != nil {
			if err := inst.Mid(); err != nil {
				return nil, fmt.Errorf("scenario %s: mid-run: %w", spec.Name, err)
			}
		}
		if err := inst.Play(); err != nil {
			return nil, fmt.Errorf("scenario %s: round %d: %w", spec.Name, round, err)
		}
	}
	elapsed := time.Since(start)

	res, err := inst.Collect()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: collect: %w", spec.Name, err)
	}
	res.Scenario = spec.Name
	res.Transport = transport
	res.Rounds = rounds
	res.Elapsed = elapsed
	if secs := elapsed.Seconds(); secs > 0 {
		res.MBps = float64(res.Bytes) / 1e6 / secs
	}
	return res, nil
}
