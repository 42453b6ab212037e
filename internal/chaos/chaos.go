// Package chaos is the harness's adversary: a deterministic, seeded
// fault layer for the three planes a campaign's recovery paths depend on.
// The network plane wraps any net.Conn or net.Listener and injects the
// failures a distributed campaign will actually face — added latency and
// jitter, bandwidth caps, flipped bytes, truncated writes, silently
// dropped writes, half-open "black-hole" partitions (optionally healing,
// for asymmetric outages), and mid-stream connection resets. The storage
// plane (WrapFile, disk.go) injects the failures durable state suffers —
// ENOSPC, short and torn writes, fsync failure and delay, read-back
// corruption, poisoned checkpoints — into the journal WAL, its fabric
// sidecar, and the golden checkpoint store. The pipe plane (WrapPipes)
// corrupts, truncates or severs the proc-isolation worker pipes so the
// CRC framing and the supervisor's restart machinery get exercised by the
// byte-level failures they exist for.
//
// The package exists to turn the repository's own method on itself: the
// fault-injection campaigns this system runs are only trustworthy if the
// harness survives the fault classes it studies (the same argument ZOFI
// makes for its own crash-handling harness). Every fabric robustness
// mechanism — per-frame CRCs, session resume, coordinator recovery — is
// validated by running full campaigns through this layer and requiring
// byte-identical journals and reports.
//
// Determinism: every fault decision comes from a splitmix64 stream derived
// from (Config.Seed, handle ordinal), where each plane counts its wrapped
// handles — connections, files, pipes — in wrap order, independently of the
// other planes. A single handle's fault schedule is therefore a pure
// function of the seed and its ordinal; rerunning a test with the same
// seed replays the same corruption at the same byte offsets.
// Campaign *results* never depend on the schedule — that is the whole
// point — but reproducing a failure found under chaos needs only the seed.
//
// Faults are injected on the write path (the wrapped side mangles what it
// sends), so one chaotic endpoint is enough to exercise both directions of
// a protocol: the peer sees corrupt frames, the wrapper sees its own
// writes vanish. Partitions additionally stall the read path, modelling a
// link that went silent rather than a process that died.
package chaos

import (
	"fmt"
	"net"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// Config selects which faults a wrapped connection injects and how often.
// The zero Config injects nothing (Enabled reports false). Probabilities
// are per Write call, evaluated in a fixed order (partition, reset,
// truncate, drop, corrupt) so a given random stream always yields the same
// schedule.
type Config struct {
	// Seed selects the deterministic fault schedule. Two runs with the
	// same Seed and the same connection ordinals inject identical faults.
	Seed int64

	// Latency is added to every Write; Jitter adds a uniform random
	// 0..Jitter on top. Models slow and wobbly links.
	Latency time.Duration
	Jitter  time.Duration

	// Bandwidth caps the wrapped side's send rate in bytes per second
	// (0 = unlimited). Implemented as proportional sleep, not queueing.
	Bandwidth int

	// Corrupt is the per-write probability of flipping one byte of the
	// payload before it reaches the wire — the poisoned-frame case the
	// fabric's per-frame CRC exists to catch.
	Corrupt float64

	// Drop is the per-write probability of silently swallowing the write:
	// the caller sees success, the peer sees a hole in the stream.
	Drop float64

	// Truncate is the per-write probability of writing only a prefix and
	// then severing the connection — a torn frame followed by loss.
	Truncate float64

	// Reset is the per-write probability of severing the connection
	// without writing anything, like a mid-stream RST.
	Reset float64

	// Partition is the per-write probability of entering a black-hole
	// partition: writes are swallowed and reads stall for PartitionFor,
	// after which the connection reports failure. Models a half-open link
	// that only heartbeat timeouts can detect.
	Partition    float64
	PartitionFor time.Duration

	// PartitionHeal makes partitions asymmetric and survivable: during the
	// window the wrapped side's writes are swallowed (A→B blocked) but its
	// reads pass through (B→A open), and when the window closes the link
	// resumes instead of dying. Models a one-way outage that heals — the
	// case session resume plus retransmit must ride out without a redial.
	PartitionHeal bool

	// Disk faults apply to handles wrapped with WrapFile, per Write /
	// WriteAt / Read / Sync call. They model the storage failures the
	// journal and checkpoint degradation contracts exist for.
	DiskENOSPC      float64       // write fails with no bytes written (disk full)
	DiskShortWrite  float64       // write persists only a prefix and reports it
	DiskTornWrite   float64       // write persists only a prefix but reports success
	DiskSyncFail    float64       // Sync reports failure (data may or may not be durable)
	DiskSyncDelay   time.Duration // every Sync stalls this long (slow/contended disk)
	DiskReadCorrupt float64       // read-back flips one byte of the returned data
	DiskPoison      float64       // golden checkpoint built with a corrupted integrity sum

	// Pipe faults apply to proc-isolation worker pipes wrapped with
	// WrapPipes, per Write/Read. There is deliberately no silent drop: real
	// pipes fail by termination (EPIPE, SIGKILL of the peer), not loss, and
	// a silently dropped exec frame would stall an idle-but-heartbeating
	// worker forever. Corrupt/truncate/reset cover the failure surface the
	// CRC framing and the supervisor's restart machinery must absorb.
	PipeCorrupt  float64 // one byte of the frame flipped in flight
	PipeTruncate float64 // a prefix written, then the pipe severed
	PipeReset    float64 // the pipe severed without writing
}

// Enabled reports whether the config injects any fault at all, on any
// plane.
func (c *Config) Enabled() bool {
	return c.NetEnabled() || c.DiskEnabled() || c.PipeEnabled()
}

// NetEnabled reports whether any network-plane fault is configured; Wrap
// and Listener are pass-throughs otherwise.
func (c *Config) NetEnabled() bool {
	if c == nil {
		return false
	}
	return c.Latency > 0 || c.Jitter > 0 || c.Bandwidth > 0 ||
		c.Corrupt > 0 || c.Drop > 0 || c.Truncate > 0 || c.Reset > 0 || c.Partition > 0
}

// DiskEnabled reports whether any storage-plane fault is configured;
// WrapFile is a pass-through otherwise. DiskPoison is excluded — it acts
// on checkpoint construction, not on a wrapped handle.
func (c *Config) DiskEnabled() bool {
	if c == nil {
		return false
	}
	return c.DiskENOSPC > 0 || c.DiskShortWrite > 0 || c.DiskTornWrite > 0 ||
		c.DiskSyncFail > 0 || c.DiskSyncDelay > 0 || c.DiskReadCorrupt > 0
}

// PipeEnabled reports whether any pipe-plane fault is configured; WrapPipes
// is a pass-through otherwise.
func (c *Config) PipeEnabled() bool {
	if c == nil {
		return false
	}
	return c.PipeCorrupt > 0 || c.PipeTruncate > 0 || c.PipeReset > 0
}

// Metrics counts injected faults. All fields are optional; nil instruments
// (or a nil *Metrics) count nothing. The counts surface on /metrics and in
// the end-of-run report, so a chaos run states exactly how much abuse the
// campaign absorbed.
type Metrics struct {
	Corrupted  *telemetry.Counter // writes with a flipped byte
	Dropped    *telemetry.Counter // writes silently swallowed
	Truncated  *telemetry.Counter // writes cut short, connection severed
	Resets     *telemetry.Counter // connections severed mid-stream
	Partitions *telemetry.Counter // black-hole partitions entered
	Healed     *telemetry.Counter // asymmetric partitions that healed
	Delayed    *telemetry.Counter // writes that paid latency/jitter/bandwidth sleep

	DiskENOSPC      *telemetry.Counter // file writes failed with injected disk-full
	DiskShortWrites *telemetry.Counter // file writes cut short, error reported
	DiskTornWrites  *telemetry.Counter // file writes cut short, success reported
	DiskSyncFails   *telemetry.Counter // Syncs failed
	DiskReadCorrupt *telemetry.Counter // file reads with a flipped byte
	DiskPoisoned    *telemetry.Counter // golden checkpoints built with a bad sum
}

// NewMetrics registers the chaos instruments on reg under the chaos_*
// namespace; a nil registry yields nil (counting off).
func NewMetrics(reg *telemetry.Registry) *Metrics {
	if reg == nil {
		return nil
	}
	return &Metrics{
		Corrupted:  reg.Counter("chaos_corrupted_writes_total"),
		Dropped:    reg.Counter("chaos_dropped_writes_total"),
		Truncated:  reg.Counter("chaos_truncated_writes_total"),
		Resets:     reg.Counter("chaos_resets_total"),
		Partitions: reg.Counter("chaos_partitions_total"),
		Healed:     reg.Counter("chaos_partitions_healed_total"),
		Delayed:    reg.Counter("chaos_delayed_writes_total"),

		DiskENOSPC:      reg.Counter("chaos_disk_enospc_total"),
		DiskShortWrites: reg.Counter("chaos_disk_short_writes_total"),
		DiskTornWrites:  reg.Counter("chaos_disk_torn_writes_total"),
		DiskSyncFails:   reg.Counter("chaos_disk_sync_failures_total"),
		DiskReadCorrupt: reg.Counter("chaos_disk_read_corruptions_total"),
		DiskPoisoned:    reg.Counter("chaos_disk_checkpoints_poisoned_total"),
	}
}

// splitmix64 is the per-connection deterministic stream: tiny, seedable,
// and independent of math/rand's global state or Go version.
type splitmix64 struct{ s uint64 }

func (r *splitmix64) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0,1).
func (r *splitmix64) float() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// intn returns a uniform int in [0,n).
func (r *splitmix64) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Chaos wraps connections, file handles and worker pipes with a shared
// config and metrics sink. Each plane counts its own wrap ordinal, so the
// fault schedule of a file handle is a pure function of (seed, file
// ordinal) no matter how many connections were wrapped before it.
type Chaos struct {
	cfg     Config
	metrics *Metrics
	ordinal atomic.Uint64 // net.Conn wrap order
	fileOrd atomic.Uint64 // WrapFile wrap order
	pipeOrd atomic.Uint64 // WrapPipes wrap order

	poisonMu  sync.Mutex
	poisonRng splitmix64
	poisonOn  bool
}

// New builds a Chaos wrapper. A nil config (or one with no faults enabled)
// yields a pass-through wrapper: Wrap returns its argument unchanged.
func New(cfg Config, m *Metrics) *Chaos {
	c := &Chaos{cfg: cfg, metrics: m}
	c.poisonOn = cfg.DiskPoison > 0
	// A stream of its own: checkpoint construction order must not perturb
	// the file/conn schedules (or vice versa).
	c.poisonRng.s = uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 0xa0761d6478bd642f
	return c
}

// Config returns a copy of the wrapper's configuration.
func (c *Chaos) Config() Config {
	if c == nil {
		return Config{}
	}
	return c.cfg
}

// seedFor derives the per-handle stream seed from the config seed and a
// wrap ordinal. Each plane passes its own ordinal counter.
func (c *Chaos) seedFor(ord uint64) uint64 {
	return uint64(c.cfg.Seed)*0x9e3779b97f4a7c15 + ord*0xd1342543de82ef95 + 0x2545f4914f6cdd1d
}

// Wrap returns conn with the configured fault injection on its write path
// (and partition stalls on its read path). With no network faults enabled
// it returns conn itself.
func (c *Chaos) Wrap(conn net.Conn) net.Conn {
	if c == nil || !c.cfg.NetEnabled() {
		return conn
	}
	ord := c.ordinal.Add(1) - 1
	fc := &faultConn{Conn: conn, cfg: &c.cfg, m: c.metrics}
	fc.rng.s = c.seedFor(ord)
	return fc
}

// Listener wraps ln so every accepted connection is chaos-wrapped. With no
// network faults enabled it returns ln itself.
func (c *Chaos) Listener(ln net.Listener) net.Listener {
	if c == nil || !c.cfg.NetEnabled() {
		return ln
	}
	return &faultListener{Listener: ln, chaos: c}
}

// PoisonCheckpoint draws from the dedicated poison stream and reports
// whether the golden checkpoint being built should carry a corrupted
// integrity sum. With DiskPoison off it returns false without consuming a
// draw, so enabling other disk faults never shifts the poison schedule.
func (c *Chaos) PoisonCheckpoint() bool {
	if c == nil || !c.poisonOn {
		return false
	}
	c.poisonMu.Lock()
	hit := c.poisonRng.float() < c.cfg.DiskPoison
	c.poisonMu.Unlock()
	if hit && c.metrics != nil {
		inc(c.metrics.DiskPoisoned)
	}
	return hit
}

type faultListener struct {
	net.Listener
	chaos *Chaos
}

func (l *faultListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.chaos.Wrap(conn), nil
}

// faultConn injects the configured faults on Write and partition stalls on
// Read. The mutex serialises fault decisions so the rng stream stays
// deterministic under concurrent writers (the frame layers above already
// serialise writes, but the wrapper must not depend on that).
type faultConn struct {
	net.Conn
	cfg *Config
	m   *Metrics

	mu      sync.Mutex
	rng     splitmix64
	dead    bool
	parted  bool
	partEnd time.Time
}

// errInjected marks failures this layer created, so logs distinguish
// injected chaos from real network trouble.
type errInjected struct{ what string }

func (e *errInjected) Error() string { return "chaos: injected " + e.what }

// Timeout reports true so deadline-style handling applies where callers
// check for it; the fabric treats any conn error the same way (reconnect).
func (e *errInjected) Timeout() bool { return false }

func inc(c *telemetry.Counter) {
	if c != nil {
		c.Inc()
	}
}

func (f *faultConn) Write(b []byte) (int, error) {
	f.mu.Lock()
	if f.dead {
		f.mu.Unlock()
		return 0, &errInjected{what: "reset (connection severed)"}
	}
	if f.parted {
		// Black hole: swallow silently until the partition window closes,
		// then either heal (asymmetric outage that passed) or report the
		// connection dead.
		if time.Now().Before(f.partEnd) {
			f.mu.Unlock()
			return len(b), nil
		}
		if f.cfg.PartitionHeal {
			f.parted = false
			if f.m != nil {
				inc(f.m.Healed)
			}
			// Fall through: this write goes out on the healed link.
		} else {
			f.dead = true
			f.mu.Unlock()
			f.Conn.Close()
			return 0, &errInjected{what: "partition expiry"}
		}
	}

	// Fault decisions in fixed order, one rng draw each, so the schedule
	// is a pure function of the stream regardless of which faults are
	// enabled.
	pPart := f.rng.float()
	pReset := f.rng.float()
	pTrunc := f.rng.float()
	pDrop := f.rng.float()
	pCorrupt := f.rng.float()
	corruptAt := f.rng.intn(len(b))
	corruptBit := byte(1 << f.rng.intn(8))

	switch {
	case pPart < f.cfg.Partition:
		dur := f.cfg.PartitionFor
		if dur <= 0 {
			dur = 500 * time.Millisecond
		}
		f.parted = true
		f.partEnd = time.Now().Add(dur)
		f.mu.Unlock()
		if f.m != nil {
			inc(f.m.Partitions)
		}
		return len(b), nil
	case pReset < f.cfg.Reset:
		f.dead = true
		f.mu.Unlock()
		if f.m != nil {
			inc(f.m.Resets)
		}
		f.Conn.Close()
		return 0, &errInjected{what: "reset"}
	case pTrunc < f.cfg.Truncate:
		cut := len(b) / 2
		f.dead = true
		f.mu.Unlock()
		if f.m != nil {
			inc(f.m.Truncated)
		}
		if cut > 0 {
			f.Conn.Write(b[:cut]) // the torn prefix reaches the peer
		}
		f.Conn.Close()
		return cut, &errInjected{what: "truncated write"}
	case pDrop < f.cfg.Drop:
		f.mu.Unlock()
		if f.m != nil {
			inc(f.m.Dropped)
		}
		return len(b), nil
	}

	var sent []byte
	if pCorrupt < f.cfg.Corrupt && len(b) > 0 {
		sent = append(sent, b...)
		sent[corruptAt] ^= corruptBit
		if f.m != nil {
			inc(f.m.Corrupted)
		}
	}
	f.mu.Unlock()

	if d := f.delay(len(b)); d > 0 {
		if f.m != nil {
			inc(f.m.Delayed)
		}
		time.Sleep(d)
	}
	if sent != nil {
		n, err := f.Conn.Write(sent)
		if n > len(b) {
			n = len(b)
		}
		return n, err
	}
	return f.Conn.Write(b)
}

// delay computes the latency + jitter + bandwidth sleep for an n-byte
// write. The jitter draw happens under the lock via rngJitter to keep the
// stream deterministic.
func (f *faultConn) delay(n int) time.Duration {
	d := f.cfg.Latency
	if f.cfg.Jitter > 0 {
		f.mu.Lock()
		d += time.Duration(f.rng.next() % uint64(f.cfg.Jitter))
		f.mu.Unlock()
	}
	if f.cfg.Bandwidth > 0 {
		d += time.Duration(float64(n) / float64(f.cfg.Bandwidth) * float64(time.Second))
	}
	return d
}

func (f *faultConn) Read(b []byte) (int, error) {
	f.mu.Lock()
	if f.dead {
		f.mu.Unlock()
		return 0, &errInjected{what: "reset (connection severed)"}
	}
	if f.parted {
		if f.cfg.PartitionHeal {
			// Asymmetric partition: our writes are black-holed but the
			// peer's still reach us, so reads pass through.
			f.mu.Unlock()
			return f.Conn.Read(b)
		}
		end := f.partEnd
		f.mu.Unlock()
		// Stall like a silent link, then die. A read deadline set by the
		// caller still fires first if it is sooner — the Conn is closed
		// under us in that case and the Read returns its error.
		if wait := time.Until(end); wait > 0 {
			time.Sleep(wait)
		}
		f.mu.Lock()
		f.dead = true
		f.mu.Unlock()
		f.Conn.Close()
		return 0, &errInjected{what: "partition expiry"}
	}
	f.mu.Unlock()
	return f.Conn.Read(b)
}

// ParseSpec parses the CLI chaos spec: comma-separated key=value pairs.
//
//	seed=7,corrupt=0.01,drop=0.005,truncate=0.002,reset=0.002,
//	partition=0.001,partition-for=300ms,partition-heal=true,
//	latency=2ms,jitter=1ms,bandwidth=1048576,
//	disk.enospc=0.01,disk.short-write=0.005,disk.torn-write=0.005,
//	disk.sync-fail=0.01,disk.sync-delay=2ms,disk.read-corrupt=0.005,
//	disk.poison=0.02,pipe.corrupt=0.01,pipe.truncate=0.005,pipe.reset=0.005
//
// Unknown keys are rejected — all of them in one error, with the list of
// valid ones — so a typo cannot silently run a clean campaign that claims
// to be a chaos run, and a spec with three typos needs one round trip, not
// three. Duplicate keys are rejected too: a spec where "corrupt" appears
// twice has no single reading, and last-one-wins would hide the earlier
// value the operator thought was in force.
func ParseSpec(spec string) (Config, error) {
	var cfg Config
	if strings.TrimSpace(spec) == "" {
		return cfg, nil
	}
	seen := make(map[string]bool)
	var unknown []string
	for _, kv := range strings.Split(spec, ",") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return cfg, fmt.Errorf("chaos: %q is not key=value", kv)
		}
		if seen[key] {
			return cfg, fmt.Errorf("chaos: duplicate key %q", key)
		}
		seen[key] = true
		var err error
		switch key {
		case "seed":
			cfg.Seed, err = strconv.ParseInt(val, 10, 64)
		case "latency":
			cfg.Latency, err = parseDur(val)
		case "jitter":
			cfg.Jitter, err = parseDur(val)
		case "bandwidth":
			cfg.Bandwidth, err = strconv.Atoi(val)
		case "corrupt":
			cfg.Corrupt, err = parseProb(val)
		case "drop":
			cfg.Drop, err = parseProb(val)
		case "truncate":
			cfg.Truncate, err = parseProb(val)
		case "reset":
			cfg.Reset, err = parseProb(val)
		case "partition":
			cfg.Partition, err = parseProb(val)
		case "partition-for":
			cfg.PartitionFor, err = parseDur(val)
		case "partition-heal":
			cfg.PartitionHeal, err = strconv.ParseBool(val)
		case "disk.enospc":
			cfg.DiskENOSPC, err = parseProb(val)
		case "disk.short-write":
			cfg.DiskShortWrite, err = parseProb(val)
		case "disk.torn-write":
			cfg.DiskTornWrite, err = parseProb(val)
		case "disk.sync-fail":
			cfg.DiskSyncFail, err = parseProb(val)
		case "disk.sync-delay":
			cfg.DiskSyncDelay, err = parseDur(val)
		case "disk.read-corrupt":
			cfg.DiskReadCorrupt, err = parseProb(val)
		case "disk.poison":
			cfg.DiskPoison, err = parseProb(val)
		case "pipe.corrupt":
			cfg.PipeCorrupt, err = parseProb(val)
		case "pipe.truncate":
			cfg.PipeTruncate, err = parseProb(val)
		case "pipe.reset":
			cfg.PipeReset, err = parseProb(val)
		default:
			unknown = append(unknown, strconv.Quote(key))
			continue
		}
		if err != nil {
			return cfg, fmt.Errorf("chaos: %s: %w", key, err)
		}
	}
	if len(unknown) > 0 {
		noun := "key"
		if len(unknown) > 1 {
			noun = "keys"
		}
		return cfg, fmt.Errorf("chaos: unknown %s %s (valid: %s)",
			noun, strings.Join(unknown, ", "), strings.Join(specKeys(), ", "))
	}
	return cfg, nil
}

func parseProb(s string) (float64, error) {
	p, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, err
	}
	// Written so NaN, which fails every comparison, is rejected too.
	if !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("probability %v outside [0,1]", p)
	}
	return p, nil
}

// parseDur parses a duration that must not be negative: a negative jitter
// would become a huge unsigned modulus, and a negative latency or stall
// means nothing.
func parseDur(s string) (time.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %v", d)
	}
	return d, nil
}

func specKeys() []string {
	keys := []string{
		"seed", "latency", "jitter", "bandwidth", "corrupt", "drop",
		"truncate", "reset", "partition", "partition-for", "partition-heal",
		"disk.enospc", "disk.short-write", "disk.torn-write",
		"disk.sync-fail", "disk.sync-delay", "disk.read-corrupt",
		"disk.poison", "pipe.corrupt", "pipe.truncate", "pipe.reset",
	}
	sort.Strings(keys)
	return keys
}
