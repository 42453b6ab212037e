// Package cliutil holds the flag validation shared by the three CLIs
// (swifi, faultgen, progrun). Every rule here exists because the
// misconfiguration it rejects used to fail later and worse: a -resume
// without -journal silently started a fresh campaign, -workers 0 looked
// like a request for the serial path but actually selected GOMAXPROCS, and
// a zero -unit-timeout read as "quarantine instantly" when the user meant
// "no deadline".
package cliutil

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"repro/internal/chaos"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// ValidateWorkers rejects worker counts below 1. The flag defaults to
// runtime.GOMAXPROCS(0) in every CLI, so a sub-1 value is always an
// explicit -workers 0 or negative — historically interpreted as "pick for
// me", which is indistinguishable from a typo.
func ValidateWorkers(n int) error {
	if n < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d (omit the flag to use all CPUs)", n)
	}
	return nil
}

// ValidateUnitTimeout rejects an explicitly-set zero or negative duration
// for the named flag. The unset default (0) keeps meaning "no per-unit
// deadline" — only a user who typed the flag and gave it a non-positive
// value is told so, instead of getting a deadline that never (or always)
// fires.
func ValidateUnitTimeout(fs *flag.FlagSet, name string, v time.Duration) error {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	if set && v <= 0 {
		return fmt.Errorf("-%s must be positive, got %v (omit the flag to disable the per-unit deadline)", name, v)
	}
	return nil
}

// ValidateResume rejects -resume without -journal: there is no file to
// resume from, and silently running a fresh campaign would discard exactly
// the progress the user asked to keep.
func ValidateResume(resume bool, journalPath string) error {
	if resume && journalPath == "" {
		return fmt.Errorf("-resume requires -journal (there is no journal file to resume from)")
	}
	return nil
}

// HeartbeatFlags carries the liveness cadence shared by the worker
// supervisor and the campaign fabric. The defaults are the values that
// were hardcoded before the flags existed: 500ms beats, 10s of tolerated
// silence — right for pipes and loopback, too tight for WAN links.
type HeartbeatFlags struct {
	Interval time.Duration
	Timeout  time.Duration
}

// AddHeartbeatFlags registers -heartbeat-interval and -heartbeat-timeout.
func AddHeartbeatFlags(fs *flag.FlagSet) *HeartbeatFlags {
	h := &HeartbeatFlags{}
	fs.DurationVar(&h.Interval, "heartbeat-interval", 500*time.Millisecond,
		"worker/fabric heartbeat cadence (WAN fabrics want looser values)")
	fs.DurationVar(&h.Timeout, "heartbeat-timeout", 10*time.Second,
		"silence tolerated before a worker subprocess or fabric peer is declared dead")
	return h
}

// Validate rejects a non-positive interval and a timeout under twice the
// interval. The 2× floor is the minimum that tolerates losing one beat: with
// timeout < 2×interval, a single dropped or delayed heartbeat — routine under
// load, GC pauses, or chaos testing — declares a healthy peer dead and
// triggers redelivery for nothing.
func (h *HeartbeatFlags) Validate() error {
	if h.Interval <= 0 {
		return fmt.Errorf("-heartbeat-interval must be positive, got %v", h.Interval)
	}
	if h.Timeout < 2*h.Interval {
		return fmt.Errorf("-heartbeat-timeout (%v) must be at least twice -heartbeat-interval (%v): anything tighter turns one missed beat into a false host death", h.Timeout, h.Interval)
	}
	return nil
}

// FabricFlags carries swifi's distributed-campaign flags:
// -fabric-listen makes the process a coordinator, -fabric-join an executor,
// -fabric-hosts sets how many executors the coordinator waits for.
type FabricFlags struct {
	Listen string
	Join   string
	Hosts  int
	// DialTimeout caps an executor's initial connection establishment,
	// retries included; ReconnectWindow caps how long a lost connection may
	// spend re-establishing before the session is abandoned.
	DialTimeout     time.Duration
	ReconnectWindow time.Duration
	// SessionTimeout is the coordinator's detach grace: how long an
	// executor session survives a lost connection before its units are
	// redelivered. Zero derives 2× the heartbeat timeout.
	SessionTimeout time.Duration
	// Chaos is the -chaos fault spec ("seed=7,corrupt=0.01,drop=0.02,...");
	// empty disables injection. Parsed by ChaosConfig.
	Chaos string
}

// AddFabricFlags registers the fabric flags.
func AddFabricFlags(fs *flag.FlagSet) *FabricFlags {
	f := &FabricFlags{}
	fs.StringVar(&f.Listen, "fabric-listen", "",
		"coordinate a distributed campaign: listen on this TCP address and shard units over joined executors")
	fs.StringVar(&f.Join, "fabric-join", "",
		"join a distributed campaign as an executor: connect to this coordinator address")
	fs.IntVar(&f.Hosts, "fabric-hosts", 1,
		"executors the coordinator waits for before sharding (with -fabric-listen)")
	fs.DurationVar(&f.DialTimeout, "fabric-dial-timeout", 10*time.Second,
		"total time an executor spends establishing its first coordinator connection, retries included")
	fs.DurationVar(&f.ReconnectWindow, "fabric-reconnect-window", 60*time.Second,
		"total time an executor spends re-establishing a lost coordinator connection before abandoning the session")
	fs.DurationVar(&f.SessionTimeout, "fabric-session-timeout", 0,
		"coordinator grace for a detached executor session before its units are redelivered (0 = 2x heartbeat-timeout)")
	fs.StringVar(&f.Chaos, "chaos", "",
		"inject deterministic network faults on fabric links, e.g. seed=7,corrupt=0.01,drop=0.02,reset=0.005 (testing only)")
	return f
}

// Validate rejects contradictory fabric flags: one process is either the
// coordinator or an executor, the host floor only means something on the
// coordinator, the resilience windows must be positive, and a -chaos spec
// must parse.
func (f *FabricFlags) Validate() error {
	if f.Listen != "" && f.Join != "" {
		return fmt.Errorf("-fabric-listen and -fabric-join are mutually exclusive (coordinator or executor, not both)")
	}
	if f.Hosts < 1 {
		return fmt.Errorf("-fabric-hosts must be at least 1, got %d", f.Hosts)
	}
	if f.DialTimeout <= 0 {
		return fmt.Errorf("-fabric-dial-timeout must be positive, got %v", f.DialTimeout)
	}
	if f.ReconnectWindow <= 0 {
		return fmt.Errorf("-fabric-reconnect-window must be positive, got %v", f.ReconnectWindow)
	}
	if f.SessionTimeout < 0 {
		return fmt.Errorf("-fabric-session-timeout must not be negative, got %v (0 derives it from -heartbeat-timeout)", f.SessionTimeout)
	}
	if _, err := f.ChaosConfig(); err != nil {
		return err
	}
	return nil
}

// ChaosConfig parses the -chaos spec into a chaos configuration; an empty
// spec returns nil (no injection).
func (f *FabricFlags) ChaosConfig() (*chaos.Config, error) {
	if f.Chaos == "" {
		return nil, nil
	}
	cfg, err := chaos.ParseSpec(f.Chaos)
	if err != nil {
		return nil, fmt.Errorf("-chaos: %w", err)
	}
	return &cfg, nil
}

// ChaosWrap builds the connection wrapper for the -chaos spec, registering
// the injector's counters on reg (nil reg: injection without metrics). An
// empty spec returns a nil wrapper — the fabric's "no wrapping" value.
func (f *FabricFlags) ChaosWrap(reg *telemetry.Registry) (func(net.Conn) net.Conn, error) {
	cfg, err := f.ChaosConfig()
	if err != nil || cfg == nil {
		return nil, err
	}
	return chaos.New(*cfg, chaos.NewMetrics(reg)).Wrap, nil
}

// StorageChaos builds the storage/IPC-plane injector for the -chaos spec:
// the disk.* keys fault the journal and sidecar handles (JournalWrap), the
// pipe.* keys fault proc-isolation worker pipes (PipeWrap), disk.poison
// corrupts golden checkpoints. A spec with none of those returns nil —
// network-only chaos keeps the storage stack entirely unwrapped.
func (f *FabricFlags) StorageChaos(reg *telemetry.Registry) (*chaos.Chaos, error) {
	cfg, err := f.ChaosConfig()
	if err != nil || cfg == nil {
		return nil, err
	}
	if !cfg.DiskEnabled() && !cfg.PipeEnabled() && cfg.DiskPoison <= 0 {
		return nil, nil
	}
	return chaos.New(*cfg, chaos.NewMetrics(reg)), nil
}

// JournalWrap adapts a storage-chaos injector into the journal package's
// File substitution hook (journal.CreateWrapped / OpenWrapped); nil unless
// disk faults are configured, so clean runs take the unwrapped *os.File
// path.
func JournalWrap(c *chaos.Chaos) journal.Wrap {
	if cc := c.Config(); !cc.DiskEnabled() {
		return nil
	}
	return func(f *os.File) journal.File { return c.WrapFile(f) }
}

// PipeWrap adapts a storage-chaos injector into the worker supervisor's
// pipe interposition hook (campaign.ProcOptions.WrapPipes); nil unless pipe
// faults are configured.
func PipeWrap(c *chaos.Chaos) func(io.WriteCloser, io.Reader) (io.WriteCloser, io.Reader) {
	if cc := c.Config(); !cc.PipeEnabled() {
		return nil
	}
	return c.WrapPipes
}

// ParseIsolation parses swifi's -isolation flag, reporting
// whether process isolation (supervised worker subprocesses) was requested.
func ParseIsolation(s string) (proc bool, err error) {
	switch s {
	case "inproc":
		return false, nil
	case "proc":
		return true, nil
	default:
		return false, fmt.Errorf("-isolation must be inproc or proc, got %q", s)
	}
}
