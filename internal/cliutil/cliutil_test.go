package cliutil

import (
	"flag"
	"io"
	"strings"
	"testing"
	"time"
)

func TestValidateWorkers(t *testing.T) {
	for _, n := range []int{1, 2, 64} {
		if err := ValidateWorkers(n); err != nil {
			t.Errorf("ValidateWorkers(%d) = %v, want nil", n, err)
		}
	}
	for _, n := range []int{0, -1, -8} {
		if err := ValidateWorkers(n); err == nil {
			t.Errorf("ValidateWorkers(%d) accepted", n)
		} else if !strings.Contains(err.Error(), "-workers") {
			t.Errorf("ValidateWorkers(%d) error %q does not name the flag", n, err)
		}
	}
}

func TestValidateUnitTimeout(t *testing.T) {
	parse := func(args ...string) (*flag.FlagSet, time.Duration) {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		d := fs.Duration("unit-timeout", 0, "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		return fs, *d
	}

	// Unset: 0 means "no deadline" and must pass.
	fs, d := parse()
	if err := ValidateUnitTimeout(fs, "unit-timeout", d); err != nil {
		t.Errorf("unset default rejected: %v", err)
	}
	// Explicit positive: fine.
	fs, d = parse("-unit-timeout", "30s")
	if err := ValidateUnitTimeout(fs, "unit-timeout", d); err != nil {
		t.Errorf("explicit 30s rejected: %v", err)
	}
	// Explicit zero and negative: rejected with the flag named.
	for _, v := range []string{"0", "-5s"} {
		fs, d = parse("-unit-timeout", v)
		if err := ValidateUnitTimeout(fs, "unit-timeout", d); err == nil {
			t.Errorf("explicit %s accepted", v)
		} else if !strings.Contains(err.Error(), "unit-timeout") {
			t.Errorf("error %q does not name the flag", err)
		}
	}
}

func TestValidateResume(t *testing.T) {
	if err := ValidateResume(false, ""); err != nil {
		t.Errorf("no resume, no journal: %v", err)
	}
	if err := ValidateResume(true, "run.wal"); err != nil {
		t.Errorf("resume with journal: %v", err)
	}
	if err := ValidateResume(false, "run.wal"); err != nil {
		t.Errorf("fresh journal without resume: %v", err)
	}
	err := ValidateResume(true, "")
	if err == nil {
		t.Fatal("resume without journal accepted")
	}
	if !strings.Contains(err.Error(), "-journal") {
		t.Errorf("error %q does not name the missing flag", err)
	}
}

func TestHeartbeatValidate(t *testing.T) {
	ok := []HeartbeatFlags{
		{Interval: 500 * time.Millisecond, Timeout: 10 * time.Second},
		{Interval: 5 * time.Second, Timeout: 10 * time.Second}, // exactly 2x: one missed beat tolerated
		{Interval: time.Millisecond, Timeout: 2 * time.Millisecond},
	}
	for _, h := range ok {
		if err := h.Validate(); err != nil {
			t.Errorf("Validate(%v/%v) = %v, want nil", h.Interval, h.Timeout, err)
		}
	}
	bad := []HeartbeatFlags{
		{Interval: 0, Timeout: 10 * time.Second},
		{Interval: -time.Second, Timeout: 10 * time.Second},
		{Interval: time.Second, Timeout: time.Second},                        // equal: every beat is a race
		{Interval: 500 * time.Millisecond, Timeout: 999 * time.Millisecond},  // under 2x: one missed beat kills
		{Interval: 10 * time.Second, Timeout: 500 * time.Millisecond},        // inverted
		{Interval: 600 * time.Millisecond, Timeout: 1100 * time.Millisecond}, // > timeout/2
	}
	for _, h := range bad {
		if err := h.Validate(); err == nil {
			t.Errorf("Validate(%v/%v) accepted", h.Interval, h.Timeout)
		}
	}
}

func TestFabricValidate(t *testing.T) {
	base := func() FabricFlags {
		return FabricFlags{Hosts: 1, DialTimeout: 10 * time.Second, ReconnectWindow: time.Minute}
	}
	if f := base(); f.Validate() != nil {
		t.Errorf("defaults rejected: %v", f.Validate())
	}
	f := base()
	f.Listen, f.Join = ":9370", "host:9370"
	if f.Validate() == nil {
		t.Error("listen+join accepted")
	}
	f = base()
	f.Hosts = 0
	if f.Validate() == nil {
		t.Error("hosts=0 accepted")
	}
	f = base()
	f.DialTimeout = 0
	if f.Validate() == nil {
		t.Error("dial-timeout=0 accepted")
	}
	f = base()
	f.ReconnectWindow = -time.Second
	if f.Validate() == nil {
		t.Error("negative reconnect window accepted")
	}
	f = base()
	f.SessionTimeout = -time.Second
	if f.Validate() == nil {
		t.Error("negative session timeout accepted")
	}
	f = base()
	f.Chaos = "corrupt=2.5"
	if f.Validate() == nil {
		t.Error("out-of-range chaos probability accepted")
	}
	f = base()
	f.Chaos = "seed=7,corrupt=0.01,drop=0.02"
	if err := f.Validate(); err != nil {
		t.Errorf("valid chaos spec rejected: %v", err)
	}
	cfg, err := f.ChaosConfig()
	if err != nil || cfg == nil || cfg.Seed != 7 || cfg.Corrupt != 0.01 || cfg.Drop != 0.02 {
		t.Errorf("ChaosConfig() = %+v, %v", cfg, err)
	}
	f = base()
	if cfg, err := f.ChaosConfig(); err != nil || cfg != nil {
		t.Errorf("empty spec ChaosConfig() = %+v, %v, want nil, nil", cfg, err)
	}
}

func TestParseIsolation(t *testing.T) {
	if proc, err := ParseIsolation("inproc"); err != nil || proc {
		t.Errorf("inproc -> (%v, %v)", proc, err)
	}
	if proc, err := ParseIsolation("proc"); err != nil || !proc {
		t.Errorf("proc -> (%v, %v)", proc, err)
	}
	for _, s := range []string{"", "process", "PROC", "subprocess"} {
		if _, err := ParseIsolation(s); err == nil {
			t.Errorf("ParseIsolation(%q) accepted", s)
		}
	}
}
