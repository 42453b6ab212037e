package chaos

import (
	"testing"
	"time"
)

// FuzzParseSpec feeds arbitrary text to the -chaos spec parser. It must never
// panic, and every spec it accepts must describe a schedule the fault
// wrappers can run: probabilities in [0, 1] (NaN included in the rejects)
// and no negative durations.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"",
		"seed=7,corrupt=0.01,drop=0.005,truncate=0.002,reset=0.002",
		"partition=0.001,partition-for=300ms,partition-heal=true,latency=2ms,jitter=1ms,bandwidth=1048576",
		"seed=6,disk.enospc=0.08,disk.short-write=0.04,disk.torn-write=0.04,disk.sync-fail=0.5,disk.read-corrupt=0.01",
		"disk.sync-delay=2ms,disk.poison=0.02,pipe.corrupt=0.012,pipe.truncate=0.003,pipe.reset=0.003",
		"corrupt=NaN",
		"latency=-5ms",
		"jitter=-1ns,corrupt=1e-300",
		"corrupt=0.1,corrupt=0.2",
		"pipe.corupt=0.1,disc.enospc=0.2",
		" , ,seed=-9223372036854775808, ",
		"drop=+Inf",
		"=,==,a=b=c",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		for name, p := range map[string]float64{
			"corrupt": cfg.Corrupt, "drop": cfg.Drop, "truncate": cfg.Truncate,
			"reset": cfg.Reset, "partition": cfg.Partition,
			"disk.enospc": cfg.DiskENOSPC, "disk.short-write": cfg.DiskShortWrite,
			"disk.torn-write": cfg.DiskTornWrite, "disk.sync-fail": cfg.DiskSyncFail,
			"disk.read-corrupt": cfg.DiskReadCorrupt, "disk.poison": cfg.DiskPoison,
			"pipe.corrupt": cfg.PipeCorrupt, "pipe.truncate": cfg.PipeTruncate,
			"pipe.reset": cfg.PipeReset,
		} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("ParseSpec(%q) accepted %s=%v, outside [0,1]", spec, name, p)
			}
		}
		for name, d := range map[string]time.Duration{
			"latency": cfg.Latency, "jitter": cfg.Jitter,
			"partition-for": cfg.PartitionFor, "disk.sync-delay": cfg.DiskSyncDelay,
		} {
			if d < 0 {
				t.Fatalf("ParseSpec(%q) accepted negative %s=%v", spec, name, d)
			}
		}
	})
}
