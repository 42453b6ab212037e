package campaign

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/golden"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// The storage-chaos tests drive campaigns through the chaos package's
// disk, checkpoint-poison and pipe planes and hold them to the tentpole
// contract: injected storage failure may cost time (degraded journals,
// re-executed prefixes, restarted workers) but never changes a single
// aggregate, and a journal that survives to completion is byte-identical
// to a clean run's.

// storageBase mirrors the resume tests' scaled-down campaign; it lives
// here too because those helpers sit in the external test package.
func storageBase() Config {
	return Config{
		Programs:      []string{"JB.team11"},
		CasesPerFault: 4,
		Seed:          11,
	}
}

func storageChaosCleanup(t *testing.T) {
	t.Helper()
	golden.Shared.Purge()
	t.Cleanup(func() {
		golden.Shared.SetPoison(nil)
		golden.Shared.Purge()
	})
}

// TestStorageChaosPoisonedCheckpoints: with every golden checkpoint built
// poisoned, fast-forward is never trusted — each affected unit falls back
// to straight execution and the campaign result is bit-identical.
func TestStorageChaosPoisonedCheckpoints(t *testing.T) {
	storageChaosCleanup(t)
	ref, err := Run(isolationConfig())
	if err != nil {
		t.Fatal(err)
	}
	golden.Shared.Purge() // the chaos run must build (and poison) its own

	reg := telemetry.NewRegistry()
	cfg := isolationConfig()
	cfg.StorageChaos = chaos.New(chaos.Config{Seed: 5, DiskPoison: 1.0}, chaos.NewMetrics(reg))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec.Degraded == 0 {
		t.Fatal("universally poisoned checkpoints degraded nothing; the poison hook is not armed")
	}
	if !sameEntries(res, ref) {
		t.Error("poisoned checkpoints changed the campaign outcome")
	}
	if got := reg.Counters()["chaos_disk_checkpoints_poisoned_total"]; got == 0 {
		t.Error("chaos_disk_checkpoints_poisoned_total not incremented")
	}

	// The poison hook must not leak into the next campaign: a clean run
	// over the same shared store sees no degradation.
	golden.Shared.Purge()
	clean, err := Run(isolationConfig())
	if err != nil {
		t.Fatal(err)
	}
	if clean.Exec.Degraded != 0 {
		t.Fatalf("clean run after a poison campaign degraded %d units; the hook leaked", clean.Exec.Degraded)
	}
}

// TestStorageChaosPipeFaults: proc-isolation pipes under corruption,
// truncation and resets. Poisoned frames must sever the worker (CRC
// rejection or worker death), the supervisor must restart and redeliver,
// and the aggregates must come out bit-identical with nothing quarantined.
func TestStorageChaosPipeFaults(t *testing.T) {
	ref, err := Run(isolationConfig())
	if err != nil {
		t.Fatal(err)
	}
	tel := &telemetry.Telemetry{Reg: telemetry.NewRegistry()}
	inj := chaos.New(chaos.Config{
		Seed:         21,
		PipeCorrupt:  0.15,
		PipeTruncate: 0.01,
		PipeReset:    0.01,
	}, chaos.NewMetrics(tel.Reg))
	cfg := procConfig()
	cfg.Telemetry = tel
	cfg.StorageChaos = inj
	cfg.Proc.HeartbeatTimeout = 5 * time.Second
	// Chaos at these rates mangles many deliveries; give the supervisor the
	// headroom a chaos run deserves so no unit is quarantined for bad luck.
	cfg.Proc.MaxDeliveries = 10
	cfg.Proc.MaxRestarts = 10000
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("campaign died under pipe chaos: %v", err)
	}
	c := tel.Reg.Counters()
	if c["chaos_corrupted_writes_total"]+c["chaos_truncated_writes_total"]+c["chaos_resets_total"] == 0 {
		t.Fatal("chaos injected nothing; the test proved nothing")
	}
	if res.Exec.HostFaults != 0 {
		t.Errorf("%d units quarantined under pipe chaos; deliveries should have been retried", res.Exec.HostFaults)
	}
	if !sameEntries(res, ref) {
		t.Error("pipe chaos changed the campaign outcome")
	}
	t.Logf("pipe chaos absorbed: corrupted=%d truncated=%d resets=%d frames_rejected=%d restarts=%d redeliveries=%d",
		c["chaos_corrupted_writes_total"], c["chaos_truncated_writes_total"], c["chaos_resets_total"],
		c["worker_frames_rejected_total"], c["worker_restarts_total"], c["worker_redeliveries_total"])
}

// TestStorageChaosJournalFullDisk: a journal on a disk that refuses every
// write (ENOSPC from the first byte) must cost the campaign nothing but
// the journal itself.
func TestStorageChaosJournalFullDisk(t *testing.T) {
	ref, err := Run(storageBase())
	if err != nil {
		t.Fatal(err)
	}
	inj := chaos.New(chaos.Config{Seed: 3, DiskENOSPC: 1.0}, nil)
	path := filepath.Join(t.TempDir(), "full-disk.wal")
	j, err := journal.CreateWrapped(path, func(f *os.File) journal.File { return inj.WrapFile(f) })
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	cfg := storageBase()
	cfg.Journal = j
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("campaign died on a full disk: %v", err)
	}
	if !j.Degraded() {
		t.Fatal("journal on a disk-full device is not degraded")
	}
	if j.Len() != ref.Runs {
		t.Errorf("degraded journal tracks %d outcomes in memory, want all %d", j.Len(), ref.Runs)
	}
	if !reflect.DeepEqual(res, ref) {
		t.Errorf("a full disk changed the campaign outcome:\nchaos: %+v\nclean: %+v", res, ref)
	}
}

// TestStorageChaosResumeByteIdenticalJournal is the acceptance property: a
// journaled campaign under disk chaos, killed mid-run and resumed under
// the same chaos, finishes with a Result AND a journal file byte-identical
// to an undisturbed clean run's. Workers=1 keeps the write sequence (and
// so the seeded fault schedule) fully deterministic.
//
// Checkpoint poison is deliberately absent: poisoning flips real outcomes'
// Degraded provenance bit, which the journal truthfully records, so a
// poisoned run's journal must NOT be byte-identical to a clean one —
// that plane is covered by TestStorageChaosPoisonedCheckpoints.
func TestStorageChaosResumeByteIdenticalJournal(t *testing.T) {
	storageChaosCleanup(t)
	diskCfg := chaos.Config{
		Seed:           6,
		DiskENOSPC:     0.05,
		DiskShortWrite: 0.05,
		DiskTornWrite:  0.05,
		DiskSyncFail:   0.02,
	}
	wrap := func(c *chaos.Chaos) journal.Wrap {
		return func(f *os.File) journal.File { return c.WrapFile(f) }
	}

	// Clean reference: journaled, uninterrupted, no chaos.
	refPath := filepath.Join(t.TempDir(), "clean.wal")
	refJ, err := journal.Create(refPath)
	if err != nil {
		t.Fatal(err)
	}
	refCfg := storageBase()
	refCfg.Workers = 1
	refCfg.Journal = refJ
	ref, err := Run(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := refJ.Close(); err != nil {
		t.Fatal(err)
	}
	refBytes, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}

	// Chaos run: same plan, disk faults on the journal, killed after 5
	// units.
	golden.Shared.Purge()
	path := filepath.Join(t.TempDir(), "chaos.wal")
	j, err := journal.CreateWrapped(path, wrap(chaos.New(diskCfg, nil)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.OnAppend = func(done int) {
		if done >= 5 {
			cancel()
		}
	}
	cfg := storageBase()
	cfg.Workers = 1
	cfg.Ctx = ctx
	cfg.Journal = j
	_, err = Run(cfg)
	var ie *InterruptedError
	if !errors.As(err, &ie) {
		j.Close()
		t.Fatalf("want an interrupt partway through, got %v", err)
	}
	if ie.Done >= ie.Total {
		t.Fatalf("interrupt landed after completion (%d/%d)", ie.Done, ie.Total)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Resume under the same chaos config (a fresh injector, as a fresh
	// process would build) and run to completion.
	j2, err := journal.OpenWrapped(path, wrap(chaos.New(diskCfg, nil)))
	if err != nil {
		t.Fatalf("resuming the chaos journal: %v", err)
	}
	cfg2 := storageBase()
	cfg2.Workers = 1
	cfg2.Journal = j2
	res, err := Run(cfg2)
	if err != nil {
		t.Fatalf("resume under chaos failed: %v", err)
	}
	if j2.Degraded() {
		t.Fatal("journal still degraded after completion-time recovery; pick a chaos seed whose canonicalize succeeds")
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}

	norm := *res
	norm.Exec.Replayed = 0
	if !reflect.DeepEqual(&norm, ref) {
		t.Errorf("chaos resume changed the campaign outcome:\nchaos: %+v\nclean: %+v", res, ref)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, refBytes) {
		t.Errorf("journal after chaos + kill + resume differs from the clean run's:\ngot  %d bytes\nwant %d bytes", len(got), len(refBytes))
	}
}
