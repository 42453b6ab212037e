package journal_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/chaos"
	"repro/internal/journal"
)

// flaky is a journal.File whose write and sync paths fail while the test's
// switches are on. The failures model ENOSPC-style refusals: nothing is
// written, but truncation still works (freeing space needs no space).
type flaky struct {
	journal.File
	fail     *bool
	failSync *bool
}

func (f *flaky) Write(b []byte) (int, error) {
	if *f.fail {
		return 0, errors.New("injected write failure (disk full)")
	}
	return f.File.Write(b)
}

func (f *flaky) WriteAt(b []byte, off int64) (int, error) {
	if *f.fail {
		return 0, errors.New("injected write failure (disk full)")
	}
	return f.File.WriteAt(b, off)
}

func (f *flaky) Sync() error {
	if *f.failSync {
		return errors.New("injected sync failure")
	}
	return f.File.Sync()
}

func flakyWrap(fail, failSync *bool) journal.Wrap {
	return func(raw *os.File) journal.File {
		return &flaky{File: raw, fail: fail, failSync: failSync}
	}
}

var degradeOutcomes = map[int]journal.Outcome{
	0: {Mode: 1, Activated: true},
	3: {Mode: 2},
	5: {Mode: 4, Degraded: true},
	9: {Mode: 3, Retried: true},
}

// referenceBytes builds an undisturbed, canonicalized journal over the same
// plan and outcomes — the byte-identity target every recovery path must hit.
func referenceBytes(t *testing.T, fp uint64) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "reference.wal")
	j, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Bind(fp); err != nil {
		t.Fatal(err)
	}
	for u, o := range degradeOutcomes {
		if err := j.Append(u, o); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAppendFailureDegradesAndStaysResumable: the first failed append flips
// the journal into in-memory mode without surfacing an error, the persisted
// prefix survives truncated to whole records, and a later Open resumes from
// exactly that prefix.
func TestAppendFailureDegradesAndStaysResumable(t *testing.T) {
	path := tempPath(t)
	var fail, failSync bool
	j, err := journal.CreateWrapped(path, flakyWrap(&fail, &failSync))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Bind(0xabad1dea); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(0, degradeOutcomes[0]); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(3, degradeOutcomes[3]); err != nil {
		t.Fatal(err)
	}

	fail = true
	if err := j.Append(5, degradeOutcomes[5]); err != nil {
		t.Fatalf("append under disk failure surfaced %v; the journal must degrade, not fail the campaign", err)
	}
	if !j.Degraded() {
		t.Fatal("write failure did not flip the journal into degraded mode")
	}
	if err := j.Append(9, degradeOutcomes[9]); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 4 {
		t.Fatalf("degraded journal tracks %d outcomes in memory, want 4", j.Len())
	}
	if o, ok := j.Done(5); !ok || o != degradeOutcomes[5] {
		t.Fatalf("the outcome that hit the failure is not on record: (%+v, %v)", o, ok)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The disk holds exactly the two records that persisted before the
	// failure — a resumable prefix, not a torn mess.
	re, err := journal.Open(path)
	if err != nil {
		t.Fatalf("reopening the degraded journal's file: %v", err)
	}
	defer re.Close()
	if err := re.Bind(0xabad1dea); err != nil {
		t.Fatal(err)
	}
	if re.Len() != 2 {
		t.Fatalf("resumed journal replays %d outcomes, want the 2 persisted before the failure", re.Len())
	}
	for _, u := range []int{0, 3} {
		if o, ok := re.Done(u); !ok || o != degradeOutcomes[u] {
			t.Fatalf("persisted unit %d replays as (%+v, %v)", u, o, ok)
		}
	}
}

// TestCanonicalizeRecoversTransientFailure: completion-time recovery. Disk
// pressure that lifted before the campaign finished leaves a journal
// byte-identical to an undisturbed run's.
func TestCanonicalizeRecoversTransientFailure(t *testing.T) {
	const fp = 0xabad1dea
	path := tempPath(t)
	var fail, failSync bool
	j, err := journal.CreateWrapped(path, flakyWrap(&fail, &failSync))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Bind(fp); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(0, degradeOutcomes[0]); err != nil {
		t.Fatal(err)
	}
	fail = true
	for _, u := range []int{3, 5, 9} {
		if err := j.Append(u, degradeOutcomes[u]); err != nil {
			t.Fatal(err)
		}
	}
	if !j.Degraded() {
		t.Fatal("journal not degraded")
	}

	fail = false // the pressure lifts before completion
	if err := j.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if j.Degraded() {
		t.Fatal("Canonicalize on a writable disk did not clear degraded mode")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceBytes(t, fp); !bytes.Equal(got, want) {
		t.Fatalf("recovered journal differs from an undisturbed run's:\ngot  %d bytes %x\nwant %d bytes %x", len(got), got, len(want), want)
	}
}

// TestCanonicalizePersistentFailureStaysDegraded: if the disk never
// recovers, the recovery attempt must not wedge or corrupt — the journal
// stays degraded and the persisted prefix stays intact.
func TestCanonicalizePersistentFailureStaysDegraded(t *testing.T) {
	path := tempPath(t)
	var fail, failSync bool
	j, err := journal.CreateWrapped(path, flakyWrap(&fail, &failSync))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Bind(7); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(0, degradeOutcomes[0]); err != nil {
		t.Fatal(err)
	}
	fail = true
	if err := j.Append(3, degradeOutcomes[3]); err != nil {
		t.Fatal(err)
	}
	if err := j.Canonicalize(); err != nil {
		t.Fatalf("recovery attempt on a dead disk surfaced %v", err)
	}
	if !j.Degraded() {
		t.Fatal("Canonicalize claimed recovery on a disk that still fails writes")
	}
	j.Close()
	re, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("persisted prefix replays %d outcomes, want 1", re.Len())
	}
}

// TestBindHeaderFailureDegrades: a header that cannot be written runs the
// campaign journal-less instead of refusing to run it, and completion-time
// recovery can still produce a full journal.
func TestBindHeaderFailureDegrades(t *testing.T) {
	const fp = 0xabad1dea
	path := tempPath(t)
	var fail, failSync bool
	fail = true
	j, err := journal.CreateWrapped(path, flakyWrap(&fail, &failSync))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Bind(fp); err != nil {
		t.Fatalf("Bind surfaced the header write failure: %v", err)
	}
	if !j.Degraded() {
		t.Fatal("failed header write did not degrade the journal")
	}
	for u, o := range degradeOutcomes {
		if err := j.Append(u, o); err != nil {
			t.Fatal(err)
		}
	}
	fail = false
	if err := j.Canonicalize(); err != nil {
		t.Fatal(err)
	}
	if j.Degraded() {
		t.Fatal("recovery did not clear degraded mode")
	}
	j.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := referenceBytes(t, fp); !bytes.Equal(got, want) {
		t.Fatal("header-failure recovery did not reproduce the undisturbed journal")
	}
}

// TestSyncFailureDegrades: fsync reporting failure means nothing later can
// be trusted to persist — degrade, don't guess.
func TestSyncFailureDegrades(t *testing.T) {
	path := tempPath(t)
	var fail, failSync bool
	j, err := journal.CreateWrapped(path, flakyWrap(&fail, &failSync))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Bind(1); err != nil {
		t.Fatal(err)
	}
	failSync = true
	if err := j.Sync(); err != nil {
		t.Fatalf("Sync surfaced %v; a sync failure degrades silently", err)
	}
	if !j.Degraded() {
		t.Fatal("sync failure did not degrade the journal")
	}
	j.Close()
}

// TestJournalUnderChaosENOSPC wires the real chaos wrapper through the
// journal's Wrap hook — the integration the CLIs ship — and proves the
// degradation contract holds against its injected disk-full failures.
func TestJournalUnderChaosENOSPC(t *testing.T) {
	path := tempPath(t)
	c := chaos.New(chaos.Config{Seed: 4, DiskENOSPC: 1.0}, nil)
	j, err := journal.CreateWrapped(path, func(f *os.File) journal.File { return c.WrapFile(f) })
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Bind(2); err != nil {
		t.Fatal(err)
	}
	if !j.Degraded() {
		t.Fatal("chaos ENOSPC at probability 1 did not degrade the journal at Bind")
	}
	if err := j.Append(0, degradeOutcomes[0]); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 {
		t.Fatal("degraded journal lost the in-memory outcome")
	}
	j.Close()
}
