package campaign

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/chaos"
	"repro/internal/journal"
)

// TestStorageChaosJournalFullDisk: a journal on a disk that refuses every
// write (ENOSPC from the first byte) must cost the campaign nothing but
// the journal itself.
func TestStorageChaosJournalFullDisk(t *testing.T) {
	ref, err := Run(ResumeConfig())
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
	cfg := ResumeConfig()
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
