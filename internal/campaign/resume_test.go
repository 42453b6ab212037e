package campaign_test

import (
	"path/filepath"
	"testing"

	"repro/internal/campaign"
	"repro/internal/journal"
)

// TestJournalRejectsForeignPlan: a journal written by one campaign plan must
// refuse to resume a different plan (here: a different seed).
func TestJournalRejectsForeignPlan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	j, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := campaign.ResumeConfig()
	cfg.Journal = j
	if _, err := campaign.Run(cfg); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	other := campaign.ResumeConfig()
	other.Seed = 12
	other.Journal = j2
	if _, err := campaign.Run(other); err == nil {
		t.Fatal("a journal from seed 11 resumed a seed-12 campaign")
	}
}
