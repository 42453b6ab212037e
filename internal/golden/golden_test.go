package golden

import (
	"sync"
	"testing"

	"repro/internal/programs"
	"repro/internal/vm"
	"repro/internal/workload"
)

func compiled(t *testing.T, name string) (*programs.Program, *workloadPair) {
	t.Helper()
	p, ok := programs.ByName(name)
	if !ok {
		t.Fatalf("%s missing from the suite", name)
	}
	cases, err := workload.Cached(p.Kind, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	return p, &workloadPair{cs: &cases[0]}
}

type workloadPair struct{ cs *workload.Case }

func TestWatchSetCanonicalisation(t *testing.T) {
	a := NewWatchSet([]uint32{0x1010, 0x1004, 0x1010, 0x1004})
	b := NewWatchSet([]uint32{0x1004, 0x1010})
	if len(a.Addrs()) != 2 {
		t.Fatalf("dedup failed: %v", a.Addrs())
	}
	if a.key != b.key {
		t.Fatal("order/duplication changed the watch-set fingerprint")
	}
	c := NewWatchSet([]uint32{0x1004, 0x1014})
	if a.key == c.key {
		t.Fatal("distinct address sets share a fingerprint")
	}
}

func TestRecordFactsMatchPlainRun(t *testing.T) {
	p, wp := compiled(t, "JB.team6")
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// Reference: an unwatched run.
	m := vm.New(vm.Config{})
	if err := m.Load(c.Prog.Image); err != nil {
		t.Fatal(err)
	}
	m.SetInput(wp.cs.Input.Ints)
	m.SetByteInput(wp.cs.Input.Bytes)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}

	entry := c.Prog.Image.Entry
	ws := NewWatchSet([]uint32{entry})
	st := NewStore()
	rec, err := st.Run(c, wp.cs, vm.DefaultMaxCycles, nil, ws)
	if err != nil {
		t.Fatal(err)
	}
	if rec.State != m.State() || rec.Cycles != m.Cycles() || rec.Output != string(m.Output()) ||
		rec.ExitStatus != m.ExitStatus() {
		t.Fatalf("record facts diverge from the plain run: %+v", rec)
	}
	if rec.Count[entry] == 0 {
		t.Fatal("entry address never counted")
	}
	if f, ok := rec.First[entry]; !ok || f != 0 {
		t.Fatalf("entry first-arrival = %d, want 0", f)
	}
	if len(rec.Checkpoints) == 0 {
		t.Fatal("no checkpoint at the watched address")
	}
	// Resuming the first-arrival checkpoint must finish like the plain run.
	cp := rec.Nearest(rec.First[entry])
	if cp == nil || cp.Cycles != 0 {
		t.Fatalf("nearest checkpoint to cycle 0: %+v", cp)
	}
	r := vm.New(vm.Config{})
	if err := r.Load(c.Prog.Image); err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(cp.Snap); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Cycles() != rec.Cycles || string(r.Output()) != rec.Output {
		t.Fatal("resumed checkpoint does not reproduce the golden run")
	}
}

func TestRestorePoint(t *testing.T) {
	rec := &Record{
		First: map[uint32]uint64{0x1000: 40, 0x2000: 10},
		Count: map[uint32]uint64{0x1000: 3, 0x2000: 1},
	}
	// Both addresses execute: safe is the earlier first arrival.
	applying, safe := rec.RestorePoint([]uint32{0x1000, 0x2000}, 0)
	if !applying || safe != 10 {
		t.Fatalf("applying=%v safe=%d, want true/10", applying, safe)
	}
	// Skip past 0x2000's single execution: 0x1000 still applies.
	applying, safe = rec.RestorePoint([]uint32{0x1000, 0x2000}, 1)
	if !applying || safe != 10 {
		t.Fatalf("skip=1: applying=%v safe=%d, want true/10", applying, safe)
	}
	// Skip past every execution: dormant.
	if applying, _ = rec.RestorePoint([]uint32{0x1000, 0x2000}, 3); applying {
		t.Fatal("skip=3 should be dormant")
	}
	// An address that never executed is dormant and contributes no bound.
	applying, safe = rec.RestorePoint([]uint32{0x3000}, 0)
	if applying || safe != ^uint64(0) {
		t.Fatalf("unexecuted addr: applying=%v safe=%d", applying, safe)
	}
}

func TestNearest(t *testing.T) {
	rec := &Record{Checkpoints: []Checkpoint{
		{Cycles: 10}, {Cycles: 50}, {Cycles: 90},
	}}
	if cp := rec.Nearest(5); cp != nil {
		t.Fatalf("cycle 5 has no preceding checkpoint, got %+v", cp)
	}
	if cp := rec.Nearest(50); cp == nil || cp.Cycles != 50 {
		t.Fatalf("cycle 50 should hit the exact checkpoint, got %+v", cp)
	}
	if cp := rec.Nearest(89); cp == nil || cp.Cycles != 50 {
		t.Fatalf("cycle 89 should round down to 50, got %+v", cp)
	}
	if cp := rec.Nearest(1000); cp == nil || cp.Cycles != 90 {
		t.Fatalf("cycle 1000 should take the last checkpoint, got %+v", cp)
	}
}

// TestStoreSingleFlight hammers one key from many goroutines and requires
// exactly one recording (the record pointer is shared) and identical facts.
func TestStoreSingleFlight(t *testing.T) {
	p, wp := compiled(t, "SOR")
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWatchSet([]uint32{c.Prog.Image.Entry})
	st := NewStore()
	const n = 16
	recs := make([]*Record, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, err := st.Run(c, wp.cs, vm.DefaultMaxCycles, nil, ws)
			if err != nil {
				t.Error(err)
				return
			}
			recs[i] = rec
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if recs[i] != recs[0] {
			t.Fatal("concurrent callers received distinct records for one key")
		}
	}
	records, _, _ := st.Stats()
	if records != 1 {
		t.Fatalf("store holds %d records, want 1", records)
	}
	st.Purge()
	if records, _, _ = st.Stats(); records != 0 {
		t.Fatal("purge left records behind")
	}
}

// TestStoreKeysByWatchSet ensures records built for one campaign's address
// set are not served to a campaign watching different addresses.
func TestStoreKeysByWatchSet(t *testing.T) {
	p, wp := compiled(t, "SOR")
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	entry := c.Prog.Image.Entry
	st := NewStore()
	a, err := st.Run(c, wp.cs, vm.DefaultMaxCycles, nil, NewWatchSet([]uint32{entry}))
	if err != nil {
		t.Fatal(err)
	}
	b, err := st.Run(c, wp.cs, vm.DefaultMaxCycles, nil, NewWatchSet([]uint32{entry, entry + 4}))
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatal("different watch sets shared one record")
	}
	if records, _, _ := st.Stats(); records != 2 {
		t.Fatal("expected two records")
	}
}

// TestCheckpointsCarryValidSums: every checkpoint the store records must
// verify against its snapshot, and a tampered Sum must fail Verify — the
// hook degraded-mode execution hangs off.
func TestCheckpointsCarryValidSums(t *testing.T) {
	rec := buildRecordForTest(t)
	if len(rec.Checkpoints) == 0 {
		t.Fatal("record carries no checkpoints; the integrity check is vacuous")
	}
	for i := range rec.Checkpoints {
		cp := &rec.Checkpoints[i]
		if cp.Sum == 0 {
			t.Fatalf("checkpoint %d has no integrity sum", i)
		}
		if !cp.Verify() {
			t.Fatalf("checkpoint %d fails verification right after recording", i)
		}
	}
	cp := rec.Checkpoints[0]
	cp.Sum ^= 0xdeadbeef
	if cp.Verify() {
		t.Fatal("tampered checkpoint still verifies")
	}
}

// buildRecordForTest records one JB.team6 golden run with a checkpoint at
// the entry address.
func buildRecordForTest(t *testing.T) *Record {
	t.Helper()
	p, wp := compiled(t, "JB.team6")
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWatchSet([]uint32{c.Prog.Image.Entry})
	rec, err := NewStore().Run(c, wp.cs, vm.DefaultMaxCycles, nil, ws)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestStatsCountsSharedPagesOnce takes two snapshots one instruction apart.
// The second shares every page the instruction did not write with the
// first, so the store retains the second snapshot's pages plus at most one
// older copy of the page that instruction wrote — not the sum of both.
func TestStatsCountsSharedPagesOnce(t *testing.T) {
	p, wp := compiled(t, "SOR")
	c, err := p.Compile()
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWatchSet(nil)
	full, err := NewStore().Run(c, wp.cs, vm.DefaultMaxCycles, nil, ws)
	if err != nil {
		t.Fatal(err)
	}
	mid := full.Cycles / 2
	st := NewStore()
	rec, err := st.Run(c, wp.cs, vm.DefaultMaxCycles, []uint64{mid, mid + 1}, ws)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Checkpoints) != 2 {
		t.Fatalf("record has %d checkpoints, want 2", len(rec.Checkpoints))
	}
	a, b := rec.Checkpoints[0].Snap, rec.Checkpoints[1].Snap
	if a.Pages() < 2 {
		t.Fatalf("first snapshot carries %d pages; the test needs a shared one", a.Pages())
	}
	_, checkpoints, pages := st.Stats()
	if checkpoints != 2 {
		t.Fatalf("Stats checkpoints = %d, want 2", checkpoints)
	}
	if pages < b.Pages() || pages > b.Pages()+1 {
		t.Errorf("Stats pages = %d for snapshots of %d and %d pages one instruction apart, want %d or %d",
			pages, a.Pages(), b.Pages(), b.Pages(), b.Pages()+1)
	}
}
