// Package golden runs each (program, test case) pair once fault-free and
// records everything a fault-injection campaign can reuse: the run's outcome
// (output, final state, cycle count), the execution count and first-arrival
// cycle of every planned trigger address, and a machine checkpoint
// (vm.Snapshot) taken at each first arrival plus a few fixed cycle
// quantiles.
//
// The record makes two fast paths sound for every injection of the same
// (program, case):
//
//   - Dormant shortcut: an injected run is byte-identical to the golden run
//     up to the first application of a corruption. If no trigger address
//     executes often enough to apply (Count <= Skip for all of them), the
//     corruption never applies and the injected run IS the golden run — no
//     execution needed.
//   - Fast-forward: otherwise the injected run can start from the latest
//     checkpoint at or before the first arrival of any executed trigger
//     address. Before that point zero trigger addresses have executed, so
//     the injector's per-address execution counters — which restart at zero
//     after a restore — count exactly what they would have counted in a
//     full run, for any Skip/Once policy.
//
// Records are built on demand, once, under single-flight, and are immutable
// afterwards; any number of campaign workers may read them concurrently.
package golden

import (
	"encoding/binary"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/cc"
	"repro/internal/telemetry"
	"repro/internal/vm"
	"repro/internal/workload"
)

// WatchSet is a canonicalised set of instruction addresses to watch during a
// golden run: the union of every planned trigger address of a campaign over
// one program. Its hash is part of the record's identity, so campaigns with
// different plans do not share records built for the wrong address set.
type WatchSet struct {
	addrs []uint32
	key   uint64
}

// NewWatchSet sorts, dedups and fingerprints the addresses.
func NewWatchSet(addrs []uint32) WatchSet {
	s := append([]uint32(nil), addrs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:0]
	var last uint32
	for i, a := range s {
		if i == 0 || a != last {
			out = append(out, a)
			last = a
		}
	}
	h := fnv.New64a()
	var b [4]byte
	for _, a := range out {
		binary.BigEndian.PutUint32(b[:], a)
		h.Write(b[:])
	}
	return WatchSet{addrs: out, key: h.Sum64()}
}

// Addrs returns the canonical (sorted, distinct) address list.
func (w WatchSet) Addrs() []uint32 { return w.addrs }

// Checkpoint is one restartable point of a golden run.
type Checkpoint struct {
	Addr   uint32 // watched address first reached here; 0 for a cycle mark
	Cycles uint64 // completed instructions before the snapshot point
	Snap   *vm.Snapshot
	// Sum is the snapshot's Checksum at record time. The executor verifies
	// it before restoring; a mismatch means the retained snapshot no longer
	// matches what the golden run recorded (host memory corruption, or a
	// bug mutating shared state) and the unit must not fast-forward.
	Sum uint64
}

// Verify recomputes the snapshot checksum and reports whether the
// checkpoint is still intact.
func (cp *Checkpoint) Verify() bool {
	return cp.Snap != nil && cp.Snap.Checksum() == cp.Sum
}

// Record is the reusable outcome of one fault-free run.
type Record struct {
	State      vm.State
	Exc        vm.Exc
	Output     string
	Cycles     uint64
	ExitStatus int32

	// First maps each watched address that executed to the cycle count at
	// its first arrival; Count to its total number of executions.
	First map[uint32]uint64
	Count map[uint32]uint64

	// Checkpoints in increasing cycle order: one at the first arrival of
	// each executed watched address, plus the cycle-quantile marks
	// requested by the caller (for triggers not tied to a location).
	Checkpoints []Checkpoint
}

// Nearest returns the latest checkpoint taken at or before the given cycle,
// or nil if the earliest checkpoint is already past it.
func (r *Record) Nearest(cycle uint64) *Checkpoint {
	i := sort.Search(len(r.Checkpoints), func(i int) bool { return r.Checkpoints[i].Cycles > cycle })
	if i == 0 {
		return nil
	}
	return &r.Checkpoints[i-1]
}

// RestorePoint computes the fast-forward decision for a location-triggered
// fault over the given trigger addresses and Skip count: whether any
// corruption will apply at all (the fault is activated rather than dormant),
// and the latest cycle an injected run may be restored at — the minimum
// first arrival over the trigger addresses that execute. Restoring at or
// before that cycle is sound for any Skip/Once policy because no trigger
// address has executed yet, so the injector's execution counters see every
// arrival a full run would count.
func (r *Record) RestorePoint(addrs []uint32, skip uint64) (applying bool, safe uint64) {
	safe = ^uint64(0)
	for _, a := range addrs {
		n := r.Count[a]
		if n == 0 {
			continue
		}
		if f := r.First[a]; f < safe {
			safe = f
		}
		if n > skip {
			applying = true
		}
	}
	return applying, safe
}

// Store builds and serves Records. Each (compiled program, case, watch set)
// triple is recorded at most once, under single-flight; concurrent callers
// for the same key block until the one golden run finishes. Programs and
// cases are keyed by pointer identity — programs.Program.Compile and
// workload.Cached both return canonical values, so campaign layers hit the
// same entries across runs.
type Store struct {
	mu      sync.Mutex
	entries map[storeKey]*storeEntry
	pools   sync.Map // *cc.Compiled -> *sync.Pool of *vm.Machine
	met     telemetry.GoldenMetrics
	poison  func() bool // chaos hook: corrupt the next checkpoint's sum
}

// SetMetrics installs the store's instrument bundle: golden runs recorded,
// checkpoints retained, record latency. Records built before the call are
// not retroactively counted; the zero bundle (the default) disables all of
// it. Safe to call concurrently with Run.
func (s *Store) SetMetrics(m telemetry.GoldenMetrics) {
	s.mu.Lock()
	s.met = m
	s.mu.Unlock()
}

func (s *Store) metrics() telemetry.GoldenMetrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.met
}

// SetPoison installs a hook consulted once per checkpoint as it is built:
// when it returns true, the checkpoint's integrity sum is corrupted on
// purpose. It is the chaos layer's handle on the store — a poisoned
// checkpoint must fail Verify in the executor and send the unit down the
// straight-execution path with an identical result, exactly as a
// genuinely rotted snapshot would. A nil fn (the default) disables it.
// Safe to call concurrently with Run.
func (s *Store) SetPoison(fn func() bool) {
	s.mu.Lock()
	s.poison = fn
	s.mu.Unlock()
}

func (s *Store) poisonFn() func() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.poison
}

type storeKey struct {
	c  *cc.Compiled
	cs *workload.Case
	ws uint64
}

type storeEntry struct {
	once sync.Once
	rec  *Record
	err  error
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{entries: make(map[storeKey]*storeEntry)}
}

// Shared is the process-wide store used by the campaign executor, so
// repeated campaigns over the same workload — including benchmark
// iterations — reuse golden runs the way they reuse calibration budgets.
var Shared = NewStore()

// Run returns the record for (c, cs, ws), building it on first use by
// running the program fault-free with the given watchdog budget. marks
// lists extra cycle counts to checkpoint at (quantiles for triggers not
// tied to a location); it is not part of the key, so callers must derive it
// deterministically from the budget.
func (s *Store) Run(c *cc.Compiled, cs *workload.Case, budget uint64, marks []uint64, ws WatchSet) (*Record, error) {
	key := storeKey{c: c, cs: cs, ws: ws.key}
	s.mu.Lock()
	e, ok := s.entries[key]
	if !ok {
		e = &storeEntry{}
		s.entries[key] = e
	}
	s.mu.Unlock()
	e.once.Do(func() { e.rec, e.err = s.record(c, cs, budget, marks, ws) })
	return e.rec, e.err
}

func (s *Store) record(c *cc.Compiled, cs *workload.Case, budget uint64, marks []uint64, ws WatchSet) (*Record, error) {
	met := s.metrics()
	var start time.Time
	if met.RunLatency != nil {
		start = time.Now()
	}
	m, err := s.acquire(c)
	if err != nil {
		return nil, err
	}
	defer s.release(c, m)
	m.SetMaxCycles(budget)
	m.SetInput(cs.Input.Ints)
	m.SetByteInput(cs.Input.Bytes)

	rec := &Record{
		First: make(map[uint32]uint64),
		Count: make(map[uint32]uint64),
	}
	poison := s.poisonFn()
	// checksum computes the integrity sum a checkpoint is stored with,
	// flipping bits when the poison hook fires so the executor's Verify
	// rejects the checkpoint later.
	checksum := func(snap *vm.Snapshot) uint64 {
		sum := snap.Checksum()
		if poison != nil && poison() {
			sum ^= 0xdead_beef_dead_beef
		}
		return sum
	}
	m.SetWatch(ws.addrs, marks, func(mm *vm.Machine, pc uint32, cycleMark bool) {
		if cycleMark {
			snap := mm.Snapshot()
			rec.Checkpoints = append(rec.Checkpoints, Checkpoint{Cycles: mm.Cycles(), Snap: snap, Sum: checksum(snap)})
			return
		}
		n := rec.Count[pc]
		rec.Count[pc] = n + 1
		if n == 0 {
			rec.First[pc] = mm.Cycles()
			snap := mm.Snapshot()
			rec.Checkpoints = append(rec.Checkpoints, Checkpoint{Addr: pc, Cycles: mm.Cycles(), Snap: snap, Sum: checksum(snap)})
		}
	})
	if _, err := m.Run(); err != nil {
		return nil, err
	}
	rec.State = m.State()
	rec.Exc, _ = m.Exception()
	rec.Output = string(m.Output())
	rec.Cycles = m.Cycles()
	rec.ExitStatus = m.ExitStatus()
	met.Runs.Inc()
	met.Checkpoints.Add(uint64(len(rec.Checkpoints)))
	if met.RunLatency != nil {
		met.RunLatency.ObserveSince(start)
	}
	return rec, nil
}

// acquire hands out a rebooted machine for the program, reusing pooled ones.
func (s *Store) acquire(c *cc.Compiled) (*vm.Machine, error) {
	pi, _ := s.pools.LoadOrStore(c, &sync.Pool{})
	if v := pi.(*sync.Pool).Get(); v != nil {
		m := v.(*vm.Machine)
		if err := m.Reset(); err != nil {
			return nil, err
		}
		return m, nil
	}
	m := vm.New(vm.Config{})
	if err := m.Load(c.Prog.Image); err != nil {
		return nil, err
	}
	return m, nil
}

func (s *Store) release(c *cc.Compiled, m *vm.Machine) {
	// Drop the watch hook now (it closes over the record) rather than at
	// the next Reset.
	m.ClearWatch()
	if pi, ok := s.pools.Load(c); ok {
		pi.(*sync.Pool).Put(m)
	}
}

// Stats reports the store's current size: how many records it holds and the
// total checkpoints and distinct page copies they retain. Shared pages are
// counted once, so pages*1024 approximates the memory pinned by snapshots.
func (s *Store) Stats() (records, checkpoints, pages int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[*byte]bool)
	for _, e := range s.entries {
		if e.rec == nil {
			continue
		}
		records++
		checkpoints += len(e.rec.Checkpoints)
		for i := range e.rec.Checkpoints {
			e.rec.Checkpoints[i].Snap.EachPage(func(pg []byte) {
				if !seen[&pg[0]] {
					seen[&pg[0]] = true
					pages++
				}
			})
		}
	}
	return records, checkpoints, pages
}

// Each calls fn for every completed record in the store. The iteration
// order is unspecified. Records are immutable by contract once built;
// mutating one through this hook (as the degradation tests do, to simulate
// in-store corruption) is only safe while no campaign is executing.
func (s *Store) Each(fn func(*Record)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range s.entries {
		if e.rec != nil {
			fn(e.rec)
		}
	}
}

// Purge drops every record, releasing the checkpoints' memory. Long-lived
// processes that sweep many distinct workloads can call it between sweeps.
func (s *Store) Purge() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.entries = make(map[storeKey]*storeEntry)
}
