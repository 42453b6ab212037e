package campaign

import (
	"context"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/fault"
	"repro/internal/golden"
	"repro/internal/injector"
	"repro/internal/journal"
	"repro/internal/telemetry"
)

// The equivalence matrix is the campaign's correctness gate. The Result and
// the canonical journal of a campaign are a pure function of its plan and
// seed: the engine, fast-forward, worker count, isolation mode, fleet
// topology and any crash or chaos history may change how long a run takes,
// never what it reports. Each cell runs one base campaign one way and holds
// it to that base's golden: a serial, in-process, block-engine,
// fast-forwarded, journaled run.

// matrixBases are the campaign inputs the cells run.
var matrixBases = map[string]func() Config{
	"iso":    isolationConfig,
	"resume": ResumeConfig,
	"small":  SmallConfig,
	"small-trap": func() Config {
		cfg := SmallConfig()
		cfg.Mode = injector.ModeTrap
		return cfg
	},
	"small-jb11": func() Config {
		cfg := SmallConfig()
		cfg.Programs = []string{"JB.team11"}
		return cfg
	},
	// The Figure 7 shape: the assignment class over every Table 4 program.
	"fig7": func() Config {
		return Config{
			Classes:       []fault.Class{fault.ClassAssignment},
			CasesPerFault: 2,
			ChosenAssign: map[string]int{
				"C.team1": 2, "C.team2": 2, "C.team8": 2, "C.team9": 2,
				"C.team10": 2, "JB.team6": 2, "JB.team11": 2, "SOR": 3,
			},
			Seed: 7,
		}
	},
	"jb6-sor": func() Config {
		return Config{
			Programs:      []string{"JB.team6", "SOR"},
			Classes:       []fault.Class{fault.ClassAssignment, fault.ClassChecking},
			CasesPerFault: 3,
			Seed:          23,
		}
	},
	// The JamesB pair at the paper's location counts: every Table 3 error
	// type of both classes is in play.
	"jb-pair": func() Config {
		return Config{
			Programs:      []string{"JB.team11", "JB.team6"},
			CasesPerFault: 20,
			Seed:          2000,
		}
	},
}

type topology int

const (
	local      topology = iota
	fabric2             // two in-process loopback executors
	fabricProc          // a paced in-process executor and a proc executor
)

type perturbation int

const (
	none      perturbation = iota
	interrupt              // cancel once k units are journaled, resume under another leg
	kill                   // SIGKILL a worker subprocess mid-unit, once
	stop                   // SIGSTOP a worker subprocess (a heartbeat stall), once
	pipe                   // corrupt, truncate and reset worker pipes
	poison                 // poison every golden checkpoint as it is built
	disk                   // disk faults on the journal, cancel at k, resume under them
	observe                // every telemetry plane on
	nPerturbations
)

var pertNames = [...]string{"none", "interrupt", "kill", "stop", "pipe", "poison", "disk", "telemetry"}

// leg is how one campaign run executes.
type leg struct {
	step    bool // force step, the reference interpreter, on every machine
	noFFwd  bool
	workers int
	iso     Isolation // of the units' executors: the campaign's, or every fabric executor's
	topo    topology
}

// dims are the values of the leg's five dimensions.
func (l leg) dims() []string {
	engine, ffwd, iso := "block", "ffwd", "inproc"
	if l.step {
		engine = "step"
	}
	if l.noFFwd {
		ffwd = "straight"
	}
	if l.iso == IsolationProc {
		iso = "proc"
	}
	return []string{engine, ffwd, fmt.Sprintf("w%d", l.workers), iso, [...]string{"local", "fabric2", "fabric-proc"}[l.topo]}
}

type cell struct {
	test string // the top-level test that runs the cell
	base string
	leg
	pert    perturbation
	journal bool // compare the canonical journal bytes with the golden's
	k       int  // interrupt and disk: units journaled before the cancel
	resume  leg  // interrupt: how the resumed run executes
}

// dims are the cell's dimension values: its leg's and its perturbation.
func (c cell) dims() []string { return append(c.leg.dims(), pertNames[c.pert]) }

func (c cell) name() string {
	s := c.base + "." + strings.Join(c.dims(), ".")
	switch c.pert {
	case interrupt:
		s += fmt.Sprintf(".k%d.then.%s", c.k, strings.Join(c.resume.dims(), "."))
	case disk:
		s += fmt.Sprintf(".k%d", c.k)
	}
	if c.journal {
		s += ".journal"
	}
	return s
}

// valid is the rule for which dimension values can coexist in one run.
func (c cell) valid() bool {
	proc, local := c.iso == IsolationProc, c.topo == local
	switch {
	case c.step && (proc || !local):
		// The step switch is an executor option, not on the wire.
		return false
	case c.topo == fabricProc && !proc:
		// The topology is defined by its proc executor.
		return false
	case (c.pert == kill || c.pert == stop || c.pert == pipe) && !(proc && local):
		// Armed on the campaign's own worker pool, which a fabric
		// coordinator does not run.
		return false
	case c.pert == poison && (proc || !local || c.noFFwd):
		// Poisons this process's golden store: worker subprocesses build
		// their own, an executor resets the hook when it joins, and a
		// straight run restores no checkpoint.
		return false
	}
	return true
}

func (c cell) pairs() []string {
	d := c.dims()
	var out []string
	for i := range d {
		for j := i + 1; j < len(d); j++ {
			out = append(out, d[i]+"+"+d[j])
		}
	}
	return out
}

var (
	w1 = leg{workers: 1}
	w4 = leg{workers: 4}
	w8 = leg{workers: 8}
)

func (l leg) with(f func(*leg)) leg {
	f(&l)
	return l
}

func proc(l *leg)     { l.iso = IsolationProc }
func fab2(l *leg)     { l.topo = fabric2 }
func fabProc(l *leg)  { l.iso, l.topo = IsolationProc, fabricProc }
func step(l *leg)     { l.step = true }
func straight(l *leg) { l.noFFwd = true }

// matrix lists the cells. The first group holds the cells of the tests the
// matrix took over, as those tests ran them, under the tests' names; the
// TestEquivalenceMatrix group makes the matrix pairwise: every two
// dimension values that can coexist meet in at least one cell.
var matrix = []cell{
	{test: "TestFigure7FastForwardDeepEqual", base: "fig7", leg: w1.with(straight)},
	{test: "TestCheckpointedDeterminismAcrossWorkers", base: "jb6-sor", leg: w8},
	{test: "TestInterpOnlyCampaignEquivalence", base: "small", leg: w4.with(step)},
	{test: "TestInterpOnlyCampaignEquivalence", base: "small-trap", leg: w4.with(step)},
	{test: "TestCampaignParallelDeterminism", base: "jb-pair", leg: w8},
	{test: "TestClassCampaignDeterministic", base: "small-jb11", leg: w1, journal: true},
	{test: "TestFabricMatchesInProc", base: "iso", leg: w4.with(fab2)},
	{test: "TestFabricJournalMatchesSerial", base: "iso", leg: w4.with(fab2), journal: true},
	{test: "TestFabricResumesJournal", base: "iso", leg: w1, pert: interrupt, k: 2, resume: w4.with(fab2)},
	{test: "TestFabricProcExecutorMatchesSerial", base: "iso", leg: w4.with(fabProc), journal: true},
	{test: "TestProcMatchesInProc", base: "iso", leg: w4.with(proc)},
	{test: "TestProcWorkerKilledMidUnit", base: "iso", leg: w4.with(proc), pert: kill},
	{test: "TestProcHeartbeatStall", base: "iso", leg: w4.with(proc), pert: stop},
	{test: "TestProcJournalResumesInProcess", base: "iso", leg: w4.with(proc), pert: interrupt, k: 2, resume: w4},
	{test: "TestResumeAfterKillBitIdentical", base: "resume", leg: w1, pert: interrupt, k: 1, resume: w4},
	{test: "TestResumeAfterKillBitIdentical", base: "resume", leg: w4, pert: interrupt, k: 7, resume: w1},
	{test: "TestResumeAfterKillBitIdentical", base: "resume", leg: w4, pert: interrupt, k: 25, resume: w4},
	{test: "TestJournaledRunMatchesPlain", base: "resume", leg: w4, journal: true},
	{test: "TestStorageChaosPoisonedCheckpoints", base: "iso", leg: w4, pert: poison},
	{test: "TestStorageChaosPipeFaults", base: "iso", leg: w4.with(proc), pert: pipe},
	{test: "TestStorageChaosResumeByteIdenticalJournal", base: "resume", leg: w1, pert: disk, k: 5},
	{test: "TestTelemetryDoesNotChangeResults", base: "resume", leg: w4, pert: observe},

	{test: "TestEquivalenceMatrix", base: "iso", leg: w1.with(proc).with(straight), pert: kill},
	{test: "TestEquivalenceMatrix", base: "iso", leg: w8.with(proc), pert: kill},
	{test: "TestEquivalenceMatrix", base: "iso", leg: w8.with(proc).with(straight), pert: stop},
	{test: "TestEquivalenceMatrix", base: "iso", leg: w1.with(proc), pert: stop},
	{test: "TestEquivalenceMatrix", base: "iso", leg: w8.with(proc).with(straight), pert: pipe},
	{test: "TestEquivalenceMatrix", base: "iso", leg: w1.with(proc), pert: pipe},
	{test: "TestEquivalenceMatrix", base: "iso", leg: w1.with(step), pert: poison},
	{test: "TestEquivalenceMatrix", base: "iso", leg: w8, pert: poison},
	{test: "TestEquivalenceMatrix", base: "iso", leg: w8.with(step).with(straight), pert: observe},
	{test: "TestEquivalenceMatrix", base: "iso", leg: w1.with(fab2).with(proc), pert: observe},
	{test: "TestEquivalenceMatrix", base: "iso", leg: w8.with(fabProc), pert: observe},
	{test: "TestEquivalenceMatrix", base: "iso", leg: w4.with(step), pert: disk, k: 5},
	{test: "TestEquivalenceMatrix", base: "iso", leg: w8.with(straight).with(fab2), pert: disk, k: 5},
	{test: "TestEquivalenceMatrix", base: "iso", leg: w1.with(fabProc), pert: disk, k: 5},
	{test: "TestEquivalenceMatrix", base: "iso", leg: w8.with(step), pert: interrupt, k: 3, resume: w1},
	{test: "TestEquivalenceMatrix", base: "iso", leg: w4.with(straight).with(fab2), pert: interrupt, k: 3, resume: w1},
	{test: "TestEquivalenceMatrix", base: "iso", leg: w4.with(straight).with(fabProc), pert: interrupt, k: 3, resume: w4},
}

// The matrix's entry points: each runs the cells that name it.
func TestFigure7FastForwardDeepEqual(t *testing.T)            { runMatrix(t) }
func TestCheckpointedDeterminismAcrossWorkers(t *testing.T)   { runMatrix(t) }
func TestInterpOnlyCampaignEquivalence(t *testing.T)          { runMatrix(t) }
func TestCampaignParallelDeterminism(t *testing.T)            { runMatrix(t) }
func TestClassCampaignDeterministic(t *testing.T)             { runMatrix(t) }
func TestFabricMatchesInProc(t *testing.T)                    { runMatrix(t) }
func TestFabricJournalMatchesSerial(t *testing.T)             { runMatrix(t) }
func TestFabricResumesJournal(t *testing.T)                   { runMatrix(t) }
func TestFabricProcExecutorMatchesSerial(t *testing.T)        { runMatrix(t) }
func TestProcMatchesInProc(t *testing.T)                      { runMatrix(t) }
func TestProcWorkerKilledMidUnit(t *testing.T)                { runMatrix(t) }
func TestProcHeartbeatStall(t *testing.T)                     { runMatrix(t) }
func TestProcJournalResumesInProcess(t *testing.T)            { runMatrix(t) }
func TestResumeAfterKillBitIdentical(t *testing.T)            { runMatrix(t) }
func TestJournaledRunMatchesPlain(t *testing.T)               { runMatrix(t) }
func TestStorageChaosPoisonedCheckpoints(t *testing.T)        { runMatrix(t) }
func TestStorageChaosPipeFaults(t *testing.T)                 { runMatrix(t) }
func TestStorageChaosResumeByteIdenticalJournal(t *testing.T) { runMatrix(t) }
func TestTelemetryDoesNotChangeResults(t *testing.T)          { runMatrix(t) }

// TestEquivalenceMatrix checks the table itself — every cell is valid and
// names a base and a test of this package that exist, and every pair of dimension values
// that can coexist meets in some cell — then runs its own cells.
func TestEquivalenceMatrix(t *testing.T) {
	tests := make(map[string]bool)
	files, _ := filepath.Glob("*_test.go")
	for _, name := range files {
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				tests[fd.Name.Name] = true
			}
		}
	}
	covered := make(map[string]bool)
	for _, c := range matrix {
		if !c.valid() || c.pert == interrupt && !(cell{leg: c.resume}).valid() {
			t.Errorf("cell %s combines dimension values that cannot coexist", c.name())
		}
		if !tests[c.test] || matrixBases[c.base] == nil {
			t.Errorf("cell %s names test %s or base %s, which does not exist", c.name(), c.test, c.base)
		}
		for _, p := range c.pairs() {
			covered[p] = true
		}
	}
	for _, s := range []bool{false, true} {
		for _, nf := range []bool{false, true} {
			for _, w := range []int{1, 4, 8} {
				for _, iso := range []Isolation{IsolationInProc, IsolationProc} {
					for topo := local; topo <= fabricProc; topo++ {
						for p := none; p < nPerturbations; p++ {
							c := cell{leg: leg{step: s, noFFwd: nf, workers: w, iso: iso, topo: topo}, pert: p}
							if !c.valid() {
								continue
							}
							for _, pr := range c.pairs() {
								if !covered[pr] {
									t.Errorf("no cell covers %s", pr)
									covered[pr] = true
								}
							}
						}
					}
				}
			}
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	runMatrix(t)
}

// runMatrix runs the cells that name t's test.
func runMatrix(t *testing.T) {
	n := 0
	for _, c := range matrix {
		if c.test == t.Name() {
			n++
			t.Run(c.name(), c.run)
		}
	}
	if n == 0 {
		t.Fatal("no matrix cell names this test")
	}
}

// matrixGolden is a base's reference: its Result and canonical journal.
type matrixGolden struct {
	res *Result
	wal []byte
}

var goldens = make(map[string]*matrixGolden)

// goldenOf computes a base's golden once per process. It also proves the
// references meaningful: the golden store recorded checkpointed runs, the
// run was healthy, and replaying its complete journal executes nothing and
// reproduces it.
func goldenOf(t *testing.T, base string) *matrixGolden {
	if g := goldens[base]; g != nil {
		return g
	}
	golden.Shared.Purge()
	path := filepath.Join(t.TempDir(), "golden.wal")
	j, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := matrixBases[base]()
	cfg.Workers, cfg.Journal = 1, j
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if records, checkpoints, _ := golden.Shared.Stats(); records == 0 || checkpoints == 0 {
		t.Fatalf("golden %s: the store holds %d records, %d checkpoints; the checkpointed path was not exercised", base, records, checkpoints)
	}
	if res.Runs == 0 || res.Exec != (ExecStats{}) {
		t.Fatalf("golden %s: %d runs, %+v; want a healthy non-empty run", base, res.Runs, res.Exec)
	}
	wal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer replay.Close()
	cfg = matrixBases[base]()
	cfg.Journal = replay
	again, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if again.Exec.Replayed != res.Runs {
		t.Fatalf("golden %s: a full-journal replay replayed %d of %d units", base, again.Exec.Replayed, res.Runs)
	}
	again.Exec.Replayed = 0
	if !reflect.DeepEqual(again, res) {
		t.Fatalf("golden %s: a full-journal replay differs:\nreplay: %+v\ngolden: %+v", base, again, res)
	}
	g := &matrixGolden{res: res, wal: wal}
	goldens[base] = g
	return g
}

// run runs the cell and holds it to its base's golden: a deep-equal Result
// once the provenance fields (Exec.Replayed, Hosts, and under poison
// Exec.Degraded) are checked and cleared, and, where the cell journals, a
// byte-identical canonical journal. Each perturbation must also be seen to
// have happened, or the cell proves nothing.
func (c cell) run(t *testing.T) {
	g := goldenOf(t, c.base)
	dir := t.TempDir()
	cfg := matrixBases[c.base]()
	var env []string
	var proved func() error
	switch c.pert {
	case kill, stop:
		flag := filepath.Join(dir, "once")
		env = []string{"REPRO_WORKER_ONCE_FLAG=" + flag, "REPRO_WORKER_KILL_UNIT=1"}
		if c.pert == stop {
			env[1] = "REPRO_WORKER_STALL_UNIT=2"
		}
		proved = func() error {
			_, err := os.Stat(flag)
			return err
		}
	case pipe:
		cfg.Telemetry = &telemetry.Telemetry{Reg: telemetry.NewRegistry()}
		cfg.StorageChaos = chaos.New(chaos.Config{Seed: 21, PipeCorrupt: 0.15, PipeTruncate: 0.01, PipeReset: 0.01},
			chaos.NewMetrics(cfg.Telemetry.Reg))
		proved = func() error {
			m := cfg.Telemetry.Reg.Counters()
			if m["chaos_corrupted_writes_total"]+m["chaos_truncated_writes_total"]+m["chaos_resets_total"] == 0 {
				return errors.New("pipe chaos injected nothing")
			}
			return nil
		}
	case poison:
		// The run must build (and poison) its own checkpoints, and leave
		// neither them nor the hook behind.
		golden.Shared.Purge()
		t.Cleanup(func() {
			golden.Shared.SetPoison(nil)
			golden.Shared.Purge()
		})
		reg := telemetry.NewRegistry()
		cfg.StorageChaos = chaos.New(chaos.Config{Seed: 5, DiskPoison: 1.0}, chaos.NewMetrics(reg))
		proved = func() error {
			if reg.Counters()["chaos_disk_checkpoints_poisoned_total"] == 0 {
				return errors.New("chaos_disk_checkpoints_poisoned_total not incremented")
			}
			return nil
		}
	case observe:
		var sink string
		cfg.Telemetry, sink = FullTelemetry(t)
		proved = func() error {
			if err := cfg.Telemetry.Trace.Close(); err != nil {
				return err
			}
			if fi, err := os.Stat(sink); err != nil || fi.Size() == 0 {
				return fmt.Errorf("the trace sink holds nothing (%v)", err)
			}
			return nil
		}
	}
	cfg.Proc = procConfig(env...).Proc
	switch c.pert {
	case stop:
		cfg.Proc.HeartbeatTimeout = 2 * time.Second
	case pipe:
		// Chaos at these rates mangles many deliveries; the supervisor
		// gets the headroom to retry them all instead of quarantining.
		cfg.Proc.HeartbeatTimeout = 5 * time.Second
		cfg.Proc.MaxDeliveries, cfg.Proc.MaxRestarts = 10, 10000
	}

	var wrap journal.Wrap
	if c.pert == disk {
		// Each leg opens the journal through a fresh injector, as a fresh
		// process would.
		dc := chaos.Config{Seed: 6, DiskENOSPC: 0.05, DiskShortWrite: 0.05, DiskTornWrite: 0.05, DiskSyncFail: 0.02}
		wrap = func(f *os.File) journal.File { return chaos.New(dc, nil).WrapFile(f) }
	}
	path := filepath.Join(dir, "run.wal")
	var j *journal.Journal
	if c.journal || c.pert == interrupt || c.pert == disk {
		var err error
		if j, err = journal.CreateWrapped(path, wrap); err != nil {
			t.Fatal(err)
		}
		defer func() { j.Close() }()
		cfg.Journal = j
	}

	l, replayed := c.leg, 0
	if c.pert == interrupt || c.pert == disk {
		ctx, cancel := context.WithCancel(context.Background())
		j.OnAppend = func(done int) {
			if done >= c.k {
				cancel()
			}
		}
		first := cfg
		first.Ctx = ctx
		_, err := runLeg(t, first, l)
		cancel()
		var ie *InterruptedError
		if !errors.As(err, &ie) {
			t.Fatalf("the interrupted run returned %v, want an *InterruptedError", err)
		}
		if ie.Done < c.k || ie.Done >= ie.Total || ie.Partial == nil || ie.Partial.Runs != ie.Done {
			t.Fatalf("interrupted after %d/%d units with a partial Result of %v runs; want at least %d, short of completion", ie.Done, ie.Total, ie.Partial, c.k)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		if j, err = journal.OpenWrapped(path, wrap); err != nil {
			t.Fatal(err)
		}
		// Disk faults may have cost the journal records, which the resume
		// then executes again.
		if replayed = j.Len(); replayed < c.k && c.pert != disk {
			t.Fatalf("the journal replays %d units, want at least the %d journaled before the cancel", replayed, c.k)
		}
		cfg.Journal = j
		if c.pert == interrupt {
			l = c.resume
		}
	}

	res, err := runLeg(t, cfg, l)
	if err != nil {
		t.Fatal(err)
	}
	if proved != nil {
		if err := proved(); err != nil {
			t.Fatalf("the %s perturbation never happened; the cell proved nothing: %v", pertNames[c.pert], err)
		}
	}
	if l.topo == fabricProc {
		merged := 0
		for _, h := range res.Hosts {
			if h.Name == "exec-proc" {
				merged = h.Merged
			}
		}
		if merged == 0 {
			t.Fatalf("the proc executor delivered none of the merged verdicts (hosts %+v); the cell proved nothing", res.Hosts)
		}
	}
	if res.Exec.Replayed != replayed {
		t.Errorf("the run reports %d replayed units, the journal held %d", res.Exec.Replayed, replayed)
	}
	got := *res
	got.Exec.Replayed, got.Hosts = 0, nil
	if c.pert == poison {
		if got.Exec.Degraded == 0 {
			t.Fatal("universally poisoned checkpoints degraded nothing; the poison hook is not armed")
		}
		got.Exec.Degraded = 0
	}
	if !reflect.DeepEqual(&got, g.res) {
		t.Errorf("the Result differs from the golden's:\ncell:   %+v\ngolden: %+v", res, g.res)
	}

	if j != nil {
		if j.Len() != g.res.Runs {
			t.Errorf("the journal holds %d records after a complete run of %d units", j.Len(), g.res.Runs)
		}
		if j.Degraded() {
			t.Error("the journal is still degraded after completion-time recovery")
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		wal, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(wal) != string(g.wal) {
			t.Errorf("the canonical journal (%d bytes) differs from the golden's (%d bytes)", len(wal), len(g.wal))
		}
	}

	if c.pert == poison {
		// The poison hook must not leak into the next campaign.
		golden.Shared.Purge()
		clean, err := Run(matrixBases[c.base]())
		if err != nil {
			t.Fatal(err)
		}
		if clean.Exec.Degraded != 0 {
			t.Fatalf("a clean run after the poisoned one degraded %d units; the hook leaked", clean.Exec.Degraded)
		}
	}
}

// runLeg runs cfg the way l says. Proc workers take cfg.Proc. A fabric leg
// starts its loopback executors before the run and stops them after it.
func runLeg(t *testing.T, cfg Config, l leg) (*Result, error) {
	cfg.Workers, cfg.NoFastForward = l.workers, l.noFFwd
	if l.topo == local {
		cfg.Isolation = l.iso
		if l.step {
			return runStep(cfg)
		}
		return Run(cfg)
	}
	execs := []JoinOptions{{Name: "exec-a"}, {Name: "exec-b"}}
	if l.topo == fabricProc {
		// The in-process executor is paced so that it cannot take the
		// whole campaign before the proc executor's workers are up.
		execs[0].unitPace = 20 * time.Millisecond
		execs[1].Name = "exec-proc"
		execs[1].Isolation, execs[1].Proc = IsolationProc, cfg.Proc
	} else if l.iso == IsolationProc {
		for i := range execs {
			execs[i].Isolation, execs[i].Proc = IsolationProc, cfg.Proc
		}
	}
	addr := freeLoopbackAddr(t)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for _, o := range execs {
		o.Workers = l.workers
		wg.Add(1)
		go func() {
			defer wg.Done()
			joinUntilDone(ctx, t, addr, o)
		}()
	}
	cfg.Fabric = fabricConfig(addr, len(execs)).Fabric
	res, err := Run(cfg)
	cancel()
	wg.Wait()
	return res, err
}

// runStep is Run for an in-process campaign whose pooled machines are all
// forced onto step (vm.(*Machine).SetInterpOnly), the reference semantics:
// the engine may change speed, never verdicts.
func runStep(cfg Config) (*Result, error) {
	pc, err := planCampaign(&cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Journal != nil {
		if err := cfg.Journal.Bind(pc.fp); err != nil {
			return nil, err
		}
	}
	golden.Shared.SetPoison(poisonHook(cfg.StorageChaos))
	outcomes, err := executeUnitsOpts(execOpts{
		ctx: cfg.Ctx, workers: cfg.Workers, journal: cfg.Journal, interpOnly: true,
		met: newCampMetrics(cfg.Telemetry.Registry()), tracer: cfg.Telemetry.Tracer(),
	}, pc.units)
	if err != nil {
		if outcomes == nil {
			return nil, err
		}
		done := foldOutcomes(pc.res, pc.entryList, pc.units, outcomes)
		return nil, &InterruptedError{Done: done, Total: len(pc.units), Partial: pc.res, Cause: err}
	}
	if cfg.Journal != nil {
		if err := cfg.Journal.Canonicalize(); err != nil {
			return nil, err
		}
	}
	foldOutcomes(pc.res, pc.entryList, pc.units, outcomes)
	return pc.res, nil
}
