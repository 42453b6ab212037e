package repro

// The benchmark harness: one benchmark per table and figure of the paper,
// plus the ablations called out in DESIGN.md. Each benchmark runs a scaled
// version of the corresponding experiment per iteration and reports the
// headline quantity of that table/figure as a custom metric, so the shape
// of the paper's results is visible straight from `go test -bench=.`:
//
//	go test -bench=. -benchmem            # scaled-down (default)
//	REPRO_BENCH_SCALE=1.0 go test -bench=BenchmarkFigure7 -timeout 24h
//
// Absolute run counts are scaled by REPRO_BENCH_SCALE (default 0.01 of the
// paper's sizes); the qualitative findings hold at any scale. The VM engine
// and compiler benchmarks at the end time single layers. Campaign throughput
// is measured by perfbench (perfbench/README.md), not here.

import (
	"os"
	"strconv"
	"testing"

	"repro/internal/campaign"
	"repro/internal/cc"
	"repro/internal/fault"
	"repro/internal/injector"
	"repro/internal/locator"
	"repro/internal/metrics"
	"repro/internal/programs"
	"repro/internal/vm"
	"repro/internal/workload"
)

// benchScale reads the scale factor for benchmark workloads.
func benchScale() float64 {
	if s := os.Getenv("REPRO_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.01
}

// scaledCases converts a paper-sized run count to the bench scale.
func scaledCases(paper int) int {
	n := int(float64(paper) * benchScale())
	if n < 2 {
		n = 2
	}
	return n
}

// campaignCfg builds a §6 campaign configuration for the given programs at
// bench scale.
func campaignCfg(classes []fault.Class, progs ...string) campaign.Config {
	return campaign.Config{
		Programs:      progs,
		Classes:       classes,
		CasesPerFault: scaledCases(campaign.PaperCasesPerFault),
		Seed:          2000,
	}
}

// BenchmarkTable1 regenerates Table 1: the failure symptoms of the real
// software faults under intensive random testing. Reported metric:
// wrong-result percentage of the most failure-prone program.
func BenchmarkTable1(b *testing.B) {
	runs := scaledCases(10000)
	for i := 0; i < b.N; i++ {
		var worst float64
		for _, p := range programs.RealFaultPrograms() {
			cases, err := workload.Generate(p.Kind, runs, 99)
			if err != nil {
				b.Fatal(err)
			}
			c, err := p.CompileFaulty()
			if err != nil {
				b.Fatal(err)
			}
			results, err := campaign.RunCleanBatch(c, cases, vm.DefaultMaxCycles, 1)
			if err != nil {
				b.Fatal(err)
			}
			wrong := 0
			for _, res := range results {
				if res.Mode != campaign.Correct {
					wrong++
				}
			}
			if pct := 100 * float64(wrong) / float64(len(cases)); pct > worst {
				worst = pct
			}
		}
		b.ReportMetric(worst, "worst-%wrong")
	}
}

// BenchmarkTable4 regenerates the Table 4 fault accounting (locations,
// chosen subsets, expanded fault lists) for all eight programs — the plan
// construction only, no injections. Reported metric: total faults planned.
func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total := 0
		for _, p := range programs.Table4Programs() {
			c, err := p.Compile()
			if err != nil {
				b.Fatal(err)
			}
			pa, err := locator.PlanAssignment(c, p.Name, campaign.PaperChosenAssign[p.Name], 2000)
			if err != nil {
				b.Fatal(err)
			}
			pc, err := locator.PlanChecking(c, p.Name, campaign.PaperChosenCheck[p.Name], 2000)
			if err != nil {
				b.Fatal(err)
			}
			total += len(pa.Faults) + len(pc.Faults)
		}
		b.ReportMetric(float64(total), "faults")
	}
}

// benchCampaign runs a one-class campaign and reports the share of correct
// runs — the paper's "dormant faults" fraction.
func benchCampaign(b *testing.B, class fault.Class, progs ...string) {
	b.Helper()
	cfg := campaignCfg([]fault.Class{class}, progs...)
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		d := res.Total(class)
		b.ReportMetric(d.Pct(campaign.Correct), "%correct")
		b.ReportMetric(float64(res.Runs), "runs")
	}
}

// BenchmarkFigure7 regenerates the assignment-fault campaign behind
// Figure 7 (failure modes per program) on the Camelot programs plus the
// JamesB pair.
func BenchmarkFigure7(b *testing.B) {
	benchCampaign(b, fault.ClassAssignment,
		"C.team1", "C.team2", "C.team8", "C.team9", "C.team10", "JB.team6", "JB.team11", "SOR")
}

// BenchmarkFigure8 regenerates the checking-fault campaign behind Figure 8.
func BenchmarkFigure8(b *testing.B) {
	benchCampaign(b, fault.ClassChecking,
		"C.team1", "C.team2", "C.team8", "C.team9", "C.team10", "JB.team6", "JB.team11", "SOR")
}

// BenchmarkFigure9 regenerates the per-error-type assignment breakdown of
// Figure 9 on the JamesB programs (the full-suite numbers come from the
// Figure 7 campaign; the shape is the same).
func BenchmarkFigure9(b *testing.B) {
	benchCampaign(b, fault.ClassAssignment, "JB.team6", "JB.team11")
}

// BenchmarkFigure10 regenerates the per-error-type checking breakdown of
// Figure 10 on the JamesB programs.
func BenchmarkFigure10(b *testing.B) {
	benchCampaign(b, fault.ClassChecking, "JB.team6", "JB.team11")
}

// BenchmarkFigure2 regenerates the empirical fault-exposure chain (p1 ·
// p2·p3) of Figure 2. Reported metric: p1, the activation probability.
func BenchmarkFigure2(b *testing.B) {
	cfg := campaignCfg(nil, "JB.team11")
	for i := 0; i < b.N; i++ {
		res, err := campaign.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		d := res.Total(fault.ClassAssignment)
		if d.Runs > 0 {
			b.ReportMetric(float64(d.Activated)/float64(d.Runs), "p1")
		}
	}
}

// BenchmarkSection5 regenerates the §5 analysis: build the emulation of
// every real fault and verify behavioural equivalence for the emulable
// ones. Reported metric: equivalence fraction.
func BenchmarkSection5(b *testing.B) {
	cases := scaledCases(1000)
	for i := 0; i < b.N; i++ {
		equivalent, total := 0, 0
		for _, name := range []string{"C.team1", "C.team4", "JB.team6"} {
			p, _ := programs.ByName(name)
			em, err := campaign.BuildEmulation(p)
			if err != nil {
				b.Fatal(err)
			}
			ws, err := workload.Generate(p.Kind, cases, 99)
			if err != nil {
				b.Fatal(err)
			}
			mode := injector.ModeHardware
			if em.NeedsTraps {
				mode = injector.ModeTrap
			}
			rep, err := campaign.VerifyEmulation(p, em, campaign.StrategyFetchEveryExec, mode, ws, 0)
			if err != nil {
				b.Fatal(err)
			}
			equivalent += rep.Equivalent
			total += rep.Cases
		}
		b.ReportMetric(float64(equivalent)/float64(total), "equivalence")
	}
}

// BenchmarkAblationTriggerMode compares the two trigger mechanisms on the
// same fault set: hardware breakpoint registers versus trap insertion (the
// intrusive alternative §5 discusses). The time difference is the
// mechanism's overhead.
func BenchmarkAblationTriggerMode(b *testing.B) {
	for _, mode := range []injector.Mode{injector.ModeHardware, injector.ModeTrap} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := campaignCfg([]fault.Class{fault.ClassChecking}, "JB.team11")
			cfg.Mode = mode
			for i := 0; i < b.N; i++ {
				res, err := campaign.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.Total(fault.ClassChecking).Pct(campaign.Correct), "%correct")
			}
		})
	}
}

// BenchmarkAblationBreakpointBudget measures the §5 stack-shift fault: the
// hardware budget rejects it (arm failure) while trap mode pays the
// intrusive-trigger cost per run.
func BenchmarkAblationBreakpointBudget(b *testing.B) {
	p, _ := programs.ByName("JB.team6")
	em, err := campaign.BuildEmulation(p)
	if err != nil {
		b.Fatal(err)
	}
	cases, err := workload.Generate(p.Kind, scaledCases(1000), 99)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hardware-rejects", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := campaign.VerifyEmulation(p, em, campaign.StrategyFetchEveryExec, injector.ModeHardware, cases, 0); err == nil {
				b.Fatal("hardware mode armed a 56-trigger fault")
			}
		}
	})
	b.Run("trap-runs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rep, err := campaign.VerifyEmulation(p, em, campaign.StrategyFetchEveryExec, injector.ModeTrap, cases, 0)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(rep.Equivalent)/float64(rep.Cases), "equivalence")
		}
	})
}

// BenchmarkAblationMechanism compares the two corruption mechanisms of
// Figures 3/5 — persistent instruction-memory rewrite versus transient
// fetch-bus corruption — on the same real-fault emulation.
func BenchmarkAblationMechanism(b *testing.B) {
	p, _ := programs.ByName("C.team1")
	em, err := campaign.BuildEmulation(p)
	if err != nil {
		b.Fatal(err)
	}
	cases, err := workload.Generate(p.Kind, scaledCases(300), 99)
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range []campaign.Strategy{campaign.StrategyTextAtStart, campaign.StrategyFetchEveryExec} {
		b.Run(s.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := campaign.VerifyEmulation(p, em, s, injector.ModeHardware, cases, 0)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(rep.Equivalent)/float64(rep.Cases), "equivalence")
			}
		})
	}
}

// BenchmarkAblationMetricGuided compares uniform versus complexity-guided
// location selection (§6.1): the reported metric is the share of chosen
// locations landing in the most complex function.
func BenchmarkAblationMetricGuided(b *testing.B) {
	p, _ := programs.ByName("C.team1")
	c, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	rep := metrics.Analyze(p.Name, c.AST)
	funcs := metrics.AssignFuncs(c)
	weights := metrics.LocationWeights(rep, funcs)
	hottest := "main"
	pick := func(guided bool, seed int64) int {
		var idx []int
		if guided {
			idx = metrics.ChooseWeighted(weights, 8, seed)
		} else {
			idx = locator.ChooseLocations(len(funcs), 8, seed)
		}
		n := 0
		for _, i := range idx {
			if funcs[i] == hottest {
				n++
			}
		}
		return n
	}
	for _, guided := range []bool{false, true} {
		name := "uniform"
		if guided {
			name = "guided"
		}
		b.Run(name, func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				hits += pick(guided, int64(i))
			}
			b.ReportMetric(float64(hits)/float64(b.N*8), "share-in-main")
		})
	}
}

// benchVMThroughput drives the VM directly (Load once, Reset per run) so
// the number measures the execution engine alone, without the campaign
// pooling and classification around RunCleanBatch.
func benchVMThroughput(b *testing.B, interpOnly bool) {
	p, _ := programs.ByName("C.team1")
	c, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	cases, err := workload.Generate(p.Kind, 1, 7)
	if err != nil {
		b.Fatal(err)
	}
	m := vm.New(vm.Config{})
	if err := m.Load(c.Prog.Image); err != nil {
		b.Fatal(err)
	}
	m.SetInterpOnly(interpOnly)
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Reset(); err != nil {
			b.Fatal(err)
		}
		m.SetMaxCycles(vm.DefaultMaxCycles)
		m.SetInput(cases[0].Input.Ints)
		m.SetByteInput(cases[0].Input.Bytes)
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		cycles += m.Cycles()
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds()/1e6, "Minstr/s")
}

// BenchmarkVMThroughputCompiled is the block-compiled engine (the default
// everywhere); BenchmarkVMThroughputInterp is the same run with
// SetInterpOnly, every instruction through step. Their ratio is the speed-up of block compilation on
// identical work.
func BenchmarkVMThroughputCompiled(b *testing.B) { benchVMThroughput(b, false) }

func BenchmarkVMThroughputInterp(b *testing.B) { benchVMThroughput(b, true) }

// BenchmarkBlockCompile measures the one-time cost of decoding a program's
// text into basic blocks and superinstructions — the price paid per Load
// (and per full rebuild after a text-modification overflow).
func BenchmarkBlockCompile(b *testing.B) {
	p, _ := programs.ByName("C.team1")
	c, err := p.Compile()
	if err != nil {
		b.Fatal(err)
	}
	m := vm.New(vm.Config{})
	if err := m.Load(c.Prog.Image); err != nil {
		b.Fatal(err)
	}
	words := len(c.Prog.Image.Text)
	var blocks int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer() // Load resets the block cache; only time compilation
		if err := m.Load(c.Prog.Image); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		blocks = m.CompileAllBlocks()
	}
	if blocks == 0 {
		b.Fatal("CompileAllBlocks compiled nothing")
	}
	b.ReportMetric(float64(blocks), "blocks")
	b.ReportMetric(float64(words)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mwords/s")
}

// BenchmarkCompile measures the mini-C compiler on the largest program.
func BenchmarkCompile(b *testing.B) {
	p, _ := programs.ByName("C.team5")
	for i := 0; i < b.N; i++ {
		if _, err := cc.Compile(p.Source); err != nil {
			b.Fatal(err)
		}
	}
}
