// Realfault reproduces the §5 case studies (paper Figures 3-6): for each
// real software fault of the suite it shows the corrective source diff, the
// machine code around the fault, the Xception-style emulation when one
// exists, and the behavioural-equivalence verification — including the
// Figure 4 breakpoint-exhaustion finding for the JB.team6 stack shift.
//
//	go run ./examples/realfault
package main

import (
	"errors"
	"fmt"
	"log"
	"strings"

	"repro/internal/asm"
	"repro/internal/campaign"
	"repro/internal/injector"
	"repro/internal/programs"
	"repro/internal/vm"
	"repro/internal/workload"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	for _, p := range programs.RealFaultPrograms() {
		fmt.Printf("==== %s ====================================================\n", p.Name)
		fmt.Printf("ODC type: %s\n", p.Fault.ODCType)
		fmt.Printf("fault:    %s\n", p.Fault.Description)
		if p.Fault.CorrectCode != "" {
			fmt.Printf("faulty source:\n%s\ncorrected source:\n%s\n",
				indent(p.Fault.FaultyCode), indent(p.Fault.CorrectCode))
		}

		em, err := campaign.BuildEmulation(p)
		if err != nil {
			return err
		}
		fmt.Printf("verdict:  %s (%s)\n", em.Verdict, em.Evidence)
		if em.Fault == nil {
			fmt.Println("no machine-level emulation exists: the corrective diff changes")
			fmt.Println("the shape of the generated code (paper category C).")
			fmt.Println()
			continue
		}

		// Show the corrupted instruction(s) like the paper's listings.
		c, err := p.Compile()
		if err != nil {
			return err
		}
		show := em.Fault.Corruptions
		if len(show) > 3 {
			show = show[:3]
		}
		for _, corr := range show {
			orig, err := c.Prog.ReadTextWord(corr.Addr)
			if err != nil {
				return err
			}
			fmt.Printf("  at %#06x: %s\n", corr.Addr, asm.FormatWord(c.Prog, corr.Addr, orig))
			if corr.NewWord != 0 {
				fmt.Printf("   becomes:  %s\n", asm.FormatWord(c.Prog, corr.Addr, corr.NewWord))
			} else {
				fmt.Printf("   corrupted on the %s\n", corr.Kind)
			}
		}
		if len(em.Fault.Corruptions) > len(show) {
			fmt.Printf("  ... and %d more corrupted locations\n", len(em.Fault.Corruptions)-len(show))
		}

		// Verify equivalence: corrected binary + injection vs faulty binary.
		cases, err := workload.Generate(p.Kind, 40, 99)
		if err != nil {
			return err
		}
		mode := injector.ModeHardware
		if em.NeedsTraps {
			_, err := campaign.VerifyEmulation(p, em, campaign.StrategyFetchEveryExec, injector.ModeHardware, cases, 0)
			if errors.Is(err, injector.ErrOutOfBreakpoints) {
				fmt.Printf("hardware triggers: REFUSED — %d trigger addresses exceed the %d breakpoint\n",
					em.Triggers, vm.NumIABR)
				fmt.Println("registers of the PowerPC 601 (the paper's point B); using trap insertion.")
			}
			mode = injector.ModeTrap
		}
		rep, err := campaign.VerifyEmulation(p, em, campaign.StrategyFetchEveryExec, mode, cases, 0)
		if err != nil {
			return err
		}
		fmt.Printf("equivalence (%v): %d/%d runs identical to the real faulty binary\n",
			mode, rep.Equivalent, rep.Cases)
		fmt.Println()
	}
	return nil
}

func indent(s string) string {
	lines := strings.Split(s, "\n")
	for i := range lines {
		lines[i] = "    | " + strings.TrimLeft(lines[i], " ")
	}
	return strings.Join(lines, "\n")
}
