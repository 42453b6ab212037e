package cc_test

import (
	"testing"

	"repro/internal/cc"
	"repro/internal/programs"
	"repro/internal/vm"
)

// FuzzCompile throws arbitrary text at the mini-C front end, starting from
// every suite program in both its corrected and its faulty version. The
// properties are the ones the campaign stack relies on: Compile never
// panics, and every source it accepts yields an image that a default
// machine loads.
func FuzzCompile(f *testing.F) {
	for _, p := range programs.All() {
		f.Add(p.Source)
		if src, err := p.FaultySource(); err == nil {
			f.Add(src)
		}
	}
	f.Add("int g[131072]; int main() { return 0; }")
	f.Fuzz(func(t *testing.T, src string) {
		c, err := cc.Compile(src)
		if err != nil {
			return
		}
		if err := vm.New(vm.Config{}).Load(c.Prog.Image); err != nil {
			t.Fatalf("Compile accepted a source whose image Load refuses: %v", err)
		}
	})
}
