package fault

import (
	"testing"

	"repro/internal/graph"
)

// FuzzParsePlan feeds arbitrary text to the fault-plan DSL. The contract is
// an error, never a panic — from Parse, from printing an accepted plan back
// and parsing it again, and from compiling it against a small network. The
// committed corpus under testdata/fuzz/FuzzParsePlan holds every rule form
// of the README's fault-model table.
func FuzzParsePlan(f *testing.F) {
	for _, s := range []string{
		"crash:7@10",
		"jam:4-12/p0.5",
		"seed:42;crashfrac:0.1@1-20",
	} {
		f.Add(s)
	}
	g, err := graph.Ring(8, 1)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, s string) {
		p, err := Parse(s)
		if err != nil || p == nil {
			return
		}
		if _, err := Parse(p.String()); err != nil {
			t.Errorf("plan %q prints as %q, which does not parse: %v", s, p.String(), err)
		}
		for _, caps := range []Caps{{}, {Skew: true}} {
			if inj, err := CompileFor(p, g, caps); err == nil {
				inj.Describe()
			}
		}
	})
}
