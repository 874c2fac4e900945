package analysis_test

import (
	"testing"

	"mtmlf/internal/analysis"
)

func TestInScope(t *testing.T) {
	cases := []struct {
		analyzer *analysis.Analyzer
		pkg      string
		want     bool
	}{
		// Determinism contracts gate the training path only.
		{analysis.MapIter, "mtmlf/internal/mtmlf", true},
		{analysis.MapIter, "mtmlf/internal/corpus", true},
		{analysis.MapIter, "mtmlf/internal/dist", true},
		{analysis.MapIter, "mtmlf/internal/serve", false},
		{analysis.GlobalRand, "mtmlf/internal/nn", true},
		{analysis.GlobalRand, "mtmlf/internal/dist", true},
		{analysis.GlobalRand, "mtmlf/internal/loadgen", false},
		// The atomic-commit rule is module-wide except its implementation.
		{analysis.AtomicWrite, "mtmlf/internal/loadgen", true},
		{analysis.AtomicWrite, "mtmlf/cmd/mtmlf-train", true},
		{analysis.AtomicWrite, "mtmlf/internal/ckptio", false},
		// The ownership law is module-wide.
		{analysis.PoolRelease, "mtmlf/internal/serve", true},
		{analysis.PoolRelease, "mtmlf/internal/ag", true},
	}
	for _, c := range cases {
		if got := analysis.InScope(c.analyzer, c.pkg); got != c.want {
			t.Errorf("InScope(%s, %s) = %v, want %v", c.analyzer.Name, c.pkg, got, c.want)
		}
	}
	// Fixture packages (no module prefix) are always in scope.
	for _, a := range analysis.All() {
		if !analysis.InScope(a, a.Name) {
			t.Errorf("InScope(%s, fixture) = false, want true", a.Name)
		}
	}
}
