package analysis

import "strings"

// DeterminismCritical is the set of packages whose computation must
// be bitwise-reproducible at any worker count: everything on the
// training and featurization path, where iteration order, a global
// RNG draw, or a wall-clock read changes a loss trajectory or an
// artifact byte. mapiter and globalrand apply only here; the serving
// and measurement layers (serve, loadgen, stats, metrics, the CLIs)
// legitimately read the clock and may iterate maps.
var DeterminismCritical = map[string]bool{
	"mtmlf/internal/mtmlf":     true,
	"mtmlf/internal/featurize": true,
	"mtmlf/internal/workload":  true,
	"mtmlf/internal/datagen":   true,
	"mtmlf/internal/nn":        true,
	"mtmlf/internal/corpus":    true,
	"mtmlf/internal/treelstm":  true,
	"mtmlf/internal/dist":      true,
}

// InScope reports whether analyzer a applies to the package at
// importPath. Fixture packages (bare paths, no module prefix) are
// always in scope — analysistest runs an analyzer directly on its own
// fixtures.
func InScope(a *Analyzer, importPath string) bool {
	if !strings.Contains(importPath, "/") {
		return true
	}
	switch a.Name {
	case "mapiter", "globalrand":
		return DeterminismCritical[importPath]
	case "atomicwrite":
		// ckptio is the one place allowed to touch the raw
		// filesystem: it implements the atomic commit itself.
		return importPath != "mtmlf/internal/ckptio"
	default:
		return true
	}
}
