package analysis_test

import (
	"slices"
	"testing"

	"mtmlf/internal/analysis"
)

// TestModulePackages walks the real module and checks the package
// list has the expected shape: the analyzers' own package is present,
// testdata fixture packages are not.
func TestModulePackages(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := analysis.ModulePackages(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"mtmlf/internal/analysis",
		"mtmlf/internal/ckptio",
		"mtmlf/cmd/mtmlf-vet",
	} {
		if !slices.Contains(pkgs, want) {
			t.Errorf("ModulePackages: missing %s", want)
		}
	}
	if !slices.IsSorted(pkgs) {
		t.Errorf("ModulePackages not sorted: %v", pkgs)
	}
	for _, p := range pkgs {
		if analysis.InScope(analysis.MapIter, p) && !analysis.DeterminismCritical[p] {
			t.Errorf("mapiter in scope for non-critical %s", p)
		}
		if slices.Contains([]string{"mapiter", "globalrand"}, p) {
			t.Errorf("fixture package %s leaked into module walk", p)
		}
	}
}

// TestLoadDirTypeInfo loads a real package and checks type info is
// populated — the analyzers lean on Uses/Types being resolvable.
func TestLoadDirTypeInfo(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	loader := analysis.NewLoader()
	pkg, err := loader.LoadDir(analysis.PackageDir(root, "mtmlf", "mtmlf/internal/ckptio"), "mtmlf/internal/ckptio")
	if err != nil {
		t.Fatal(err)
	}
	if pkg == nil {
		t.Fatal("LoadDir returned no package for internal/ckptio")
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("type errors loading ckptio: %v", pkg.TypeErrors)
	}
	if len(pkg.Info.Uses) == 0 {
		t.Fatal("no Uses info recorded")
	}
	if pkg.Types == nil || pkg.Types.Name() != "ckptio" {
		t.Fatalf("bad types package: %v", pkg.Types)
	}
}

// TestLoadDirHonorsBuildConstraints loads internal/tensor, whose
// simd_amd64.go and simd_generic.go declare the same functions under
// opposite //go:build lines: the loader must see one of them, as the
// compiler does, not both.
func TestLoadDirHonorsBuildConstraints(t *testing.T) {
	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := analysis.NewLoader().LoadDir(analysis.PackageDir(root, "mtmlf", "mtmlf/internal/tensor"), "mtmlf/internal/tensor")
	if err != nil {
		t.Fatal(err)
	}
	if pkg == nil {
		t.Fatal("LoadDir returned no package for internal/tensor")
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("type errors loading tensor: %v", pkg.TypeErrors)
	}
}
