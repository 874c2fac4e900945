// Command mtmlf-vet is the repo's contract gate: a multichecker that
// runs the four custom analyzers in internal/analysis over the whole
// module and exits nonzero on any violation. CI runs it as `make
// vet-custom`; run it locally the same way, or directly:
//
//	go run ./cmd/mtmlf-vet ./...
//	go run ./cmd/mtmlf-vet internal/corpus internal/nn
//	go run ./cmd/mtmlf-vet -list
//
// The analyzers encode repo law (see DESIGN.md §8): mapiter and
// globalrand guard bitwise-reproducible training in the
// determinism-critical packages, atomicwrite guards the
// torn-artifact-free durability contract, and poolrelease guards
// session ownership on the no-grad serving path. Justified
// exceptions carry //mtmlf:unordered-ok or //mtmlf:allow:<analyzer>
// comments in the source, so the suppression count is always
// greppable.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mtmlf/internal/analysis"
)

func main() {
	list := flag.Bool("list", false, "print the analyzers and their contracts, then exit")
	typeErrs := flag.Bool("type-errors", false, "also print type-check errors encountered while loading (analysis runs on partial info regardless)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: mtmlf-vet [flags] [./... | package dirs]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := analysis.FindModuleRoot(".")
	if err != nil {
		fatal(err)
	}
	paths, err := targetPackages(root, flag.Args())
	if err != nil {
		fatal(err)
	}

	loader := analysis.NewLoader()
	var diagCount, typeErrCount int
	for _, path := range paths {
		pkg, err := loader.LoadDir(analysis.PackageDir(root, "mtmlf", path), path)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		if pkg == nil {
			continue
		}
		typeErrCount += len(pkg.TypeErrors)
		if *typeErrs {
			for _, terr := range pkg.TypeErrors {
				fmt.Fprintf(os.Stderr, "mtmlf-vet: %s: type error: %v\n", path, terr)
			}
		}
		for _, a := range analysis.All() {
			if !analysis.InScope(a, path) {
				continue
			}
			diags, err := analysis.RunAnalyzer(a, pkg)
			if err != nil {
				fatal(err)
			}
			for _, d := range diags {
				fmt.Println(d)
				diagCount++
			}
		}
	}
	if typeErrCount > 0 && !*typeErrs {
		fmt.Fprintf(os.Stderr, "mtmlf-vet: %d type-check error(s) while loading; analysis ran on partial info (rerun with -type-errors)\n", typeErrCount)
	}
	if diagCount > 0 {
		fmt.Fprintf(os.Stderr, "mtmlf-vet: %d violation(s)\n", diagCount)
		os.Exit(1)
	}
}

// targetPackages resolves the CLI arguments to module-relative import
// paths. No args or "./..." means the whole module.
func targetPackages(root string, args []string) ([]string, error) {
	if len(args) == 0 {
		return analysis.ModulePackages(root)
	}
	var paths []string
	for _, arg := range args {
		if arg == "./..." || arg == "all" {
			return analysis.ModulePackages(root)
		}
		p := strings.TrimPrefix(strings.TrimPrefix(arg, "./"), "mtmlf/")
		paths = append(paths, "mtmlf/"+strings.TrimSuffix(p, "/"))
	}
	return paths, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mtmlf-vet:", err)
	os.Exit(1)
}
