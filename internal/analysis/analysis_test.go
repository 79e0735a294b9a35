package analysis

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// TestGolden runs the analyzer over every fixture under testdata/src
// and compares the findings, rendered with fixture-relative paths,
// against testdata/golden/<fixture>.golden. A fixture directory with
// its own go.mod is loaded as a module (LoadModule), so cross-package
// findings are pinned too; any other directory is one package
// (LoadDir). A fixture without a golden file, or a golden file without
// a fixture, fails the test. Regenerate a new fixture's golden with:
//
//	go test ./internal/analysis -run TestGolden -update
func TestGolden(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	fixtures := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() {
			fixtures[e.Name()] = true
		}
	}
	goldens, err := filepath.Glob(filepath.Join("testdata", "golden", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldens {
		if name := strings.TrimSuffix(filepath.Base(g), ".golden"); !fixtures[name] {
			t.Errorf("golden file %s has no fixture under testdata/src", g)
		}
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
			if err != nil {
				t.Fatal(err)
			}
			pkgs, err := loadFixture(dir, name)
			if err != nil {
				t.Fatalf("loading %s: %v", dir, err)
			}
			var buf strings.Builder
			for _, d := range Analyze(pkgs) {
				rel, err := filepath.Rel(dir, d.Pos.Filename)
				if err != nil {
					rel = d.Pos.Filename
				}
				fmt.Fprintf(&buf, "%s:%d:%d: %s: %s\n",
					filepath.ToSlash(rel), d.Pos.Line, d.Pos.Column, d.Check, d.Message)
			}
			got := buf.String()
			golden := filepath.Join("testdata", "golden", name+".golden")
			if *update {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			wantBytes, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("fixture %s has no golden file (run with -update): %v", name, err)
			}
			if want := string(wantBytes); got != want {
				t.Errorf("findings mismatch for %s\n--- got ---\n%s--- want ---\n%s", name, got, want)
			}
		})
	}
}

// loadFixture loads a fixture directory: as a module when it carries a
// go.mod, otherwise as the single package fixture/<name>.
func loadFixture(dir, name string) ([]*Package, error) {
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
		return LoadModule(dir)
	}
	pkg, err := LoadDir(dir, "fixture/"+name)
	if err != nil {
		return nil, err
	}
	return []*Package{pkg}, nil
}

// TestModuleSelfClean is the in-tree equivalent of the CI gate: the
// analyzer over this module itself must report nothing. Any new raw
// Cycles arithmetic, slab poke, or lock-order regression fails here
// before it fails in CI.
func TestModuleSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := findRepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := LoadModule(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("LoadModule found only %d packages; walk is broken", len(pkgs))
	}
	for _, d := range Analyze(pkgs) {
		t.Errorf("unexpected finding: %s", d)
	}
}

// findRepoRoot walks up from the working directory to go.mod.
func findRepoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod above %s", dir)
		}
		dir = parent
	}
}
