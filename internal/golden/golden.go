// Package golden holds test output to files under a package's
// testdata/golden directory. It is imported by tests only: importing it
// registers the -update flag, which rewrites the goldens instead of
// comparing against them.
//
//	go test ./internal/pipeline -run TestGoldenPerMBRetarget -update
//
// Rewrite a golden only for an intended change of a decision or of the
// output; a golden that changes across a refactor is a behaviour change.
package golden

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// Dir is the directory, relative to a test's package, that holds its
// goldens.
const Dir = "testdata/golden"

var update = flag.Bool("update", false, "rewrite the goldens under testdata/golden")

// Check holds got to the golden Dir/name. Under -update it writes got
// there instead.
func Check(t testing.TB, name string, got []byte) {
	t.Helper()
	path := filepath.Join(Dir, name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n%s", path, firstDiff(want, got))
	}
}

// Complete fails t for every file in Dir that is not one of names: a
// golden that no test produces any more.
func Complete(t testing.TB, names ...string) {
	t.Helper()
	entries, err := os.ReadDir(Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !slices.Contains(names, e.Name()) {
			t.Errorf("%s: golden without a producer", filepath.Join(Dir, e.Name()))
		}
	}
}

// firstDiff names the first line at which got departs from want.
func firstDiff(want, got []byte) string {
	wl, gl := bytes.Split(want, []byte("\n")), bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g []byte
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if !bytes.Equal(w, g) {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, w, g)
		}
	}
	return "lengths differ"
}
