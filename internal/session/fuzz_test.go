package session_test

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/session"
)

// FuzzParseModel reads any text as a ".qos" model and builds it. It
// asserts that nothing panics, that a parse error comes with no
// builder, and that the model builds to the same result as down the
// old path kept in oracle_test.go: a value-identical System, or the
// same errors. The oracle's errors are compared line by line in sorted
// order with its "codegen: " prefix read as "qos: ", because its
// builder reports the errors of a map's entries in map order. Its
// bufio.Scanner rejects a line of 64 KiB or more, which the one-path
// parser reads whole, so such inputs are skipped. The corpus under
// testdata/fuzz/FuzzParseModel holds the bodies of the codegen package's
// TestParseErrors and TestParseBoundsModelSize and the format's corner
// cases; every example model is a seed too.
func FuzzParseModel(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "examples", "models", "*.qos"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no example models: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src []byte) {
		b, err := session.ParseModel(strings.NewReader(string(src)))
		if err != nil && b != nil {
			t.Fatalf("ParseModel returned a builder with its error %v", err)
		}
		if err == nil {
			if b == nil {
				t.Fatal("ParseModel returned neither a builder nor an error")
			}
			sys, berr := b.Build()
			if (sys == nil) == (berr == nil) {
				t.Fatalf("Build returned system %v with error %v", sys != nil, berr)
			}
			err = berr
			if err == nil {
				want, werr := oracleLoad(string(src))
				if werr != nil {
					t.Fatalf("built, but the oracle fails: %v", werr)
				}
				if !reflect.DeepEqual(sys, want) {
					t.Fatalf("systems differ: %s", diffSystem(sys, want))
				}
				return
			}
		}
		_, werr := oracleLoad(string(src))
		if errors.Is(werr, bufio.ErrTooLong) {
			t.Skip("a line the oracle's scanner cannot hold")
		}
		if werr == nil {
			t.Fatalf("error %v, but the oracle builds", err)
		}
		if got, want := errorLines(err.Error()), errorLines(werr.Error()); !slices.Equal(got, want) {
			t.Fatalf("errors differ:\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	})
}

// errorLines returns the sorted lines of a joined error, each with a
// leading "codegen: " read as "qos: ".
func errorLines(s string) []string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		if rest, ok := strings.CutPrefix(l, "codegen: "); ok {
			lines[i] = "qos: " + rest
		}
	}
	slices.Sort(lines)
	return lines
}
