package golden

import (
	"os"
	"path/filepath"
	"testing"
)

func TestCheckMatchesWrittenGolden(t *testing.T) {
	t.Chdir(t.TempDir())
	if err := os.MkdirAll(Dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(Dir, "a.txt"), []byte("x\ny\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	Check(t, "a.txt", []byte("x\ny\n"))
	Complete(t, "a.txt")
}

func TestFirstDiffNamesLine(t *testing.T) {
	for _, tc := range []struct{ want, got, diff string }{
		{"a\nb\n", "a\nc\n", "line 2:\n  want \"b\"\n  got  \"c\""},
		{"a\n", "a\nb\n", "line 2:\n  want \"\"\n  got  \"b\""},
	} {
		if got := firstDiff([]byte(tc.want), []byte(tc.got)); got != tc.diff {
			t.Errorf("firstDiff(%q, %q) = %q, want %q", tc.want, tc.got, got, tc.diff)
		}
	}
}
