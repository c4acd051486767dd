package odin_test

// The documents name tests and cite DESIGN.md sections; these tests keep
// both kinds of reference pointing at something that exists. They read
// files only and train nothing.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// A backticked test, benchmark or fuzz name; a /subtest suffix is
	// dropped, since only the top-level func can be looked up.
	docTestName = regexp.MustCompile("`((?:Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*)")
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	designCite  = regexp.MustCompile("DESIGN(?:\\.md)?`?[ \t]*§([0-9]+)")
	designHead  = regexp.MustCompile(`(?m)^## §([0-9]+) `)
)

// repoFiles returns the repository's files for which keep reports true,
// skipping dot directories (.git, build caches).
func repoFiles(t *testing.T, keep func(path string) bool) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if keep(path) {
			out = append(out, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDocsNameExistingTests: every test, benchmark or fuzz target that
// DESIGN.md or README.md names in backticks is a func in some _test.go of
// the repository, bench/ included.
func TestDocsNameExistingTests(t *testing.T) {
	funcs := map[string]bool{}
	for _, path := range repoFiles(t, func(p string) bool { return strings.HasSuffix(p, "_test.go") }) {
		for _, m := range testFunc.FindAllStringSubmatch(readFile(t, path), -1) {
			funcs[m[1]] = true
		}
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		for _, m := range docTestName.FindAllStringSubmatch(readFile(t, doc), -1) {
			if !funcs[m[1]] {
				t.Errorf("%s names %s, which is no func in any _test.go", doc, m[1])
			}
		}
	}
}

// TestDesignCitationsResolve: every "DESIGN §N" or "DESIGN.md §N" in a Go
// file, README.md, ROADMAP.md or the verify skill names a "## §N" heading
// of DESIGN.md.
func TestDesignCitationsResolve(t *testing.T) {
	heads := map[string]bool{}
	for _, m := range designHead.FindAllStringSubmatch(readFile(t, "DESIGN.md"), -1) {
		heads[m[1]] = true
	}
	if len(heads) == 0 {
		t.Fatal("DESIGN.md has no ## §N headings")
	}
	files := repoFiles(t, func(p string) bool { return strings.HasSuffix(p, ".go") })
	files = append(files, "README.md", "ROADMAP.md", filepath.Join(".claude", "skills", "verify", "SKILL.md"))
	for _, path := range files {
		text := readFile(t, path)
		for _, loc := range designCite.FindAllStringSubmatchIndex(text, -1) {
			if n := text[loc[2]:loc[3]]; !heads[n] {
				line := 1 + strings.Count(text[:loc[0]], "\n")
				t.Errorf("%s:%d cites DESIGN §%s, which DESIGN.md has no heading for", path, line, n)
			}
		}
	}
}
