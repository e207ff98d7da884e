package aqua_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIPatternsMatchTests keeps the test selections in the CI workflow
// live: for every `go test` command there that passes -run or -fuzz, each
// top-level `|` alternative of the pattern must match at least one Test or
// Fuzz function in the packages that command names. go test runs a pattern
// that matches nothing and passes, so a renamed or deleted test would
// otherwise drop out of its CI step unnoticed. The pattern NONE (run no
// tests) is exempt.
func TestCIPatternsMatchTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	flag := regexp.MustCompile(`-(run|fuzz)\s+(?:'([^']*)'|"([^"]*)"|(\S+))`)
	checked := 0
	for _, line := range strings.Split(string(raw), "\n") {
		i := strings.Index(line, "go test ")
		if i < 0 {
			continue
		}
		cmd := line[i:]
		matches := flag.FindAllStringSubmatch(cmd, -1)
		if len(matches) == 0 {
			continue
		}
		funcs := testFuncs(t, commandPackages(cmd))
		if len(funcs) == 0 {
			t.Errorf("ci.yml: %q names no package with tests", cmd)
			continue
		}
		for _, m := range matches {
			pattern := m[2] + m[3] + m[4]
			if pattern == "NONE" {
				continue
			}
			for _, alt := range topLevelAlternatives(pattern) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml: -%s alternative %q: %v", m[1], alt, err)
					continue
				}
				found := false
				for _, name := range funcs {
					if re.MatchString(name) && (m[1] == "run" || strings.HasPrefix(name, "Fuzz")) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("ci.yml: -%s alternative %q matches no test in %q", m[1], alt, cmd)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("no -run or -fuzz pattern found in ci.yml")
	}
}

// commandPackages returns the package directories a go test command line
// names, relative to the repository root: each argument starting with "."
// that is not -bench's pattern ("./..." expands to every directory below),
// resolved against -C's directory when the command sets one.
func commandPackages(cmd string) []string {
	fields := strings.Fields(cmd)
	base := "."
	for i, f := range fields {
		if f == "-C" && i+1 < len(fields) {
			base = fields[i+1]
		}
	}
	var dirs []string
	for i, f := range fields {
		if !strings.HasPrefix(f, ".") || i > 0 && fields[i-1] == "-bench" {
			continue
		}
		root, all := strings.CutSuffix(f, "/...")
		root = filepath.Join(base, root)
		if !all {
			dirs = append(dirs, root)
			continue
		}
		_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != root {
				// testdata, hidden directories and nested modules are
				// outside the pattern, as they are for go test.
				if d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			dirs = append(dirs, path)
			return nil
		})
	}
	return dirs
}

// testFuncs lists the Test and Fuzz functions declared in the _test.go
// files of dirs.
func testFuncs(t *testing.T, dirs []string) []string {
	t.Helper()
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	var names []string
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
		}
	}
	return names
}

// topLevelAlternatives splits a regular expression at the `|` operators
// outside any group or character class.
func topLevelAlternatives(pattern string) []string {
	var alts []string
	depth, start, class := 0, 0, false
	for i := 0; i < len(pattern); i++ {
		switch c := pattern[i]; {
		case c == '\\':
			i++
		case class:
			class = c != ']'
		case c == '[':
			class = true
		case c == '(':
			depth++
		case c == ')':
			depth--
		case c == '|' && depth == 0:
			alts = append(alts, pattern[start:i])
			start = i + 1
		}
	}
	return append(alts, pattern[start:])
}
