package aqua_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDesignInventoryMatchesTree keeps DESIGN.md §3 describing the tree as
// it is: every directory under internal/, cmd/ and examples/ that holds Go
// files has a row in the inventory table, every path a row names exists,
// and every golden file and the chaos ledger under a testdata/ directory is
// named in §3 by its path from testdata/ on, while every such file
// DESIGN.md names exists.
func TestDesignInventoryMatchesTree(t *testing.T) {
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## 3. ")
	if start < 0 {
		t.Fatal("DESIGN.md has no §3")
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## 4. "); end >= 0 {
		section = section[:end]
	}

	// The first cell of each table row names one or more paths in
	// backquotes, e.g. "| `cmd/aquad`, `cmd/aquacli` | ... |".
	listed := map[string]bool{}
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(line, "| `") {
			continue
		}
		quoted := strings.Split(cells[1], "`")
		for i := 1; i < len(quoted); i += 2 {
			path := quoted[i]
			listed[path] = true
			if _, err := os.Stat(path); err != nil {
				t.Errorf("DESIGN.md §3 lists %s, which does not exist", path)
			}
		}
	}
	if len(listed) == 0 {
		t.Fatal("no inventory rows found in DESIGN.md §3")
	}

	pinned := regexp.MustCompile("`((?:[\\w.-]+/)*testdata/(?:[\\w.-]+/)*(?:[\\w.-]+\\.golden|chaos_ledger\\.txt))`")
	var inTree []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || (strings.HasPrefix(d.Name(), ".") && path != ".")) {
			return filepath.SkipDir // the benchmark module and hidden dirs
		}
		slash := filepath.ToSlash(path)
		if !d.IsDir() && pinned.MatchString("`"+slash+"`") {
			inTree = append(inTree, slash)
			rel := slash[strings.Index(slash, "testdata/"):]
			if !strings.Contains(section, "`"+rel+"`") {
				t.Errorf("%s is not named in DESIGN.md §3 (as `%s`)", slash, rel)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range pinned.FindAllStringSubmatch(doc, -1) {
		found := false
		for _, f := range inTree {
			found = found || f == m[1] || strings.HasSuffix(f, "/"+m[1])
		}
		if !found {
			t.Errorf("DESIGN.md names %s, which does not exist", m[1])
		}
	}

	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			goFiles, err := filepath.Glob(filepath.Join(path, "*.go"))
			if err != nil {
				return err
			}
			if len(goFiles) > 0 && !listed[filepath.ToSlash(path)] {
				t.Errorf("%s holds Go files but has no row in DESIGN.md §3", path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
