package bufqos_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"bufqos/internal/scheme"
)

// TestExperimentsRentLedger pins the EXPERIMENTS.md rent ledger to the
// tree: every registry scheduler and manager (as `sched/<name>` and
// `mgr/<name>`), every cmd/ directory and every examples/ directory has
// a row between the rent-ledger markers naming the claim it backs and
// at least one test; every row names an entry that exists; and every
// test a row names is declared as `func TestX(` in a _test.go file of
// the repository. An entry without a claim and a test goes, with its
// row.
func TestExperimentsRentLedger(t *testing.T) {
	doc, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	table := between(t, string(doc), "<!-- rent-ledger:begin", "<!-- rent-ledger:end -->")
	rows := map[string][]string{} // entry -> tests
	rowRe := regexp.MustCompile("(?m)^\\| `([a-z0-9/_-]+)` \\|([^|]*)\\|([^|]*)\\|$")
	testRe := regexp.MustCompile("`(Test[A-Za-z0-9_]+)`")
	for _, m := range rowRe.FindAllStringSubmatch(table, -1) {
		entry, claim, tests := m[1], strings.TrimSpace(m[2]), m[3]
		if _, dup := rows[entry]; dup {
			t.Errorf("rent ledger: %s has two rows", entry)
		}
		if claim == "" {
			t.Errorf("rent ledger: %s names no claim", entry)
		}
		rows[entry] = nil
		for _, tm := range testRe.FindAllStringSubmatch(tests, -1) {
			rows[entry] = append(rows[entry], tm[1])
		}
		if len(rows[entry]) == 0 {
			t.Errorf("rent ledger: %s names no test", entry)
		}
	}

	entries := map[string]bool{}
	for _, spec := range scheme.Specs() {
		sc := scheme.MustParse(spec)
		entries["sched/"+sc.SchedulerName()] = true
		entries["mgr/"+sc.ManagerName()] = true
	}
	for _, dir := range []string{"cmd", "examples"} {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if e.IsDir() {
				entries[dir+"/"+e.Name()] = true
			}
		}
	}
	for e := range entries {
		if _, ok := rows[e]; !ok {
			t.Errorf("rent ledger lacks a row for %s (expected a cell \"| `%s` |\")", e, e)
		}
	}

	declared := declaredTests(t)
	for e, tests := range rows {
		if !entries[e] {
			t.Errorf("rent ledger has a row for %s, which is neither a registry entry nor a cmd/ or examples/ directory", e)
		}
		for _, name := range tests {
			if !declared[name] {
				t.Errorf("rent ledger row %s names %s, which no _test.go file declares", e, name)
			}
		}
	}
}

// between returns the text of s from the begin marker to the end marker.
func between(t *testing.T, s, beginTag, endTag string) string {
	t.Helper()
	begin := strings.Index(s, beginTag)
	end := strings.Index(s, endTag)
	if begin < 0 || end < 0 || end < begin {
		t.Fatalf("EXPERIMENTS.md lacks the markers %q ... %q", beginTag, endTag)
	}
	return s[begin:end]
}

// declaredTests is the set of test functions declared in the
// repository's _test.go files (hidden directories and testdata
// skipped).
func declaredTests(t *testing.T) map[string]bool {
	t.Helper()
	funcRe := regexp.MustCompile(`(?m)^func (Test[A-Za-z0-9_]+)\(`)
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range funcRe.FindAllSubmatch(src, -1) {
			declared[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}
