package bufqos_test

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestReadmeCLITable pins the README's command-line table to the cmd/
// tree: every command directory must have a row between the cli-table
// markers, every row must name an existing command, and every `-flag`
// in a row's key-flags cell must be declared by that command's main.go
// — so adding, renaming, or deleting a CLI or an advertised flag
// without updating the docs fails the build.
func TestReadmeCLITable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	const (
		beginTag = "<!-- cli-table:begin"
		endTag   = "<!-- cli-table:end -->"
	)
	s := string(readme)
	begin := strings.Index(s, beginTag)
	end := strings.Index(s, endTag)
	if begin < 0 || end < 0 || end < begin {
		t.Fatalf("README.md lacks the cli-table markers (%q ... %q)", beginTag, endTag)
	}
	table := s[begin:end]

	ents, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var cmds []string
	for _, e := range ents {
		if e.IsDir() {
			cmds = append(cmds, e.Name())
		}
	}
	if len(cmds) == 0 {
		t.Fatal("no command directories under cmd/")
	}

	// Each command appears as a `cmd/<name>` row cell.
	for _, c := range cmds {
		cell := fmt.Sprintf("| `cmd/%s` |", c)
		if !strings.Contains(table, cell) {
			t.Errorf("README CLI table lacks a row for cmd/%s (expected a cell %q)", c, cell)
		}
	}

	// And each table row names a real command that declares every flag
	// the row's key-flags cell (its third cell) lists.
	rowRe := regexp.MustCompile("(?m)^\\| `cmd/([a-z0-9_]+)` \\|[^|]*\\|([^|]*)\\|")
	flagRe := regexp.MustCompile("`-([a-z0-9-]+)`")
	rows := rowRe.FindAllStringSubmatch(table, -1)
	if len(rows) != len(cmds) {
		t.Errorf("README CLI table: parsed %d rows for %d commands", len(rows), len(cmds))
	}
	for _, m := range rows {
		src, err := os.ReadFile("cmd/" + m[1] + "/main.go")
		if err != nil {
			t.Errorf("README CLI table row for cmd/%s does not match a command: %v", m[1], err)
			continue
		}
		for _, f := range flagRe.FindAllStringSubmatch(m[2], -1) {
			decl := regexp.MustCompile(`flag\.[A-Z][A-Za-z0-9]*\("` + regexp.QuoteMeta(f[1]) + `"`)
			if !decl.Match(src) {
				t.Errorf("README CLI table lists -%s for cmd/%s, which its main.go does not declare", f[1], m[1])
			}
		}
	}
}
