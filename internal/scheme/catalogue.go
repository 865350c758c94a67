package scheme

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// formatParams renders "name=default (doc; range); ..." or "—".
func formatParams(defs []ParamDef) string {
	if len(defs) == 0 {
		return "—"
	}
	parts := make([]string, len(defs))
	for i, p := range defs {
		parts[i] = fmt.Sprintf("%s=%s (%s; %s)", p.Name, strconv.FormatFloat(p.Default, 'g', -1, 64), p.Doc, p.rangeText())
	}
	return strings.Join(parts, "; ")
}

// WriteCatalogue writes the human-readable scheme inventory: the spec
// grammar, both registries with parameters and defaults, and the full
// list of valid combinations. The CLIs' -list-schemes flag prints this.
func WriteCatalogue(w io.Writer) error {
	tw := &errWriter{w: w}
	tw.printf("scheme spec grammar: <scheduler>[:<queues>]+<manager>[?key=value,...]\n")
	tw.printf("  a bare scheduler name means '+none'; a bare manager name means 'fifo+'\n")
	tw.printf("  e.g. fifo+threshold, wfq+sharing, hybrid:3+sharing, fifo+red?min=0.2,max=0.8\n\n")
	tw.printf("schedulers:\n")
	for _, d := range schedulers {
		tw.printf("  %-10s %-8s %s  [%s]\n", d.name, d.display, d.doc, d.paper)
		for _, p := range d.params {
			tw.printf("  %-10s   ?%s=%s — %s; %s\n", "", p.Name, strconv.FormatFloat(p.Default, 'g', -1, 64), p.Doc, p.rangeText())
		}
	}
	tw.printf("\nbuffer managers:\n")
	for _, d := range managers {
		display := d.display
		if display == "" {
			display = "(tail-drop)"
		}
		tw.printf("  %-10s %-16s %s  [%s]\n", d.name, display, d.doc, d.paper)
		for _, p := range d.params {
			tw.printf("  %-10s   ?%s=%s — %s; %s\n", "", p.Name, strconv.FormatFloat(p.Default, 'g', -1, 64), p.Doc, p.rangeText())
		}
	}
	tw.printf("\nall combinations:\n")
	for _, spec := range Specs() {
		tw.printf("  %-20s %s\n", spec, MustParse(spec).String())
	}
	return tw.err
}

// MarkdownCatalogue renders the registry as the Markdown tables embedded
// in README.md (between the scheme-catalogue markers); a test keeps the
// README in sync with this output.
func MarkdownCatalogue() string {
	var b strings.Builder
	b.WriteString("Spec grammar: `<scheduler>[:<queues>]+<manager>[?key=value,...]` — a bare\n")
	b.WriteString("scheduler name means `+none`, a bare manager name means `fifo+`.\n\n")
	b.WriteString("| Scheduler | Label | Description | Paper | Parameters (default) |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, d := range schedulers {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", d.name, d.display, d.doc, d.paper, formatParams(d.params))
	}
	b.WriteString("\n| Manager | Label | Description | Paper | Parameters (default) |\n")
	b.WriteString("|---|---|---|---|---|\n")
	for _, d := range managers {
		display := d.display
		if display == "" {
			display = "(tail-drop)"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n", d.name, display, d.doc, d.paper, formatParams(d.params))
	}
	return b.String()
}

// errWriter folds fmt errors so WriteCatalogue stays readable.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err != nil {
		return
	}
	_, e.err = fmt.Fprintf(e.w, format, args...)
}
