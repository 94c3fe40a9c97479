package main

import (
	"strings"
	"testing"
)

// TestFigureTable: every name in the table selects exactly its own entry,
// "all" selects the table, the usage string is the table, and anything
// else selects nothing (main exits 2 on that instead of printing nothing).
func TestFigureTable(t *testing.T) {
	if got := selectFigures("all"); len(got) != len(figures) || len(got) == 0 {
		t.Fatalf(`"all" selected %d of %d figures`, len(got), len(figures))
	}
	usage := strings.Split(figureNames(), ", ")
	if len(usage) != len(figures)+1 || usage[0] != "all" {
		t.Fatalf("usage %q does not list all + %d figures", usage, len(figures))
	}
	seen := map[string]bool{"all": true}
	for i, f := range figures {
		if f.name == "" || seen[f.name] {
			t.Errorf("figure %d: name %q is empty, reserved or repeated", i, f.name)
		}
		seen[f.name] = true
		if f.print == nil {
			t.Errorf("figure %q has nothing to print", f.name)
		}
		if got := selectFigures(f.name); len(got) != 1 || got[0].name != f.name {
			t.Errorf("-fig %s selected %v", f.name, got)
		}
		if usage[i+1] != f.name {
			t.Errorf("usage lists %q where the table has %q", usage[i+1], f.name)
		}
	}
	for _, name := range []string{"99", "", "8", "ALL", "14", "all,7", " 7"} {
		if got := selectFigures(name); got != nil {
			t.Errorf("-fig %q selected %d figures, want none", name, len(got))
		}
	}
}
