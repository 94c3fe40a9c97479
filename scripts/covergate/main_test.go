package main

import (
	"strings"
	"testing"
)

const sampleProfile = `mode: set
netseer/internal/oracle/checkers.go:10.2,12.3 2 1
netseer/internal/oracle/checkers.go:14.2,20.3 4 0
netseer/internal/oracle/harness.go:5.2,9.3 4 1
netseer/internal/groupcache/groupcache.go:8.2,11.3 3 1
netseer/internal/groupcache/groupcache.go:13.2,15.3 1 1
`

func TestParseProfilePerPackage(t *testing.T) {
	cov, err := parseProfile(strings.NewReader(sampleProfile))
	if err != nil {
		t.Fatal(err)
	}
	oracle := cov["netseer/internal/oracle"]
	if oracle == nil || oracle.total != 10 || oracle.covered != 6 {
		t.Errorf("oracle coverage = %+v, want 6/10", oracle)
	}
	gc := cov["netseer/internal/groupcache"]
	if gc == nil || gc.total != 4 || gc.covered != 4 {
		t.Errorf("groupcache coverage = %+v, want 4/4", gc)
	}
	// A single file can be gated by name too.
	file := cov["netseer/internal/oracle/checkers.go"]
	if file == nil || file.total != 6 || file.covered != 2 {
		t.Errorf("checkers.go coverage = %+v, want 2/6", file)
	}
	if _, ok := gate(cov, []floor{{"netseer/internal/oracle/harness.go", 100}}); !ok {
		t.Error("gate failed a fully covered file")
	}
}

// TestParseProfileMergesDuplicateBlocks: a multi-binary profile repeats
// every block once per test binary; a block hit by any binary is covered
// and its statements count once.
func TestParseProfileMergesDuplicateBlocks(t *testing.T) {
	profile := `mode: set
netseer/internal/oracle/a.go:1.2,3.4 5 1
netseer/internal/oracle/a.go:5.2,7.4 5 0
mode: set
netseer/internal/oracle/a.go:1.2,3.4 5 0
netseer/internal/oracle/a.go:5.2,7.4 5 0
`
	cov, err := parseProfile(strings.NewReader(profile))
	if err != nil {
		t.Fatal(err)
	}
	oracle := cov["netseer/internal/oracle"]
	if oracle == nil || oracle.total != 10 || oracle.covered != 5 {
		t.Errorf("merged coverage = %+v, want 5/10", oracle)
	}
}

func TestParseProfileRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"not a profile line\n",
		"file.go:1.2,3.4 x 1\n",
		"file.go:1.2,3.4 2 y\n",
	} {
		if _, err := parseProfile(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProfile accepted %q", bad)
		}
	}
}

func TestGateEnforcesFloorPerPackage(t *testing.T) {
	cov, err := parseProfile(strings.NewReader(sampleProfile))
	if err != nil {
		t.Fatal(err)
	}
	// oracle is at 60%: an 85% floor must fail, a 50% floor must pass.
	lines, ok := gate(cov, []floor{{"netseer/internal/oracle", 85}, {"netseer/internal/groupcache", 85}})
	if ok {
		t.Errorf("gate passed with oracle at 60%%: %q", lines)
	}
	if !strings.Contains(strings.Join(lines, "\n"), "FAIL netseer/internal/oracle") {
		t.Errorf("failure does not name the offending package: %q", lines)
	}
	if _, ok := gate(cov, []floor{{"netseer/internal/oracle", 50}, {"netseer/internal/groupcache", 100}}); !ok {
		t.Error("gate failed with every package at or above its own floor")
	}
}

// TestGateMissByRoundingReadsAsOne: 48 of 49 statements is below a 98
// floor, and the line says so in figures that are below it too.
func TestGateMissByRoundingReadsAsOne(t *testing.T) {
	lines, ok := gate(map[string]*pkgCov{"f.go": {total: 49, covered: 48}}, []floor{{"f.go", 98}})
	if ok || len(lines) != 1 || !strings.Contains(lines[0], "97.96%") {
		t.Errorf("gate = %v, %q; want a failure at 97.96%%", ok, lines)
	}
}

func TestGateFailsOnMissingPackage(t *testing.T) {
	cov, err := parseProfile(strings.NewReader(sampleProfile))
	if err != nil {
		t.Fatal(err)
	}
	lines, ok := gate(cov, []floor{{"netseer/internal/nosuchpkg", 1}})
	if ok {
		t.Errorf("gate passed for a package with no profile data: %q", lines)
	}
}

func TestParseFloors(t *testing.T) {
	floors, err := parseFloors(strings.NewReader("# comment\n\nnetseer/internal/sim 85\nnetseer/internal/collector/store.go 95\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := []floor{{"netseer/internal/sim", 85}, {"netseer/internal/collector/store.go", 95}}
	if len(floors) != 2 || floors[0] != want[0] || floors[1] != want[1] {
		t.Errorf("parseFloors = %+v, want %+v", floors, want)
	}
	for _, bad := range []string{"", "# only a comment\n", "netseer/internal/sim\n", "netseer/internal/sim 85 90\n", "netseer/internal/sim high\n", "netseer/internal/sim 185\n"} {
		if _, err := parseFloors(strings.NewReader(bad)); err == nil {
			t.Errorf("parseFloors accepted %q", bad)
		}
	}
}
