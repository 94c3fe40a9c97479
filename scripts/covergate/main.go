// Command covergate parses a Go -coverprofile and fails if the statement
// coverage of any package or source file named in the floor table is
// below its floor. The table (floors.txt beside this file) is the only
// place a floor is written; `make cover` is the one caller:
//
//	go test -coverprofile=cover.out -coverpkg=./... ./...
//	go run ./scripts/covergate -profile cover.out -floors scripts/covergate/floors.txt
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"strconv"
	"strings"
)

// pkgCov accumulates statement counts for one package.
type pkgCov struct {
	total   int
	covered int
}

func (p pkgCov) percent() float64 {
	if p.total == 0 {
		return 0
	}
	return 100 * float64(p.covered) / float64(p.total)
}

// parseProfile reads a coverprofile and returns statement coverage per
// package and per file, keyed by import path (".../pkg", ".../pkg/x.go"). Profile lines look like:
//
//	netseer/internal/oracle/checkers.go:186.44,190.3 2 1
//
// i.e. file:startLine.col,endLine.col numStatements hitCount. When several
// test binaries share one profile (go test pkgA pkgB -coverprofile=x with
// -coverpkg), the same block appears once per binary — usually hit in one
// section and zero in the others — so blocks are merged by location with
// their hit counts summed before any percentage is computed.
func parseProfile(r io.Reader) (map[string]*pkgCov, error) {
	type block struct {
		stmts int
		hits  int
	}
	blocks := make(map[string]*block)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "mode:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("covergate: malformed profile line %q", line)
		}
		if !strings.Contains(fields[0], ":") {
			return nil, fmt.Errorf("covergate: malformed location %q", fields[0])
		}
		stmts, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("covergate: bad statement count in %q: %v", line, err)
		}
		hits, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("covergate: bad hit count in %q: %v", line, err)
		}
		b := blocks[fields[0]]
		if b == nil {
			blocks[fields[0]] = &block{stmts: stmts, hits: hits}
		} else {
			b.hits += hits
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	out := make(map[string]*pkgCov)
	for loc, b := range blocks {
		file, _, _ := strings.Cut(loc, ":")
		// Counted under the package and under the file, so a gate can
		// name either.
		for _, name := range []string{path.Dir(file), file} {
			pc := out[name]
			if pc == nil {
				pc = &pkgCov{}
				out[name] = pc
			}
			pc.total += b.stmts
			if b.hits > 0 {
				pc.covered += b.stmts
			}
		}
	}
	return out, nil
}

// floor is one row of the floor table: a package or file import path and
// the minimum statement coverage percent it must keep.
type floor struct {
	name string
	min  float64
}

// parseFloors reads the floor table: one "<package-or-file> <percent>" row
// per line; blank lines and lines starting with # are skipped.
func parseFloors(r io.Reader) ([]floor, error) {
	var floors []floor
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("covergate: malformed floor row %q", line)
		}
		min, err := strconv.ParseFloat(fields[1], 64)
		if err != nil || min < 0 || min > 100 {
			return nil, fmt.Errorf("covergate: bad floor in %q", line)
		}
		floors = append(floors, floor{name: fields[0], min: min})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(floors) == 0 {
		return nil, fmt.Errorf("covergate: floor table is empty")
	}
	return floors, nil
}

// gate checks every row of the floor table, returning one line per row
// and whether all passed. Names absent from the profile fail (no data
// means no coverage).
func gate(cov map[string]*pkgCov, floors []floor) (lines []string, ok bool) {
	ok = true
	for _, f := range floors {
		pc := cov[f.name]
		if pc == nil {
			lines = append(lines, fmt.Sprintf("FAIL %s: no coverage data in profile", f.name))
			ok = false
			continue
		}
		pct := pc.percent()
		if pct < f.min {
			lines = append(lines, fmt.Sprintf("FAIL %s: %.1f%% statement coverage, floor %.0f%%", f.name, pct, f.min))
			ok = false
		} else {
			lines = append(lines, fmt.Sprintf("ok   %s: %.1f%% statement coverage (floor %.0f%%)", f.name, pct, f.min))
		}
	}
	return lines, ok
}

func main() {
	profile := flag.String("profile", "cover.out", "coverprofile to parse")
	table := flag.String("floors", "scripts/covergate/floors.txt", "floor table: one \"<package-or-file> <percent>\" row per line")
	flag.Parse()

	tf, err := os.Open(*table)
	if err != nil {
		fmt.Fprintln(os.Stderr, "covergate:", err)
		os.Exit(2)
	}
	floors, err := parseFloors(tf)
	tf.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	f, err := os.Open(*profile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "covergate:", err)
		os.Exit(1)
	}
	defer f.Close()
	cov, err := parseProfile(f)
	if err != nil {
		fmt.Fprintln(os.Stderr, "covergate:", err)
		os.Exit(1)
	}
	lines, ok := gate(cov, floors)
	for _, l := range lines {
		fmt.Println(l)
	}
	if !ok {
		os.Exit(1)
	}
}
