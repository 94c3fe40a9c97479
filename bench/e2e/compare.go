package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
)

// compareSets reads the untraced result files of two directories and
// prints, per workload and end-to-end metric, each side's median and
// quartiles and a verdict against the bounds in boundsFile:
//
//	same        B's median is within the bound of A's
//	worse       B's median is worse than A's by more than the bound
//	unresolved  a side's own spread (Q3−Q1 over its median) exceeds the bound
//
// A workload neither directory has results for is left out. Two sets
// whose WAL directories sat on different filesystems are refused: an
// fsync costs nothing on tmpfs, so their ingest numbers are not the same
// measurement. It returns 0 only if every pair is "same".
func compareSets(dirA, dirB, boundsFile string, out, errw io.Writer) int {
	defs, err := readBounds(boundsFile)
	if err != nil {
		fmt.Fprintln(errw, "e2e:", err)
		return 2
	}
	a, fsA, err := readSet(dirA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("no result-*.json files in %s", dirA)
	}
	var b map[string]map[string][]float64
	var fsB []string
	if err == nil {
		b, fsB, err = readSet(dirB)
	}
	if err == nil && (len(fsA) != 1 || len(fsB) != 1 || fsA[0] != fsB[0]) {
		err = fmt.Errorf("the WAL directories of the two sets sat on different filesystems (A: %v, B: %v); not comparable", fsA, fsB)
	}
	if err != nil {
		fmt.Fprintln(errw, "e2e:", err)
		return 2
	}
	fmt.Fprintf(out, "%-12s %-13s %5s | %12s %12s %12s | %12s %12s %12s | %7s %7s  %s\n",
		"workload", "metric", "bound", "A q1", "A median", "A q3", "B q1", "B median", "B q3", "A sprd", "B sprd", "verdict")
	code := 0
	for _, wl := range workloadNames {
		if a[wl] == nil && b[wl] == nil {
			continue
		}
		for _, d := range defs {
			va, vb := a[wl][d.Name], b[wl][d.Name]
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(out, "%-12s %-13s needs at least two runs a side (A has %d, B has %d)\n", wl, d.Name, len(va), len(vb))
				code = 1
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			sa, sb := (a3-a1)/a2, (b3-b1)/b2
			worse := (b2 - a2) / a2
			if d.Better == "higher" {
				worse = -worse
			}
			verdict := "same"
			switch {
			case sa > d.Bound || sb > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "worse"
			}
			if verdict != "same" {
				code = 1
			}
			fmt.Fprintf(out, "%-12s %-13s %5.2f | %12.4f %12.4f %12.4f | %12.4f %12.4f %12.4f | %6.2f%% %6.2f%%  %s (B worse by %+.2f%%)\n",
				wl, d.Name, d.Bound, a1, a2, a3, b1, b2, b3, sa*100, sb*100, verdict, worse*100)
		}
	}
	return code
}

func readBounds(path string) ([]metricDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []metricDef `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return doc.EndToEnd, nil
}

// readSet collects workload → metric → one value per result file, and the
// distinct WAL filesystems the files name.
func readSet(dir string) (map[string]map[string][]float64, []string, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "result-*.json"))
	if err != nil {
		return nil, nil, err
	}
	set := map[string]map[string][]float64{}
	var fss []string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, nil, err
		}
		var rep report
		if err := json.Unmarshal(data, &rep); err != nil {
			return nil, nil, fmt.Errorf("%s: %w", p, err)
		}
		if !slices.Contains(fss, rep.WALFS) {
			fss = append(fss, rep.WALFS)
		}
		if set[rep.Workload] == nil {
			set[rep.Workload] = map[string][]float64{}
		}
		for name, m := range rep.Metrics {
			set[rep.Workload][name] = append(set[rep.Workload][name], m.Value)
		}
	}
	return set, fss, nil
}
