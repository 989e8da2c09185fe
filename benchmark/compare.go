package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// verdict is the comparator's judgement of one metric's change.
type verdict string

const (
	verdictUnchanged  verdict = "unchanged"
	verdictUnresolved verdict = "unresolved" // the change is inside the measured spread
	verdictImproved   verdict = "improved"
	verdictWorse      verdict = "worse" // worse by more than the spread, within the bound
	verdictRegressed  verdict = "regressed"
)

// judge classifies the move of a metric from old to new. worsening is the
// relative change in the metric's bad direction. A change no larger than
// the wider of the two runs' measured spreads is unresolved rather than
// unchanged: the runs cannot tell it from noise. Only a metric with a
// bound can regress.
func judge(d metricDef, old, new measurement) (worsening float64, v verdict) {
	if old.Value == new.Value {
		return 0, verdictUnchanged
	}
	if old.Value == 0 {
		return math.Inf(1), verdictUnresolved
	}
	worsening = (new.Value - old.Value) / math.Abs(old.Value)
	if d.HigherBetter {
		worsening = -worsening
	}
	switch spread := math.Max(old.Spread, new.Spread); {
	case math.Abs(worsening) <= spread:
		return worsening, verdictUnresolved
	case worsening < 0:
		return worsening, verdictImproved
	case d.Bound > 0 && worsening > d.Bound:
		return worsening, verdictRegressed
	default:
		return worsening, verdictWorse
	}
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// compareFiles joins two result files on workload and metric, prints each
// side's value, the relative change in the bad direction, the bound and
// the verdict, and returns 1 when an end-to-end metric regressed.
func compareFiles(oldPath, newPath string, stdout, stderr io.Writer) int {
	oldFile, err := readResults(oldPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	newFile, err := readResults(newPath)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	regressed := 0
	fmt.Fprintf(stdout, "%-16s %-34s %14s %14s %9s %6s  %s\n", "workload", "metric", "old", "new", "worse by", "bound", "verdict")
	for _, w := range workloads {
		o, n := oldFile.Workloads[w.Name], newFile.Workloads[w.Name]
		if o == nil || n == nil {
			continue
		}
		regressed += compareRuns(stdout, w.Name, endToEnd, o.EndToEnd, n.EndToEnd)
		compareRuns(stdout, w.Name, perLayer, o.PerLayer, n.PerLayer)
	}
	if regressed > 0 {
		fmt.Fprintf(stdout, "%d end-to-end metrics regressed past their bound\n", regressed)
		return 1
	}
	return 0
}

// compareRuns prints one row per metric both runs have and returns how
// many regressed.
func compareRuns(w io.Writer, workload string, defs []metricDef, o, n *runResult) (regressed int) {
	if o == nil || n == nil {
		return 0
	}
	for _, d := range defs {
		om, ok := o.Metrics[d.Name]
		nm, ok2 := n.Metrics[d.Name]
		if !ok || !ok2 {
			continue
		}
		worsening, v := judge(d, om, nm)
		bound := "-"
		if d.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", d.Bound*100)
		}
		fmt.Fprintf(w, "%-16s %-34s %14.4f %14.4f %+8.1f%% %6s  %s\n", workload, d.Name, om.Value, nm.Value, worsening*100, bound, v)
		if v == verdictRegressed {
			regressed++
		}
	}
	return regressed
}
