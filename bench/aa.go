package main

import (
	"fmt"
	"math"
)

// runAA is the A/A self-check: n alternating pairs of end-to-end passes of
// the same tree, labelled A and B, each pair on its own seed. For every
// (metric, workload) it prints both sets' medians and quartiles beside the
// bound, and fails when the two medians differ by more than the bound: the
// benchmark must not see a change where there is none. The spread column is
// the wider set's interquartile range over its median; with few passes per
// set the quartiles sit next to the extremes, so it informs and does not fail.
func runAA(r *rig, n int, seed int64, seconds float64) int {
	type key struct{ wl, metric string }
	vals := [2]map[key][]float64{{}, {}}
	correct := true
	for i := 0; i < n; i++ {
		order := [2]int{0, 1}
		if i%2 == 1 {
			order = [2]int{1, 0} // alternate which side runs first
		}
		for _, side := range order {
			fmt.Printf("aa pair=%d side=%c\n", i, 'A'+side)
			p, err := runPass(r, seed+int64(i), seconds, false)
			if err != nil {
				fmt.Println("bench:", err)
				return 1
			}
			correct = correct && p.correct
			for wl, set := range p.endToEnd {
				for name, s := range set {
					vals[side][key{wl, name}] = append(vals[side][key{wl, name}], s.value)
				}
			}
		}
	}
	fmt.Printf("\n| workload | metric | unit | median A | q1..q3 A | median B | q1..q3 B | spread | A/B diff | bound | verdict |\n|---|---|---|---|---|---|---|---|---|---|---|\n")
	failed := 0
	for _, wl := range workloads {
		for _, sp := range endToEnd {
			a, b := vals[0][key{wl.name, sp.name}], vals[1][key{wl.name, sp.name}]
			ma, mb := median(a), median(b)
			a1, a3 := quartiles(a)
			b1, b3 := quartiles(b)
			spread := math.Max((a3-a1)/ma, (b3-b1)/mb)
			diff := math.Abs(ma-mb) / ma
			verdict := "ok"
			if diff > sp.bound {
				verdict = "FAIL"
				failed++
			}
			fmt.Printf("| %s | %s | %s | %.5g | %.5g..%.5g | %.5g | %.5g..%.5g | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				wl.name, sp.name, sp.unit, ma, a1, a3, mb, b1, b3, 100*spread, 100*diff, 100*sp.bound, verdict)
		}
	}
	fmt.Printf("\naa pairs=%d failed=%d correct=%t\n", n, failed, correct)
	if failed > 0 || !correct {
		return 1
	}
	return 0
}
