// Quickstart: simulate one benchmark under all three schedulers and under
// a hand-written circuit, using only the public rescq API.
package main

import (
	"fmt"
	"log"

	rescq "repro"
)

func main() {
	// 1. Pick a benchmark from the paper's Table 3 suite.
	fmt.Println("Available benchmarks (first five):")
	for _, b := range rescq.Benchmarks()[:5] {
		fmt.Printf("  %-14s %-7s %4d qubits, %4d Rz, %4d CNOT\n",
			b.Name, b.Suite, b.Qubits, b.PaperRz, b.PaperCNOT)
	}

	// 2. Run it under each scheduler at the paper's operating point
	//    (d=7, p=1e-4).
	const bench = "gcm_n13"
	fmt.Printf("\n%s, d=7, p=1e-4, 3 seeds:\n", bench)
	var baseline float64
	for _, s := range []rescq.SchedulerKind{rescq.Greedy, rescq.AutoBraid, rescq.RESCQ} {
		sum, err := rescq.Run(bench, rescq.Options{Scheduler: s})
		if err != nil {
			log.Fatal(err)
		}
		if s == rescq.Greedy {
			baseline = sum.MeanCycles
		}
		fmt.Printf("  %-9s mean=%7.0f cycles  (min %d, max %d)  idle=%.2f  speedup vs greedy: %.2fx\n",
			s, sum.MeanCycles, sum.MinCycles, sum.MaxCycles, sum.MeanIdle,
			baseline/sum.MeanCycles)
	}

	// 3. Run a hand-written Clifford+Rz circuit in the artifact's text
	//    format: gate count first, then one gate per line.
	circuit := `qubits 4
6
h 0
cx 0 1
rz 1 pi/3
cx 1 2
rz 2 5/96
cx 2 3
`
	sum, err := rescq.RunCircuitText("ghz-with-rotations", circuit, rescq.Options{
		Scheduler: rescq.RESCQ,
		Runs:      5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhand-written circuit: mean=%.1f cycles over %d seeds (Rz latencies of run 0: %v)\n",
		sum.MeanCycles, len(sum.Runs), sum.Runs[0].RzLatencies)

	// 4. Topology sensitivity: the lattice layout is a first-class axis.
	//    "star" is the paper's grid (and the default), "linear" stretches
	//    the qubits along one row, "compact" strips the STAR grid down to
	//    about one ancilla per data qubit. See rescq.LayoutCatalog() for
	//    every layout with its description and params.
	fmt.Printf("\n%s under rescq on each built-in layout:\n", bench)
	for _, layout := range []string{"star", "linear", "compact"} {
		sum, err := rescq.Run(bench, rescq.Options{Layout: layout})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s mean=%7.0f cycles  idle=%.2f\n", layout, sum.MeanCycles, sum.MeanIdle)
	}
}
