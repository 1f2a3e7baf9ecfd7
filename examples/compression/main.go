// Compression: the paper's hardware-software co-design study (section
// 5.3). Near-term devices cannot afford three ancilla tiles per data
// qubit; this example sweeps grid compression from the full STAR layout
// down to one ancilla per data qubit and shows that the static baselines
// crater while RESCQ degrades gracefully. rescq.Run shares its seeded-run
// step (and compression seeds) with the experiment drivers, so each point
// equals the gcm_n13 panel of the full Figure 14 sweep
// (`rescq-bench -exp fig14`).
package main

import (
	"fmt"
	"log"

	rescq "repro"
)

func main() {
	const bench = "gcm_n13"
	schedulers := []rescq.SchedulerKind{rescq.Greedy, rescq.AutoBraid, rescq.RESCQ}
	compressions := []float64{0, 0.25, 0.5, 0.75, 1.0}

	fmt.Printf("Grid compression study on %s (d=7, p=1e-4, 3 seeds per point)\n\n", bench)
	fmt.Printf("%-12s", "compression")
	for _, s := range schedulers {
		fmt.Printf("  %10s", s)
	}
	fmt.Printf("  %12s\n", "RESCQ gain")

	for _, c := range compressions {
		means := map[rescq.SchedulerKind]float64{}
		for _, s := range schedulers {
			sum, err := rescq.Run(bench, rescq.Options{
				Scheduler:   s,
				Compression: c,
			})
			if err != nil {
				log.Fatal(err)
			}
			means[s] = sum.MeanCycles
		}
		fmt.Printf("%10.0f%%", 100*c)
		for _, s := range schedulers {
			fmt.Printf("  %10.0f", means[s])
		}
		fmt.Printf("  %11.2fx\n", means[rescq.Greedy]/means[rescq.RESCQ])
	}

	fmt.Println("\nExpected shape (paper Figure 14): baseline cycles grow steeply with")
	fmt.Println("compression; RESCQ's realtime queues absorb most of the contention,")
	fmt.Println("keeping an average >1.65x advantage even at one ancilla per data qubit.")
}
