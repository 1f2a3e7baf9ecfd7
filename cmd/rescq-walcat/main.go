// Command rescq-walcat prints the records of rescqd's write-ahead log
// files as JSON lines, one record per line in file order, for debugging.
// It reads binary logs and snapshots as well as JSON-era logs, and never
// writes to them, so it is safe to run on a live daemon's store.
//
// Usage:
//
//	rescq-walcat /var/lib/rescqd/wal.snap /var/lib/rescqd/wal.jsonl
//	rescq-walcat /var/lib/rescqd/wal.jsonl | jq -c 'select(.type == "done")'
//
// The output is itself a valid JSON-era log: typed result payloads print
// as the JSON the result had before it was encoded. A torn or corrupt
// tail is reported on stderr after the records before it, with exit
// status 1.
package main

import (
	"fmt"
	"io"
	"os"

	"repro/internal/resultcodec"
	"repro/internal/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dumps each named file in turn and returns the exit status.
func run(paths []string, stdout, stderr io.Writer) int {
	if len(paths) == 0 {
		fmt.Fprintln(stderr, "usage: rescq-walcat <file>...")
		return 2
	}
	status := 0
	for _, path := range paths {
		if err := dump(path, stdout); err != nil {
			fmt.Fprintf(stderr, "rescq-walcat: %s: %v\n", path, err)
			status = 1
		}
	}
	return status
}

func dump(path string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return store.Dump(f, w, resultcodec.JSON)
}
