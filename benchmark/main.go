// Command benchmark is the repository's ladder benchmark: four seeded
// workloads driven through the fixed ladder pmem arena → core → wire codec →
// server → replica quorum → client.RoutedSession, one schema, outputs
// verified. See README.md in this directory.
//
//	go run ./benchmark --workload write4k --seed 1 --seconds 20 --trace 0
//	go run ./benchmark --workload write4k --seed 1 --seconds 20 --trace 1 -trace-out trace.json
//	go run ./benchmark compare A.json B.json
//	go run ./benchmark manifest > BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			if len(os.Args) != 4 {
				fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
				os.Exit(2)
			}
			worse, err := compare(os.Stdout, os.Args[2], os.Args[3])
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark compare:", err)
				os.Exit(2)
			}
			if worse {
				os.Exit(1)
			}
			return
		case "manifest":
			os.Stdout.Write(manifestJSON())
			return
		}
	}

	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	workload := fs.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "seed of the op generator")
	seconds := fs.Float64("seconds", runSeconds, "how long the run measures")
	trace := fs.Int("trace", 0, "0: end-to-end run, nothing decorated; 1: traced run for the per-layer metrics")
	out := fs.String("out", "", "append the run's ledger to the JSON array in this file")
	traceOut := fs.String("trace-out", "", "with --trace 1: write the cluster point's spans here as Chrome trace JSON")
	fs.Parse(os.Args[1:])
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fs.Usage()
		os.Exit(2)
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
		sc: fullScale, setupReps: 3, traceOut: *traceOut}

	led, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *out != "" {
		if err := appendLedger(*out, led); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
	}
	doc, err := json.Marshal(led)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	// The ledger first, the driver's result object as the last line.
	fmt.Printf("%s\n%s\n", doc, led.contractLine())
	for _, e := range led.Errors {
		fmt.Fprintln(os.Stderr, "benchmark: incorrect:", e)
	}
	if !led.Correct {
		os.Exit(1)
	}
}

// execute runs one invocation and returns its ledger. An error means the run
// could not be made at all; wrong outputs are in the ledger.
func execute(cfg runConfig) (*ledger, error) {
	r, err := newRun(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		err = r.tracedRun()
	} else {
		err = r.endToEnd()
	}
	if err != nil {
		return nil, err
	}
	return r.led, nil
}
