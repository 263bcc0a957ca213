// Command mcc is the consolidated CLI of the workbench: one binary whose
// subcommands (run, bench, sim, proto, viz, list) all parse and emit the same
// declarative scenario spec. See `mcc help` and the README's "Scenario files"
// section.
//
// Examples:
//
//	mcc run -spec specs/smoke.json -workers 8
//	mcc run -measure absorption -dim 10 -faults 10,50,100
//	mcc run -spec specs/e2.json -csv
//	mcc bench -json BENCH_traffic.json
//	mcc list
package main

import (
	"os"

	"mccmesh/internal/cli"
)

func main() { os.Exit(cli.Main(os.Args[1:])) }
