// Command hjplot renders an experiment's first series as ASCII bar
// charts, a quick visual check of the curve shapes the paper reports
// (concave tuning curves, crossovers, flattening elapsed times).
//
// Usage:
//
//	hjplot -fig fig12 [-scale tiny]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"hashjoin/internal/cli"
	"hashjoin/internal/exp"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its edges injected, so the flag-validation table
// test can drive it. Every flag is validated strictly: an unknown
// experiment, scale, or a nonsensical width fails with the usage exit
// code and a message naming the accepted values — it never falls
// through to a default or a render panic.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hjplot", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig   = fs.String("fig", "", "experiment id (see hjbench -list)")
		scale = fs.String("scale", "tiny", "scale: tiny, small, or full")
		width = fs.Int("width", 60, "max bar width in characters (1..400)")
	)
	if err := fs.Parse(args); err != nil {
		return cli.ExitUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "hjplot: unexpected arguments: %v\n", fs.Args())
		return cli.ExitUsage
	}
	if *fig == "" {
		fmt.Fprintf(stderr, "hjplot: -fig is required (one of %s)\n", strings.Join(exp.IDs(), ", "))
		return cli.ExitUsage
	}
	if *width < 1 || *width > 400 {
		fmt.Fprintf(stderr, "hjplot: -width %d out of range [1, 400]\n", *width)
		return cli.ExitUsage
	}
	sc, ok := exp.ByName(*scale)
	if !ok {
		fmt.Fprintf(stderr, "hjplot: unknown scale %q (accepted: tiny, small, full)\n", *scale)
		return cli.ExitUsage
	}
	e, ok := exp.Lookup(strings.ToLower(*fig))
	if !ok {
		fmt.Fprintf(stderr, "hjplot: unknown experiment %q (accepted: %s)\n", *fig, strings.Join(exp.IDs(), ", "))
		return cli.ExitUsage
	}
	for _, t := range e.Run(sc) {
		plot(stdout, t, *width)
	}
	return cli.ExitOK
}

func plot(w io.Writer, t *exp.Table, width int) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	for col, name := range t.Columns {
		maxV := 0.0
		for _, r := range t.Rows {
			if r.Values[col] > maxV {
				maxV = r.Values[col]
			}
		}
		if maxV <= 0 {
			continue
		}
		fmt.Fprintf(w, "-- %s --\n", name)
		for _, r := range t.Rows {
			n := int(r.Values[col] / maxV * float64(width))
			fmt.Fprintf(w, "%10s | %-*s %8.2f\n", r.Label, width, strings.Repeat("#", n), r.Values[col])
		}
	}
	fmt.Fprintln(w)
}
