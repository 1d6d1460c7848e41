// Command ntalint runs the repository's custom static-analysis suite
// (internal/lint): persistcheck, determcheck, publishcheck, and guardcheck.
// Usage:
//
//	ntalint [-c analyzer,analyzer] [packages]   (default ./...)
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/text-analytics/ntadoc/internal/lint"
)

func main() {
	selected := flag.String("c", "", "comma-separated analyzers to run (default: all)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: ntalint [-c analyzers] [packages]\n\nanalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	analyzers := lint.All()
	if *selected != "" {
		var err error
		analyzers, err = lint.ByName(*selected)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	pkgs, err := lint.Load(".", flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags, err := lint.Run(pkgs, analyzers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}
