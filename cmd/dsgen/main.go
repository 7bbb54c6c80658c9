// Command dsgen writes a synthetic transaction dataset in the FIMI text
// format (one transaction per line, space-separated item ids), using the
// Table-1-calibrated generators of the dataset package.
//
//	dsgen -profile Kosarak -scale 0.1 -seed 7 -o kosarak-small.dat
//
// The produced files feed cmd/svttop or any standard frequent-itemset-mining
// tool.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/dpgo/svt/dataset"
)

func main() {
	var (
		profile = flag.String("profile", "Zipf", "profile: BMS-POS, Kosarak, AOL, Zipf")
		scale   = flag.Float64("scale", 0.1, "scale in (0,1]; 1 = exact Table 1 size")
		seed    = flag.Uint64("seed", 1, "generation seed (non-zero)")
		out     = flag.String("o", "", "output path (default stdout)")
	)
	flag.Parse()
	if err := run(*profile, *scale, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "dsgen:", err)
		os.Exit(1)
	}
}

func run(profile string, scale float64, seed uint64, out string) error {
	p, err := dataset.ProfileByName(profile)
	if err != nil {
		return err
	}
	if seed == 0 {
		return fmt.Errorf("seed must be non-zero for reproducible generation")
	}
	store, err := dataset.Generate(p, scale, seed)
	if err != nil {
		return err
	}
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer func() {
			if cerr := f.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		w = f
	}
	n, err := store.WriteTo(w)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dsgen: wrote %d transactions (%d bytes) for %s at scale %g\n",
		store.NumRecords(), n, p.Name, scale)
	return nil
}
