// Command ecmgen writes a synthetic event stream as CSV ("key,tick" or
// "key,tick,site"), in the wc'98-like / snmp-like shapes of the experiment
// harness or fully custom. The output feeds ecmserve's /v1/batch endpoint
// or any offline analysis.
//
// Usage:
//
//	ecmgen -preset wc98 -events 100000 > stream.csv
//	ecmgen -events 50000 -keys 4096 -skew 1.2 -sites 8 -duration 500000 -with-site
//	curl --data-binary @stream.csv http://localhost:8080/v1/batch
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"ecmsketch/internal/workload"
)

// options is what the flags set: the generator's configuration plus the
// preset and output format.
type options struct {
	preset, keyFmt string
	withSite       bool
	cfg            workload.Config
}

// registerFlags declares every flag of the binary on fs; testdata/surface.golden
// pins the set.
func registerFlags(fs *flag.FlagSet) *options {
	o := new(options)
	fs.StringVar(&o.preset, "preset", "", "wc98 | snmp | empty for custom")
	fs.IntVar(&o.cfg.Events, "events", 100000, "stream length")
	fs.Uint64Var(&o.cfg.Duration, "duration", 2_000_000, "tick span")
	fs.IntVar(&o.cfg.KeyDomain, "keys", 1<<15, "key domain size (custom preset)")
	fs.Float64Var(&o.cfg.Skew, "skew", 1.0, "Zipf exponent of key popularity (custom)")
	fs.IntVar(&o.cfg.Sites, "sites", 1, "number of sites (custom)")
	fs.Float64Var(&o.cfg.SiteSkew, "site-skew", 0, "Zipf exponent of site load (custom)")
	fs.BoolVar(&o.cfg.Diurnal, "diurnal", false, "sinusoidal arrival-rate modulation (custom)")
	fs.Int64Var(&o.cfg.Seed, "seed", 1, "random seed")
	fs.BoolVar(&o.withSite, "with-site", false, "emit key,tick,site instead of key,tick")
	fs.StringVar(&o.keyFmt, "key-format", "k%d", "printf format turning the key rank into the emitted key")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	gen, err := build(o.preset, o.cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecmgen:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, gen, o.withSite, o.keyFmt); err != nil {
		fmt.Fprintln(os.Stderr, "ecmgen:", err)
		os.Exit(1)
	}
}

// build makes the generator: a preset at c's length, span and seed, or c as
// given.
func build(preset string, c workload.Config) (*workload.Generator, error) {
	switch preset {
	case "wc98":
		return workload.WorldCup98Like(c.Events, c.Duration, c.Seed)
	case "snmp":
		return workload.SNMPLike(c.Events, c.Duration, c.Seed)
	case "":
		return workload.NewGenerator(c)
	default:
		return nil, fmt.Errorf("unknown preset %q (want wc98, snmp or empty)", preset)
	}
}

func emit(w io.Writer, gen *workload.Generator, withSite bool, keyFmt string) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	for {
		ev, ok := gen.Next()
		if !ok {
			break
		}
		var err error
		if withSite {
			_, err = fmt.Fprintf(bw, keyFmt+",%d,%d\n", ev.Key, ev.Time, ev.Site)
		} else {
			_, err = fmt.Fprintf(bw, keyFmt+",%d\n", ev.Key, ev.Time)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}
