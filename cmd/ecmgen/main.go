// Command ecmgen writes a synthetic event stream as the JSON array
// ecmserve's POST /v1/events reads, one element per line
// ({"key":"k17","t":123}, plus "site":3 under -with-site, which the server
// skips as an unknown member), in the wc'98-like / snmp-like shapes of the
// experiment harness or fully custom.
//
// Usage:
//
//	ecmgen -preset wc98 -events 100000 > stream.json
//	ecmgen -events 50000 -keys 4096 -skew 1.2 -sites 8 -duration 500000 -with-site
//	curl --data-binary @stream.json http://localhost:8080/v1/events
package main

import (
	"bufio"
	"encoding/json"
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
	fs.BoolVar(&o.withSite, "with-site", false, "add each event's \"site\" member")
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

// emit writes gen's stream as a /v1/events body. keyFmt is user input, so
// each key goes through encoding/json's string encoding. A failed write
// sticks to bw, so checking WriteByte and Flush catches every one.
func emit(w io.Writer, gen *workload.Generator, withSite bool, keyFmt string) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	sep := "["
	for {
		ev, ok := gen.Next()
		if !ok {
			break
		}
		key, err := json.Marshal(fmt.Sprintf(keyFmt, ev.Key))
		if err != nil {
			return err
		}
		fmt.Fprintf(bw, "%s\n{\"key\":%s,\"t\":%d", sep, key, ev.Time)
		if withSite {
			fmt.Fprintf(bw, ",\"site\":%d", ev.Site)
		}
		if err := bw.WriteByte('}'); err != nil {
			return err
		}
		sep = ","
	}
	if sep == "[" {
		bw.WriteString("[]\n")
	} else {
		bw.WriteString("\n]\n")
	}
	return bw.Flush()
}
