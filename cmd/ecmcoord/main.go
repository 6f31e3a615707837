// Command ecmcoord is the coordinator half of an ecmserve deployment: it
// pulls every site's frozen snapshot (GET /v1/snapshot), aggregates them
// over the shared coordinator core — the same balanced-binary-tree merge
// path the in-process simulation uses, so the merged summary is
// bit-identical to what a single-process deployment of the same event log
// computes — and answers queries about the global stream.
//
// One-shot mode answers a single query and exits:
//
//	ecmcoord -sites http://a:8080,http://b:8080 -key /index.html -range 3600000
//	ecmcoord -sites ... -selfjoin -range 3600000
//	ecmcoord -sites ... -total               # ||a||_1 of the whole window
//	ecmcoord -sites ... -out merged.sketch   # persist the merged summary
//
// Server mode re-pulls the sites on an interval and serves the read side of
// the /v1 API (package ecmserver, the server a site runs) over the merged
// sketch, making the coordinator itself a queryable — and pullable — site,
// so coordinators stack hierarchically:
//
//	ecmcoord -sites http://a:8080,http://b:8080 -serve :9090 -interval 5s
//
// Server-mode re-pulls are incremental: the coordinator presents each site
// the cursor from its previous pull and receives only the stripes and cells
// that changed since (falling back to a full pull transparently whenever a
// site restarts or invalidates the cursor), patches exactly those cells of
// one persistent merged root, and serves cursor deltas of that root upward.
// Unreachable sites keep contributing their retained baseline and re-enter
// through exponential-backoff probes.
package main

import (
	"crypto/x509"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"ecmsketch"
	"ecmsketch/ecmserver"
)

func main() {
	var (
		sites     = flag.String("sites", "", "comma-separated site base URLs")
		key       = flag.String("key", "", "string key to point-query")
		ikey      = flag.Uint64("ikey", 0, "integer key to point-query (when key is empty)")
		useIKey   = flag.Bool("use-ikey", false, "query -ikey instead of -key")
		rng       = flag.Uint64("range", 0, "query range in ticks (0 = whole window)")
		selfjoin  = flag.Bool("selfjoin", false, "answer a self-join query")
		total     = flag.Bool("total", false, "estimate total arrivals in range")
		out       = flag.String("out", "", "write the merged sketch to this file")
		timeout   = flag.Duration("timeout", 10*time.Second, "per-site HTTP timeout")
		serve     = flag.String("serve", "", "serve the /v1 query API over the merged sketch on this address instead of exiting")
		interval  = flag.Duration("interval", 10*time.Second, "site re-pull period in server mode")
		token     = flag.String("token", "", "server mode: require this bearer token on the served API")
		siteToken = flag.String("site-token", "", "bearer token sent with every site pull (for sites started with -token)")
		tlsCert   = flag.String("tls-cert", "", "server mode: serve TLS with this certificate file (requires -tls-key)")
		tlsKey    = flag.String("tls-key", "", "server mode: private key file for -tls-cert")
		siteCA    = flag.String("site-ca", "", "PEM file of root CAs to trust when pulling https:// sites (default: system roots)")
		pprofOn   = flag.Bool("pprof", false, "server mode: mount net/http/pprof under /debug/pprof/ (behind -token auth when set)")
		dataDir   = flag.String("data-dir", "", "server mode: persist the merged root (with its delta-serving epoch) and dynamic membership under this directory; a restart keeps serving deltas to parents holding pre-restart cursors")
		snapIvl   = flag.Duration("snapshot-interval", time.Minute, "server mode: minimum period between merged-root persists (requires -data-dir)")
	)
	flag.Parse()
	urls := splitSites(*sites)
	if len(urls) == 0 && *serve == "" {
		fmt.Fprintln(os.Stderr, "ecmcoord: -sites is required")
		os.Exit(2)
	}
	client := newSiteClient(*timeout, *siteCA)
	co := newCoordinator(client, urls, *siteToken)
	if *serve != "" {
		if *interval <= 0 {
			fmt.Fprintln(os.Stderr, "ecmcoord: -interval must be positive in server mode")
			os.Exit(2)
		}
		cs, err := newCoordServer(co, *interval, ecmserver.Config{AuthToken: *token, EnableProfiling: *pprofOn})
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecmcoord:", err)
			os.Exit(1)
		}
		cs.siteClient = client
		cs.siteToken = *siteToken
		if *dataDir != "" {
			store, err := ecmsketch.NewFileStore(*dataDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ecmcoord: opening -data-dir:", err)
				os.Exit(1)
			}
			cs.enableDurability(store, *snapIvl)
		}
		runServe(cs, *serve, *tlsCert, *tlsKey)
		return
	}
	merged, height, err := co.AggregateTree()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecmcoord:", err)
		os.Exit(1)
	}
	fmt.Printf("merged %d site sketches over a height-%d tree (%d bytes pulled, global count %d, clock %d)\n",
		len(urls), height, co.PulledBytes(), merged.Count(), merged.Now())
	queryRange := *rng
	if queryRange == 0 {
		queryRange = merged.Params().WindowLength
	}
	switch {
	case *selfjoin:
		fmt.Printf("self-join over last %d ticks ≈ %.6g\n", queryRange, merged.SelfJoin(queryRange))
	case *total:
		fmt.Printf("total arrivals over last %d ticks ≈ %.0f\n", queryRange, merged.EstimateTotal(queryRange))
	case *useIKey:
		fmt.Printf("frequency of item %d over last %d ticks ≈ %.0f\n",
			*ikey, queryRange, merged.Estimate(*ikey, queryRange))
	case *key != "":
		fmt.Printf("frequency of %q over last %d ticks ≈ %.0f\n",
			*key, queryRange, merged.EstimateString(*key, queryRange))
	}
	if *out != "" {
		if err := os.WriteFile(*out, merged.Marshal(), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "ecmcoord: writing merged sketch:", err)
			os.Exit(1)
		}
		fmt.Printf("merged sketch written to %s\n", *out)
	}
}

// newSiteClient builds the pull client every site shares: one keep-alive
// transport (see ecmsketch.NewPullClient) with the per-site timeout, trusting
// the PEM roots in caFile — if any — instead of the system pool.
func newSiteClient(timeout time.Duration, caFile string) *http.Client {
	var roots *x509.CertPool
	if caFile != "" {
		pem, err := os.ReadFile(caFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecmcoord: reading -site-ca:", err)
			os.Exit(2)
		}
		roots = x509.NewCertPool()
		if !roots.AppendCertsFromPEM(pem) {
			fmt.Fprintf(os.Stderr, "ecmcoord: no certificates found in %s\n", caFile)
			os.Exit(2)
		}
	}
	return ecmsketch.NewPullClient(timeout, roots)
}

// newCoordinator builds the shared coordinator core over HTTP sites.
func newCoordinator(client *http.Client, siteURLs []string, siteToken string) *ecmsketch.Coordinator {
	sites := make([]ecmsketch.Site, len(siteURLs))
	for i, u := range siteURLs {
		sites[i] = ecmsketch.NewHTTPSiteWithAuth(u, client, siteToken)
	}
	return ecmsketch.NewCoordinator(sites...)
}

func splitSites(s string) []string {
	var out []string
	for _, u := range strings.Split(s, ",") {
		u = strings.TrimSpace(u)
		if u != "" {
			out = append(out, strings.TrimRight(u, "/"))
		}
	}
	return out
}

// PullAndMerge aggregates the sites' snapshots through the shared
// coordinator core and reports the snapshot payload bytes actually pulled
// (the aggregation-tree model's accounting, which also charges internal
// edges, stays on the coordinator's Network). Kept as the programmatic
// one-shot entry point (and for its tests); the CLI drives the same path
// via newCoordinator.
func PullAndMerge(client *http.Client, siteURLs []string) (*ecmsketch.Sketch, int, error) {
	co := newCoordinator(client, siteURLs, "")
	merged, _, err := co.AggregateTree()
	if err != nil {
		return nil, 0, err
	}
	return merged, int(co.PulledBytes()), nil
}
