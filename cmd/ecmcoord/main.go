// Command ecmcoord is the coordinator half of an ecmserve deployment: it
// pulls its sites' summaries on an interval, keeps one merged root patched
// from what changed, and serves the read side of the /v1 API (package
// ecmserver, the server a site runs) over it — so a coordinator is itself a
// queryable, pullable site and coordinators stack hierarchically:
//
//	ecmcoord -sites http://a:8080,http://b:8080 -serve :9090 -interval 5s
//
// That is its only mode. One answer is one request to the running
// coordinator, one merged summary on disk is one download:
//
//	curl 'http://localhost:9090/v1/query?key=/index.html&range=3600000'
//	curl 'http://localhost:9090/v1/query?selfJoin=1&total=1'
//	curl -o merged.sketch http://localhost:9090/v1/snapshot
//
// Pulls are incremental: the coordinator presents each site the cursor from
// its previous pull and receives only the stripes and cells that changed
// since (falling back to a full pull transparently whenever a site restarts
// or invalidates the cursor), patches exactly those cells of the root, and
// serves cursor deltas of that root upward. Unreachable sites keep
// contributing their retained baseline and re-enter through
// exponential-backoff probes. docs/operations.md has the deployment guide.
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

// options is what the flags set.
type options struct {
	sites, serve, token, siteToken, tlsCert, tlsKey, siteCA, dataDir string
	pprofOn                                                          bool
	timeout, interval, snapIvl                                       time.Duration
}

// registerFlags declares every flag of the binary on fs; testdata/surface.golden
// pins the set.
func registerFlags(fs *flag.FlagSet) *options {
	o := new(options)
	fs.StringVar(&o.sites, "sites", "", "comma-separated site base URLs (more can register at runtime: POST /v1/sites)")
	fs.StringVar(&o.serve, "serve", ":9090", "listen address of the /v1 read API over the merged view")
	fs.DurationVar(&o.interval, "interval", 10*time.Second, "site re-pull period")
	fs.DurationVar(&o.timeout, "timeout", 10*time.Second, "per-site HTTP timeout")
	fs.StringVar(&o.token, "token", "", "require this bearer token on the served API")
	fs.StringVar(&o.siteToken, "site-token", "", "bearer token sent with every site pull (for sites started with -token)")
	fs.StringVar(&o.tlsCert, "tls-cert", "", "serve TLS with this certificate file (requires -tls-key)")
	fs.StringVar(&o.tlsKey, "tls-key", "", "private key file for -tls-cert")
	fs.StringVar(&o.siteCA, "site-ca", "", "PEM file of root CAs to trust when pulling https:// sites (default: system roots)")
	fs.BoolVar(&o.pprofOn, "pprof", false, "mount net/http/pprof under /debug/pprof/ (behind -token auth when set)")
	fs.StringVar(&o.dataDir, "data-dir", "", "persist the merged root (with its delta-serving epoch) and dynamic membership under this directory; a restart keeps serving deltas to parents holding pre-restart cursors")
	fs.DurationVar(&o.snapIvl, "snapshot-interval", time.Minute, "minimum period between merged-root persists (requires -data-dir)")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	if o.interval <= 0 {
		fmt.Fprintln(os.Stderr, "ecmcoord: -interval must be positive")
		os.Exit(2)
	}
	client := newSiteClient(o.timeout, o.siteCA)
	co := newCoordinator(client, splitSites(o.sites), o.siteToken)
	cs, err := newCoordServer(co, o.interval, ecmserver.Config{AuthToken: o.token, EnableProfiling: o.pprofOn})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecmcoord:", err)
		os.Exit(1)
	}
	cs.siteClient = client
	cs.siteToken = o.siteToken
	if o.dataDir != "" {
		store, err := ecmsketch.NewFileStore(o.dataDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ecmcoord: opening -data-dir:", err)
			os.Exit(1)
		}
		cs.enableDurability(store, o.snapIvl)
	}
	runServe(cs, o.serve, o.tlsCert, o.tlsKey)
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
