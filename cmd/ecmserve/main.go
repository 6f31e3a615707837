// Command ecmserve runs one node of a deployment behind the versioned HTTP
// API of package ecmserver. By default the node is a site: a sharded
// ECM-sketch engine that collectors POST arrivals to and coordinators pull:
//
//	ecmserve -addr :8080 -epsilon 0.02 -delta 0.01 -window 3600000 -shards 8
//
// With -sites it is a coordinator: it delta-pulls those sites every
// -interval, keeps one merged root patched from what changed, and serves
// the read side of the same API over it, so coordinators stack into
// hierarchies (-sites "" starts one with no members yet, for POST
// /v1/sites to fill):
//
//	ecmserve -sites http://a:8080,http://b:8080 -addr :9090 -interval 5s
//
// testdata/surface.golden lists every route and flag; cmd/ecmgen writes
// /v1/events bodies; package ecmclient is the typed Go client.
// docs/operations.md has the deployment guide.
package main

import (
	"crypto/x509"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"ecmsketch"
	"ecmsketch/ecmserver"
)

// options is what the flags set: the server configuration, the listener's
// own three values, and a coordinator's site list and pull-client inputs.
type options struct {
	addr, tlsCert, tlsKey string
	sites, siteCA         string
	timeout               time.Duration
	coordinator           bool // -sites was given, even empty
	cfg                   ecmserver.Config
}

// registerFlags declares every flag of the binary on fs; testdata/surface.golden
// pins the set.
func registerFlags(fs *flag.FlagSet) *options {
	o := new(options)
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.Float64Var(&o.cfg.Epsilon, "epsilon", 0.02, "total error budget")
	fs.Float64Var(&o.cfg.Delta, "delta", 0.01, "failure probability")
	fs.Uint64Var(&o.cfg.WindowLength, "window", 3_600_000, "window length in ticks")
	fs.StringVar(&o.cfg.Algorithm, "algo", "eh", "counter algorithm: eh|dw")
	fs.Uint64Var(&o.cfg.UpperBound, "ubound", 0, "u(N,S) arrival bound (waves; 0 = window length)")
	fs.Uint64Var(&o.cfg.Seed, "seed", 1, "hash seed (sites to be merged must share it)")
	fs.IntVar(&o.cfg.Shards, "shards", 0, "ingest lock stripes (0 = GOMAXPROCS)")
	fs.DurationVar(&o.cfg.MergeTTL, "merge-ttl", 250*time.Millisecond, "staleness bound of cached global-query view (0 = always fresh)")
	fs.StringVar(&o.cfg.AuthToken, "token", "", "require this bearer token on every request (empty = open)")
	fs.StringVar(&o.tlsCert, "tls-cert", "", "serve TLS with this certificate file (requires -tls-key); pullers trusting a private CA pass it to a coordinator's -site-ca or ecmclient.WithRootCAs")
	fs.StringVar(&o.tlsKey, "tls-key", "", "private key file for -tls-cert")
	fs.BoolVar(&o.cfg.EnableProfiling, "pprof", false, "mount net/http/pprof under /debug/pprof/ (behind -token auth when set)")
	fs.StringVar(&o.cfg.DataDir, "data-dir", "", "persist state under this directory so a restart keeps serving deltas: a site's epoch, snapshots and batch WAL, a coordinator's merged root and membership (empty = memory only)")
	fs.DurationVar(&o.cfg.SnapshotInterval, "snapshot-interval", time.Minute, "how often a site folds the WAL into a fresh snapshot, or a coordinator saves its merged root (requires -data-dir)")
	fs.DurationVar(&o.cfg.WALSyncInterval, "wal-sync", 0, "group-commit WAL fsync period; 0 fsyncs every batch (requires -data-dir)")
	fs.StringVar(&o.sites, "sites", "", "run as a coordinator over these comma-separated site base URLs (empty: none yet; more register at runtime: POST /v1/sites)")
	fs.DurationVar(&o.cfg.RefreshInterval, "interval", 10*time.Second, "coordinator: site re-pull period")
	fs.DurationVar(&o.timeout, "timeout", 10*time.Second, "coordinator: per-site HTTP timeout")
	fs.StringVar(&o.cfg.SiteToken, "site-token", "", "coordinator: bearer token sent with every site pull (for sites started with -token)")
	fs.StringVar(&o.siteCA, "site-ca", "", "coordinator: PEM file of root CAs to trust when pulling https:// sites (default: system roots)")
	return o
}

// engineFlags configure a site's engine only, coordFlags a coordinator's
// pulls only; parseOptions refuses either in the other mode.
var (
	engineFlags = []string{"epsilon", "delta", "window", "algo", "ubound", "seed", "shards", "merge-ttl", "wal-sync"}
	coordFlags  = []string{"interval", "timeout", "site-token", "site-ca"}
)

// parseOptions parses args into fs and checks the flags fit one mode:
// coordinator when -sites is given (even empty), site otherwise. In
// coordinator mode it also builds the pull client from -timeout and
// -site-ca.
func parseOptions(fs *flag.FlagSet, args []string) (*options, error) {
	o := registerFlags(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	o.coordinator = set["sites"]
	wrong, why := coordFlags, "needs -sites (coordinator mode)"
	if o.coordinator {
		wrong, why = engineFlags, "configures a site's engine; a coordinator (-sites) takes its parameters from its sites"
	}
	for _, name := range wrong {
		if set[name] {
			return nil, fmt.Errorf("-%s %s", name, why)
		}
	}
	if !o.coordinator {
		return o, nil
	}
	if o.cfg.RefreshInterval <= 0 {
		return nil, errors.New("-interval must be positive")
	}
	var roots *x509.CertPool
	if o.siteCA != "" {
		pem, err := os.ReadFile(o.siteCA)
		if err != nil {
			return nil, fmt.Errorf("reading -site-ca: %w", err)
		}
		roots = x509.NewCertPool()
		if !roots.AppendCertsFromPEM(pem) {
			return nil, fmt.Errorf("no certificates found in %s", o.siteCA)
		}
	}
	o.cfg.PullClient = ecmsketch.NewPullClient(o.timeout, roots)
	return o, nil
}

// newServer builds the site engine, or the coordinator over the -sites list,
// and logs what it built.
func (o *options) newServer() (*ecmserver.Server, error) {
	if !o.coordinator {
		srv, err := ecmserver.New(o.cfg)
		if err != nil {
			return nil, err
		}
		eng := srv.Engine()
		if o.cfg.DataDir != "" {
			ds := eng.DurabilityStats()
			log.Printf("ecmserve durable state in %s (epoch=%x recovered=%v replayed=%d records)",
				o.cfg.DataDir, ds.Epoch, ds.Recovered, ds.ReplayedRecords)
		}
		log.Printf("ecmserve listening on %s (eps=%v delta=%v window=%d algo=%s shards=%d)",
			o.addr, o.cfg.Epsilon, o.cfg.Delta, o.cfg.WindowLength, o.cfg.Algorithm, eng.Shards())
		return srv, nil
	}
	var sites []ecmsketch.Site
	for _, u := range splitSites(o.sites) {
		sites = append(sites, ecmsketch.NewHTTPSiteWithAuth(u, o.cfg.PullClient, o.cfg.SiteToken))
	}
	co := ecmsketch.NewCoordinator(sites...)
	srv, err := ecmserver.NewOver(o.cfg, co)
	if err != nil {
		return nil, err
	}
	log.Printf("ecmserve coordinating %d sites on %s (re-pull every %v)", len(co.Sites()), o.addr, o.cfg.RefreshInterval)
	return srv, nil
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

func main() {
	o, err := parseOptions(flag.CommandLine, os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecmserve:", err)
		os.Exit(2)
	}
	srv, err := o.newServer()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecmserve:", err)
		os.Exit(1)
	}
	if o.cfg.DataDir != "" {
		// SIGINT/SIGTERM write a final checkpoint (a site's engine) or root
		// save (a coordinator) so the next start resumes from it; an
		// unclean death is covered by WAL replay or a re-pull instead.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			if err := srv.Close(); err != nil {
				log.Printf("ecmserve: shutdown checkpoint: %v", err)
			}
			os.Exit(0)
		}()
	}
	log.Fatal(srv.ListenAndServe(o.addr, o.tlsCert, o.tlsKey))
}
