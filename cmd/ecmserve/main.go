// Command ecmserve runs a sharded ECM-sketch engine behind the versioned
// HTTP API of package ecmserver: collectors POST arrivals, dashboards GET
// sliding-window estimates, and a coordinator can pull the serialized
// sketch to aggregate several sites (see cmd/ecmcoord, or ecmsketch.Merge
// programmatically). The typed Go client for this API is package ecmclient.
//
// Usage:
//
//	ecmserve -addr :8080 -epsilon 0.02 -delta 0.01 -window 3600000 -shards 8
//
// Endpoints (see ecmserver handler docs): POST /v1/events, POST /v1/batch,
// POST /v1/advance, GET and POST /v1/query, GET /v1/interval,
// GET /v1/snapshot, GET /v1/stats, the standing-query routes
// (/v1/subscribe, /v1/watch), and GET /v1/topk with -topk.
// docs/operations.md has the deployment guide.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ecmsketch/ecmserver"
)

// options is what the flags set: the engine and server configuration plus
// the listener's own three values.
type options struct {
	addr, tlsCert, tlsKey string
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
	fs.StringVar(&o.cfg.Algorithm, "algo", "eh", "counter algorithm: eh|dw|rw")
	fs.Uint64Var(&o.cfg.UpperBound, "ubound", 0, "u(N,S) arrival bound (waves; 0 = window length)")
	fs.Uint64Var(&o.cfg.Seed, "seed", 1, "hash seed (sites to be merged must share it)")
	fs.IntVar(&o.cfg.TopK, "topk", 0, "track the N hottest keys and serve GET /v1/topk (0 = off)")
	fs.IntVar(&o.cfg.Shards, "shards", 0, "ingest lock stripes (0 = GOMAXPROCS)")
	fs.DurationVar(&o.cfg.MergeTTL, "merge-ttl", 250*time.Millisecond, "staleness bound of cached global-query view (0 = always fresh)")
	fs.StringVar(&o.cfg.AuthToken, "token", "", "require this bearer token on every request (empty = open)")
	fs.StringVar(&o.tlsCert, "tls-cert", "", "serve TLS with this certificate file (requires -tls-key); pullers trusting a private CA pass it to ecmcoord -site-ca or ecmclient.WithRootCAs")
	fs.StringVar(&o.tlsKey, "tls-key", "", "private key file for -tls-cert")
	fs.BoolVar(&o.cfg.EnableProfiling, "pprof", false, "mount net/http/pprof under /debug/pprof/ (behind -token auth when set)")
	fs.StringVar(&o.cfg.DataDir, "data-dir", "", "persist epoch, snapshots, and a batch WAL under this directory; a restart replays to the pre-crash state and keeps serving deltas (empty = memory only)")
	fs.DurationVar(&o.cfg.SnapshotInterval, "snapshot-interval", time.Minute, "how often to fold the WAL into a fresh snapshot (requires -data-dir)")
	fs.DurationVar(&o.cfg.WALSyncInterval, "wal-sync", 0, "group-commit WAL fsync period; 0 fsyncs every batch (requires -data-dir)")
	return o
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()
	srv, err := ecmserver.New(o.cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecmserve:", err)
		os.Exit(1)
	}
	if o.cfg.DataDir != "" {
		// SIGINT/SIGTERM write a final checkpoint so the next start replays
		// nothing; an unclean death is covered by WAL replay instead.
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() {
			<-sig
			if err := srv.Close(); err != nil {
				log.Printf("ecmserve: shutdown checkpoint: %v", err)
			}
			os.Exit(0)
		}()
		ds := srv.Engine().DurabilityStats()
		log.Printf("ecmserve durable state in %s (epoch=%x recovered=%v replayed=%d records)",
			o.cfg.DataDir, ds.Epoch, ds.Recovered, ds.ReplayedRecords)
	}
	log.Printf("ecmserve listening on %s (eps=%v delta=%v window=%d algo=%s shards=%d)",
		o.addr, o.cfg.Epsilon, o.cfg.Delta, o.cfg.WindowLength, o.cfg.Algorithm, srv.Engine().Shards())
	log.Fatal(srv.ListenAndServe(o.addr, o.tlsCert, o.tlsKey))
}
