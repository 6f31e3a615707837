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
// Endpoints (see ecmserver handler docs): POST /v1/add, POST /v1/batch,
// POST /v1/events, GET /v1/estimate, GET /v1/interval, GET /v1/selfjoin,
// GET /v1/total, GET /v1/stats, GET /v1/sketch, POST /v1/advance, and
// GET /v1/topk with -topk.
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

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		epsilon = flag.Float64("epsilon", 0.02, "total error budget")
		delta   = flag.Float64("delta", 0.01, "failure probability")
		window  = flag.Uint64("window", 3_600_000, "window length in ticks")
		algo    = flag.String("algo", "eh", "counter algorithm: eh|dw|rw")
		ubound  = flag.Uint64("ubound", 0, "u(N,S) arrival bound (waves; 0 = window length)")
		seed    = flag.Uint64("seed", 1, "hash seed (sites to be merged must share it)")
		topk    = flag.Int("topk", 0, "track the N hottest keys and serve GET /v1/topk (0 = off)")
		shards  = flag.Int("shards", 0, "ingest lock stripes (0 = GOMAXPROCS)")
		ttl     = flag.Duration("merge-ttl", 250*time.Millisecond, "staleness bound of cached global-query view (0 = always fresh)")
		refresh = flag.Duration("refresh", 0, "background merged-view refresh period (0 = rebuild on the reader that trips merge-ttl)")
		token   = flag.String("token", "", "require this bearer token on every request (empty = open)")
		tlsCert = flag.String("tls-cert", "", "serve TLS with this certificate file (requires -tls-key); pullers trusting a private CA pass it to ecmcoord -site-ca or ecmclient.WithRootCAs")
		tlsKey  = flag.String("tls-key", "", "private key file for -tls-cert")
		pprofOn = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (behind -token auth when set)")
		dataDir = flag.String("data-dir", "", "persist epoch, snapshots, and a batch WAL under this directory; a restart replays to the pre-crash state and keeps serving deltas (empty = memory only)")
		snapIvl = flag.Duration("snapshot-interval", time.Minute, "how often to fold the WAL into a fresh snapshot (requires -data-dir)")
		walSync = flag.Duration("wal-sync", 0, "group-commit WAL fsync period; 0 fsyncs every batch (requires -data-dir)")
	)
	flag.Parse()
	srv, err := ecmserver.New(ecmserver.Config{
		Epsilon:          *epsilon,
		Delta:            *delta,
		WindowLength:     *window,
		Algorithm:        *algo,
		UpperBound:       *ubound,
		Seed:             *seed,
		TopK:             *topk,
		Shards:           *shards,
		MergeTTL:         *ttl,
		RefreshInterval:  *refresh,
		AuthToken:        *token,
		EnableProfiling:  *pprofOn,
		DataDir:          *dataDir,
		SnapshotInterval: *snapIvl,
		WALSyncInterval:  *walSync,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ecmserve:", err)
		os.Exit(1)
	}
	if *dataDir != "" {
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
			*dataDir, ds.Epoch, ds.Recovered, ds.ReplayedRecords)
	}
	log.Printf("ecmserve listening on %s (eps=%v delta=%v window=%d algo=%s shards=%d)",
		*addr, *epsilon, *delta, *window, *algo, srv.Engine().Shards())
	log.Fatal(srv.ListenAndServe(*addr, *tlsCert, *tlsKey))
}
