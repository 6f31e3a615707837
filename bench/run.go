package main

import (
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ecmsketch"
	"ecmsketch/ecmclient"
	"ecmsketch/ecmserver"
	"ecmsketch/internal/workload"
)

// scale shrinks a run for the smoke test; the driver and the command line
// always run fullScale.
type scale struct {
	preloadDiv   int // preload is 1.125·W ticks divided by this
	ringLen      int // pre-sampled keys per generator goroutine
	setups       int // set-ups timed per run; setup_s is their median
	crashCycles  int
	crashBatches int // 512-event batches fed before each crash
	replayKeep   int // recorded batches, bodies and payloads the replay passes use
}

var fullScale = scale{preloadDiv: 1, ringLen: 1 << 20, setups: 3, crashCycles: 7, crashBatches: 128, replayKeep: 2000}

// value is one reported metric; N is the number of samples behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// run is one pass of one workload, untraced (tr == nil) or traced.
type run struct {
	workload string
	seed     int64
	dur      time.Duration
	sc       scale
	tr       *tracer
	tmp      string // scratch directory for data dirs, inside the checkout
	// layers asks an untraced pass for the per-layer metrics that are
	// defined on untraced runs (tails, the issue's single-workload metrics).
	layers bool

	attempted, failed atomic.Int64

	mu       sync.Mutex
	failures []string
	e2e      map[string]value
	layer    map[string]value
	bodies   map[string][][]byte // request bodies the traced reader sent, by read kind
}

func newRun(wl string, seed int64, dur time.Duration, sc scale, tr *tracer, tmp string) *run {
	return &run{workload: wl, seed: seed, dur: dur, sc: sc, tr: tr, tmp: tmp,
		e2e: make(map[string]value), layer: make(map[string]value)}
}

// op counts one attempted operation and whether it failed.
func (r *run) op(err error) {
	r.attempted.Add(1)
	if err != nil {
		r.fail("%v", err)
	}
}

// gate counts one correctness check.
func (r *run) gate(ok bool, format string, args ...any) {
	r.attempted.Add(1)
	if !ok {
		r.fail(format, args...)
	}
}

func (r *run) fail(format string, args ...any) {
	r.failed.Add(1)
	r.mu.Lock()
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
	r.mu.Unlock()
}

func (r *run) setE2E(name string, v float64, n int) {
	r.mu.Lock()
	r.e2e[name] = value{Value: v, Unit: unitOf(name), N: n}
	r.mu.Unlock()
}

func (r *run) setLayer(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.mu.Lock()
	r.layer[name] = value{Value: v, Unit: unitOf(name), N: n}
	r.mu.Unlock()
}

// setTail reports a tail percentile only when enough samples lie beyond it.
func (r *run) setTail(name string, sorted []float64, q, unit float64) {
	if v, ok := tailQuantile(sorted, q); ok {
		r.setLayer(name, v/unit, len(sorted))
	}
}

// timeSetups runs build r.sc.setups times, closing all but the last system,
// and reports the median wall time as setup_s.
func timeSetups[S interface{ close() }](r *run, build func() (S, error)) (S, error) {
	var times samples
	var sys S
	for i := 0; i < r.sc.setups; i++ {
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return sys, fmt.Errorf("set-up: %w", err)
		}
		times.add(time.Since(t0))
		if i < r.sc.setups-1 {
			s.close()
		}
		sys = s
	}
	r.setE2E("setup_s", median(times)/1e9, len(times))
	// Collect the discarded set-ups' garbage now, so that every phase starts
	// from the same heap whatever the number of set-ups before it.
	runtime.GC()
	return sys, nil
}

// params is the sketch configuration of the common operating point.
func params(eps, delta float64, window uint64) ecmsketch.Params {
	return ecmsketch.Params{Epsilon: eps, Delta: delta, WindowLength: window, Seed: opHashSeed}
}

func (r *run) preloadTicks(window uint64) int {
	return int(window+window/8) / r.sc.preloadDiv
}

// site is one ecmserver behind a real loopback listener.
type site struct {
	srv  *ecmserver.Server
	hs   *http.Server
	url  string
	done chan struct{}
}

func (r *run) startSite(cfg ecmserver.Config) (*site, error) {
	srv, err := ecmserver.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv
	if r.tr != nil {
		h = r.tr.middleware(srv)
	}
	s := &site{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns ErrServerClosed from stopHTTP
	}()
	return s, nil
}

// stopHTTP closes the listener and every connection and waits for Serve.
func (s *site) stopHTTP() {
	s.hs.Close()
	<-s.done
}

func (s *site) close() {
	s.stopHTTP()
	s.srv.Close()
}

// newClientHTTP builds one client goroutine's own connection pool, with the
// span-stamping transport in front of it on traced runs.
func (r *run) newClientHTTP() (*http.Client, *spanTransport) {
	base := &http.Transport{MaxIdleConnsPerHost: 1}
	if r.tr == nil {
		return &http.Client{Transport: base}, nil
	}
	st := &spanTransport{base: base, keep: r.sc.replayKeep, bodies: make(map[string][][]byte)}
	return &http.Client{Transport: st}, st
}

// preload feeds evs single-threaded in preloadBatch-event batches.
func preload(eng interface{ AddBatch([]ecmsketch.Event) }, evs []ecmsketch.Event) {
	for len(evs) > 0 {
		n := min(preloadBatch, len(evs))
		eng.AddBatch(evs[:n])
		evs = evs[n:]
	}
}

// accuracyKeys picks the keys of the accuracy reading: the hot hottest by
// the oracle plus as many distinct colder keys drawn from the stream itself.
func accuracyKeys(o *workload.Oracle, r uint64, stream []ecmsketch.Event, hot int) []uint64 {
	var keys []uint64
	seen := make(map[uint64]bool)
	for _, hh := range o.HeavyHitters(0, r) {
		if len(keys) == hot {
			break
		}
		keys = append(keys, hh.Key)
		seen[hh.Key] = true
	}
	step := max(1, len(stream)/(4*hot))
	for i := len(stream) - 1; i >= 0 && len(keys) < 2*hot; i -= step {
		if k := stream[i].Key; !seen[k] {
			keys = append(keys, k)
			seen[k] = true
		}
	}
	return keys
}

// batchQuerier is what the accuracy reading and the total gate ask of an
// engine, a bare sketch or a coordinator's root snapshot alike.
type batchQuerier interface {
	QueryBatch(ecmsketch.QueryBatch) (ecmsketch.QueryResult, error)
}

// errOverBound is the deterministic accuracy reading: over keys, the p95 of
// |estimate − exact| ÷ (ε · exact total) within the last rng ticks.
func errOverBound(o *workload.Oracle, q batchQuerier, keys []uint64, rng uint64, eps float64) (float64, error) {
	res, err := q.QueryBatch(ecmsketch.QueryBatch{Keys: keys, Range: rng})
	if err != nil {
		return 0, err
	}
	bound := eps * float64(o.Total(rng))
	ratios := make([]float64, len(keys))
	for i, k := range keys {
		ratios[i] = math.Abs(res.Estimates[i]-float64(o.Freq(k, rng))) / bound
	}
	sort.Float64s(ratios)
	return quantile(ratios, 0.95), nil
}

// accuracy feeds stream to a fresh oracle and takes the accuracy reading
// against q; it is part of set-up and involves no measured-phase work.
func (r *run) accuracy(q batchQuerier, stream []ecmsketch.Event, window, rng uint64, eps float64) (float64, error) {
	o := workload.NewOracle(window)
	for _, ev := range stream {
		o.Add(ev.Key, ev.Tick)
	}
	return errOverBound(o, q, accuracyKeys(o, rng, stream, 256), rng, eps)
}

// reportAccuracy sets err_over_bound_p95 and gates it at 1.
func (r *run) reportAccuracy(ratio float64, keys int) {
	r.setE2E("err_over_bound_p95", ratio, keys)
	r.gate(ratio <= 1, "err_over_bound_p95 = %.3f exceeds the paper's bound", ratio)
}

// gateTotal checks the estimated total over the last rng ticks against the
// exact one at the clock the answer was evaluated at (a TTL-cached view
// answers as of its own clock, not the engine's), given that every tick
// carried perTick events.
func (r *run) gateTotal(q batchQuerier, rng uint64, perTick int, eps float64) {
	res, err := q.QueryBatch(ecmsketch.QueryBatch{Range: rng, Total: true})
	r.op(err)
	exact := exactTotal(rng, res.Now, perTick)
	r.gate(err != nil || math.Abs(res.Total-exact) <= eps*exact,
		"%s: total estimate %.0f not within ε=%.2f of exact %.0f", r.workload, res.Total, eps, exact)
}

// gateStats checks that /v1/stats reports the expected arrival count.
func (r *run) gateStats(url string, want uint64) {
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	stats, err := ecmclient.New(url, ecmclient.WithHTTPClient(hc)).FetchStats()
	r.op(err)
	r.gate(err != nil || stats.Count == want, "/v1/stats count %d != %d", stats.Count, want)
}

func (r *run) mkdir(name string) (string, error) {
	return os.MkdirTemp(r.tmp, name+"-")
}
