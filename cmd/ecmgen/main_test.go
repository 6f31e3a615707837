package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ecmsketch"
	"ecmsketch/ecmserver"
	"ecmsketch/internal/workload"
)

func TestBuildPresets(t *testing.T) {
	for _, preset := range []string{"wc98", "snmp", ""} {
		g, err := build(preset, workload.Config{Events: 100, Duration: 1000, KeyDomain: 64, Skew: 1.0, Sites: 2, Seed: 1})
		if err != nil {
			t.Fatalf("build(%q): %v", preset, err)
		}
		if g.Remaining() != 100 {
			t.Errorf("preset %q: %d events", preset, g.Remaining())
		}
	}
	if _, err := build("bogus", workload.Config{Events: 100, Duration: 1000, KeyDomain: 64, Skew: 1.0, Sites: 2, Seed: 1}); err == nil {
		t.Error("bogus preset accepted")
	}
	if _, err := build("", workload.Config{Duration: 1000, KeyDomain: 64, Skew: 1.0, Sites: 2, Seed: 1}); err == nil {
		t.Error("zero events accepted")
	}
}

// elements decodes an emit body the plain way: it must be one JSON array.
func elements(t *testing.T, body string) []map[string]any {
	t.Helper()
	var out []map[string]any
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("body is not a JSON array: %v\n%s", err, body)
	}
	return out
}

func TestEmitFormat(t *testing.T) {
	g, err := build("", workload.Config{Events: 50, Duration: 500, KeyDomain: 16, Skew: 1.0, Sites: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := emit(&sb, g, false, "k%d"); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(sb.String(), "\n"); lines != 52 {
		t.Errorf("%d lines, want one per element plus the brackets' 2", lines)
	}
	els := elements(t, sb.String())
	if len(els) != 50 {
		t.Errorf("emitted %d elements, want 50", len(els))
	}
	for _, el := range els {
		key, _ := el["key"].(string)
		if len(el) != 2 || !strings.HasPrefix(key, "k") || el["t"].(float64) < 1 {
			t.Fatalf("element %v: want {\"key\":\"k…\",\"t\":≥1}", el)
		}
	}

	var empty strings.Builder
	if err := emit(&empty, g, false, "k%d"); err != nil { // g is drained
		t.Fatal(err)
	}
	if empty.String() != "[]\n" {
		t.Errorf("empty stream wrote %q, want []", empty.String())
	}
}

func TestEmitWithSite(t *testing.T) {
	g, err := build("", workload.Config{Events: 20, Duration: 200, KeyDomain: 16, Skew: 1.0, Sites: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := emit(&sb, g, true, "%d"); err != nil {
		t.Fatal(err)
	}
	for _, el := range elements(t, sb.String()) {
		if site, ok := el["site"].(float64); len(el) != 3 || !ok || site < 0 || site >= 3 {
			t.Fatalf("element %v: want key, t and a site in [0,3)", el)
		}
	}
}

// TestEmitFeedsEvents posts emit's output, sites and a key format needing
// JSON escapes included, to an in-process /v1/events: every generated event
// must count exactly once (the site member is skipped, never read as a
// count), and every key must read as an engine fed the generator's events
// directly reads it, within the sketch's ε·‖a‖₁ of its exact count.
func TestEmitFeedsEvents(t *testing.T) {
	const keyFmt = `q"%d\`
	cfg := workload.Config{Events: 1000, Duration: 5000, KeyDomain: 64, Skew: 1.0, Sites: 4, Seed: 3}
	g, err := build("", cfg)
	if err != nil {
		t.Fatal(err)
	}
	var body strings.Builder
	if err := emit(&body, g, true, keyFmt); err != nil {
		t.Fatal(err)
	}
	params := ecmsketch.Params{Epsilon: 0.05, Delta: 0.05, WindowLength: 1 << 20, Seed: 5}
	srv, err := ecmserver.New(ecmserver.Config{Epsilon: params.Epsilon, Delta: params.Delta, WindowLength: params.WindowLength, Seed: params.Seed, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/events", strings.NewReader(body.String())))
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/events answered %d: %s", rec.Code, rec.Body)
	}
	if got := srv.Engine().Count(); got != uint64(cfg.Events) {
		t.Fatalf("engine count %d, want %d", got, cfg.Events)
	}

	ref, err := ecmsketch.NewSharded(ecmsketch.ShardedConfig{Params: params, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	g, _ = build("", cfg)
	var events []ecmsketch.Event
	exact := map[uint64]float64{}
	for _, ev := range g.Drain() {
		events = append(events, ecmsketch.Event{Key: ecmsketch.KeyString(fmt.Sprintf(keyFmt, ev.Key)), Tick: ev.Time, N: 1})
		exact[ev.Key]++
	}
	ref.AddBatch(events)
	r := params.WindowLength
	for k := uint64(1); k <= uint64(cfg.KeyDomain); k++ {
		key := ecmsketch.KeyString(fmt.Sprintf(keyFmt, k))
		got, want := srv.Engine().Estimate(key, r), ref.Estimate(key, r)
		if got != want {
			t.Errorf("key %d: served estimate %v, generator's events directly %v", k, got, want)
		}
		if math.Abs(got-exact[k]) > params.Epsilon*float64(cfg.Events) {
			t.Errorf("key %d: estimate %v, exact count %v", k, got, exact[k])
		}
	}
}

func TestEmitDeterministic(t *testing.T) {
	render := func() string {
		g, err := build("wc98", workload.Config{Events: 200, Duration: 5000, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := emit(&sb, g, true, "%d"); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	if render() != render() {
		t.Error("same seed produced different streams")
	}
}
