package main

import (
	"bufio"
	"strings"
	"testing"

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

func TestEmitFormat(t *testing.T) {
	g, err := build("", workload.Config{Events: 50, Duration: 500, KeyDomain: 16, Skew: 1.0, Sites: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := emit(&sb, g, false, "k%d"); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	lines := 0
	for sc.Scan() {
		lines++
		parts := strings.Split(sc.Text(), ",")
		if len(parts) != 2 {
			t.Fatalf("line %q: want key,tick", sc.Text())
		}
		if !strings.HasPrefix(parts[0], "k") {
			t.Fatalf("key %q missing format prefix", parts[0])
		}
	}
	if lines != 50 {
		t.Errorf("emitted %d lines, want 50", lines)
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
	for _, line := range strings.Split(strings.TrimSpace(sb.String()), "\n") {
		if parts := strings.Split(line, ","); len(parts) != 3 {
			t.Fatalf("line %q: want key,tick,site", line)
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
