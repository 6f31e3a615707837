package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func parse(args ...string) (*options, error) {
	fs := flag.NewFlagSet("ecmserve", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseOptions(fs, args)
}

// TestParseOptionsModes pins the mode rules: -sites (even empty) selects
// the coordinator, engine-only flags are refused there, coordinator-only
// flags are refused at a site, and each refusal names its flag.
func TestParseOptionsModes(t *testing.T) {
	for _, name := range engineFlags {
		val := "1"
		if name == "algo" {
			val = "dw"
		} else if name == "merge-ttl" || name == "wal-sync" {
			val = "1s"
		}
		if _, err := parse("-sites", "http://a:1", "-"+name, val); err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
			t.Errorf("-%s with -sites: err %v, want one naming -%s", name, err, name)
		}
		if _, err := parse("-" + name + "=" + val); err != nil {
			t.Errorf("-%s at a site: %v", name, err)
		}
	}
	for _, name := range coordFlags {
		val := "x"
		if name == "interval" || name == "timeout" {
			val = "1s"
		}
		if _, err := parse("-"+name, val); err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
			t.Errorf("-%s without -sites: err %v, want one naming -%s", name, err, name)
		}
	}

	for _, ivl := range []string{"0", "-1s"} {
		if _, err := parse("-sites", "http://a:1", "-interval", ivl); err == nil || !strings.Contains(err.Error(), "-interval") {
			t.Errorf("-interval %s: err %v, want a refusal naming -interval", ivl, err)
		}
	}

	o, err := parse("-sites", "")
	if err != nil {
		t.Fatalf("-sites '': %v", err)
	}
	if !o.coordinator || o.cfg.PullClient == nil {
		t.Fatalf("-sites '': coordinator %v, pull client %v; want an empty coordinator", o.coordinator, o.cfg.PullClient)
	}
	srv, err := o.newServer()
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Engine() != nil {
		t.Fatal("-sites '' built a site engine")
	}

	o, err = parse("-sites", "http://a:1", "-interval", "2s", "-timeout", "3s", "-site-token", "tok", "-token", "own", "-data-dir", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if o.cfg.RefreshInterval != 2*time.Second || o.cfg.PullClient.Timeout != 3*time.Second || o.cfg.SiteToken != "tok" || o.cfg.AuthToken != "own" {
		t.Fatalf("coordinator options %+v", o.cfg)
	}

	o, err = parse("-seed", "9")
	if err != nil {
		t.Fatal(err)
	}
	if o.coordinator || o.cfg.Seed != 9 {
		t.Fatalf("site options: coordinator %v, seed %d", o.coordinator, o.cfg.Seed)
	}
}

// TestParseOptionsSiteCA: an unreadable -site-ca, or one holding no
// certificate, is refused before anything starts.
func TestParseOptionsSiteCA(t *testing.T) {
	dir := t.TempDir()
	if _, err := parse("-sites", "", "-site-ca", filepath.Join(dir, "missing.pem")); err == nil {
		t.Error("missing -site-ca file accepted")
	}
	empty := filepath.Join(dir, "empty.pem")
	if err := os.WriteFile(empty, []byte("not a certificate"), 0o600); err != nil {
		t.Fatal(err)
	}
	if _, err := parse("-sites", "", "-site-ca", empty); err == nil {
		t.Error("-site-ca without certificates accepted")
	}
}

func TestSplitSites(t *testing.T) {
	got := splitSites(" http://a:1/, ,http://b:2 ")
	if len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Errorf("splitSites = %v", got)
	}
	if len(splitSites("")) != 0 {
		t.Error("empty input produced sites")
	}
}
