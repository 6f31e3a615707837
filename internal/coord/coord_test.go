package coord_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ecmsketch/internal/coord"
	"ecmsketch/internal/core"
)

func testParams(seed uint64) core.Params {
	return core.Params{Epsilon: 0.1, Delta: 0.1, WindowLength: 10000, Seed: seed}
}

// feedSketch builds a sketch over a deterministic little stream.
func feedSketch(t *testing.T, p core.Params, keys, events int, salt uint64) *core.Sketch {
	t.Helper()
	s, err := core.New(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < events; i++ {
		s.Add(uint64(i)%uint64(keys)+salt, core.Tick(i/4+1))
	}
	s.Advance(core.Tick(events/4 + 1))
	return s
}

// sketchSite serves enc as a site snapshot on the /v1/snapshot route.
func sketchSite(t *testing.T, enc []byte) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/snapshot" {
			http.NotFound(w, r)
			return
		}
		w.Write(enc)
	}))
}

// TestAggregateTreeAccounting pins the tree accounting the simulation has
// always used, now charged through the transport boundary: 4 leaves → 4
// level-0 transfers + 2 level-1 transfers = 6 messages, bytes equal to the
// exact encoding sizes of the shipped summaries.
func TestAggregateTreeAccounting(t *testing.T) {
	p := testParams(5)
	sites := make([]coord.Site, 4)
	wantLeafBytes := int64(0)
	parts := make([]*core.Sketch, 4)
	for i := range sites {
		parts[i] = feedSketch(t, p, 64, 4000, uint64(i)*1000)
		sites[i] = coord.NewLocalSite(fmt.Sprintf("site-%d", i), parts[i])
		wantLeafBytes += int64(len(parts[i].Marshal()))
	}
	co := coord.New(sites...)
	root, height, err := co.AggregateTree()
	if err != nil {
		t.Fatal(err)
	}
	if height != 2 {
		t.Errorf("height = %d, want 2", height)
	}
	if got := co.Network().Messages(); got != 6 {
		t.Errorf("messages = %d, want 6", got)
	}
	m01, err := core.Merge(parts[0], parts[1])
	if err != nil {
		t.Fatal(err)
	}
	m23, err := core.Merge(parts[2], parts[3])
	if err != nil {
		t.Fatal(err)
	}
	wantBytes := wantLeafBytes + int64(len(m01.Marshal())) + int64(len(m23.Marshal()))
	if got := co.Network().Bytes(); got != wantBytes {
		t.Errorf("bytes = %d, want %d (leaf encodings + internal-node encodings)", got, wantBytes)
	}
	if got := co.PulledBytes(); got != wantLeafBytes {
		t.Errorf("pulled bytes = %d, want %d (leaf payloads only)", got, wantLeafBytes)
	}
	var wantCount uint64
	for _, s := range parts {
		wantCount += s.Count()
	}
	if root.Count() != wantCount {
		t.Errorf("root count = %d, want %d", root.Count(), wantCount)
	}
}

// errSite is an in-process site whose transport fails, the local analog of
// an unreachable or torn networked site.
type errSite struct {
	name string
	err  error
}

func (s errSite) Name() string { return s.name }
func (s errSite) Delta(core.Cursor) ([]byte, core.Cursor, bool, int, error) {
	return nil, core.Cursor{}, false, 0, s.err
}

// TestCoordinatorFailureModes drives the coordinator through every
// transport failure class — site unreachable, HTTP error status, torn or
// truncated snapshot body, undecodable payload, mismatched sketch
// parameters — over both transports, asserting the failing site is named.
func TestCoordinatorFailureModes(t *testing.T) {
	p := testParams(5)
	good := feedSketch(t, p, 32, 1000, 0)
	goodEnc := good.Marshal()
	badSeed := feedSketch(t, testParams(6), 32, 1000, 0)

	cases := []struct {
		name string
		// sites builds the site list; servers it starts are cleaned up by
		// the test server's Close registered on t.
		sites   func(t *testing.T) []coord.Site
		wantSub string
	}{
		{
			name: "http site unreachable",
			sites: func(t *testing.T) []coord.Site {
				srv := sketchSite(t, goodEnc)
				dead := httptest.NewServer(http.NotFoundHandler())
				dead.Close() // connection refused from now on
				t.Cleanup(srv.Close)
				return []coord.Site{
					coord.NewHTTPSite(srv.URL, nil),
					coord.NewHTTPSite(dead.URL, nil),
				}
			},
			wantSub: "connection refused",
		},
		{
			name: "http site returns 500",
			sites: func(t *testing.T) []coord.Site {
				srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					http.Error(w, "boom", http.StatusInternalServerError)
				}))
				t.Cleanup(srv.Close)
				return []coord.Site{coord.NewHTTPSite(srv.URL, nil)}
			},
			wantSub: "status 500",
		},
		{
			name: "http torn body (content-length longer than payload)",
			sites: func(t *testing.T) []coord.Site {
				srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					w.Header().Set("Content-Length", fmt.Sprint(len(goodEnc)))
					w.Write(goodEnc[:len(goodEnc)/2])
					// Hijack-free tear: the handler returns early, so the
					// client sees an unexpected EOF mid-body.
				}))
				t.Cleanup(srv.Close)
				return []coord.Site{coord.NewHTTPSite(srv.URL, nil)}
			},
			wantSub: "unexpected EOF",
		},
		{
			name: "http truncated snapshot encoding",
			sites: func(t *testing.T) []coord.Site {
				srv := sketchSite(t, goodEnc[:len(goodEnc)/3])
				t.Cleanup(srv.Close)
				return []coord.Site{coord.NewHTTPSite(srv.URL, nil)}
			},
			wantSub: "core: truncated sketch encoding",
		},
		{
			name: "http garbage payload",
			sites: func(t *testing.T) []coord.Site {
				srv := sketchSite(t, []byte("not a sketch at all"))
				t.Cleanup(srv.Close)
				return []coord.Site{coord.NewHTTPSite(srv.URL, nil)}
			},
			wantSub: "core: unknown snapshot tag 0x6e",
		},
		{
			name: "http mismatched params",
			sites: func(t *testing.T) []coord.Site {
				a := sketchSite(t, goodEnc)
				b := sketchSite(t, badSeed.Marshal())
				t.Cleanup(a.Close)
				t.Cleanup(b.Close)
				return []coord.Site{coord.NewHTTPSite(a.URL, nil), coord.NewHTTPSite(b.URL, nil)}
			},
			wantSub: "incompatible",
		},
		{
			name: "local transport failure",
			sites: func(t *testing.T) []coord.Site {
				return []coord.Site{
					coord.NewLocalSite("site-ok", good),
					errSite{name: "site-broken", err: fmt.Errorf("snapshot source gone")},
				}
			},
			wantSub: "site site-broken: snapshot source gone",
		},
		{
			name: "local mismatched params",
			sites: func(t *testing.T) []coord.Site {
				return []coord.Site{
					coord.NewLocalSite("site-a", good),
					coord.NewLocalSite("site-b", badSeed),
				}
			},
			wantSub: "site site-b: sketch parameters incompatible with site site-a",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			co := coord.New(tc.sites(t)...)
			_, _, err := co.AggregateTree()
			if err == nil {
				t.Fatal("AggregateTree succeeded, want error")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestNoSites pins the empty-coordinator error.
func TestNoSites(t *testing.T) {
	if _, _, err := coord.New().AggregateTree(); err == nil {
		t.Fatal("aggregating zero sites succeeded")
	}
}
