package coord_test

import (
	"bytes"
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
// parameters — over both transports. A failing site beside a healthy one is
// excluded from the round and reported, by name and error, in SiteStatuses;
// a round in which no site contributes, or whose contributors cannot be
// merged, fails naming the site.
func TestCoordinatorFailureModes(t *testing.T) {
	p := testParams(5)
	good := feedSketch(t, p, 32, 1000, 0)
	goodEnc := good.Marshal()
	badSeed := feedSketch(t, testParams(6), 32, 1000, 0)
	// failing pairs a healthy HTTP site with the failing one.
	failing := func(t *testing.T, h http.Handler) []coord.Site {
		ok := sketchSite(t, goodEnc)
		bad := httptest.NewServer(h)
		t.Cleanup(ok.Close)
		t.Cleanup(bad.Close)
		return []coord.Site{coord.NewHTTPSite(ok.URL, nil), coord.NewHTTPSite(bad.URL, nil)}
	}
	serve := func(body []byte) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.Write(body) })
	}

	cases := []struct {
		name string
		// sites builds the site list; servers it starts are cleaned up by
		// the test server's Close registered on t.
		sites   func(t *testing.T) []coord.Site
		wantSub string
		// roundErr marks a case where the round itself must fail; otherwise
		// the last site is excluded and the round succeeds without it.
		roundErr bool
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
				return failing(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					http.Error(w, "boom", http.StatusInternalServerError)
				}))
			},
			wantSub: "status 500",
		},
		{
			name: "http torn body (content-length longer than payload)",
			sites: func(t *testing.T) []coord.Site {
				return failing(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					w.Header().Set("Content-Length", fmt.Sprint(len(goodEnc)))
					w.Write(goodEnc[:len(goodEnc)/2])
					// Hijack-free tear: the handler returns early, so the
					// client sees an unexpected EOF mid-body.
				}))
			},
			wantSub: "unexpected EOF",
		},
		{
			name: "http truncated snapshot encoding",
			sites: func(t *testing.T) []coord.Site {
				return failing(t, serve(goodEnc[:len(goodEnc)/3]))
			},
			wantSub: "core: truncated sketch encoding",
		},
		{
			name: "http garbage payload",
			sites: func(t *testing.T) []coord.Site {
				return failing(t, serve([]byte("not a sketch at all")))
			},
			wantSub: "core: unknown snapshot tag 0x6e",
		},
		{
			name: "every site fails",
			sites: func(t *testing.T) []coord.Site {
				srv := sketchSite(t, []byte("not a sketch at all"))
				t.Cleanup(srv.Close)
				return []coord.Site{coord.NewHTTPSite(srv.URL, nil), errSite{name: "site-broken", err: fmt.Errorf("gone")}}
			},
			wantSub:  "no site contributed: site " + "http://127.0.0.1",
			roundErr: true,
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
			wantSub:  "incompatible",
			roundErr: true,
		},
		{
			name: "local transport failure",
			sites: func(t *testing.T) []coord.Site {
				return []coord.Site{
					coord.NewLocalSite("site-ok", good),
					errSite{name: "site-broken", err: fmt.Errorf("snapshot source gone")},
				}
			},
			wantSub: "snapshot source gone",
		},
		{
			name: "local mismatched params",
			sites: func(t *testing.T) []coord.Site {
				return []coord.Site{
					coord.NewLocalSite("site-a", good),
					coord.NewLocalSite("site-b", badSeed),
				}
			},
			wantSub:  "site site-b: sketch parameters incompatible with site site-a",
			roundErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sites := tc.sites(t)
			co := coord.New(sites...)
			err := co.Refresh()
			if tc.roundErr {
				if err == nil {
					t.Fatal("Refresh succeeded, want error")
				}
				if !strings.Contains(err.Error(), tc.wantSub) {
					t.Errorf("error %q does not mention %q", err, tc.wantSub)
				}
				return
			}
			if err != nil {
				t.Fatalf("Refresh failed with a healthy site present: %v", err)
			}
			if st := co.LastRefresh(); st.Contributors != 1 || st.Excluded != 1 || st.Stale != 0 {
				t.Errorf("round stats %+v, want 1 contributor, 1 excluded, 0 stale", st)
			}
			statuses := co.SiteStatuses()
			bad := statuses[len(statuses)-1]
			if bad.Name != sites[len(sites)-1].Name() || bad.Healthy || bad.Failures != 1 || bad.HasBaseline ||
				!strings.Contains(bad.LastError, tc.wantSub) {
				t.Errorf("failing site status %+v, want unhealthy, one failure, no baseline, error mentioning %q", bad, tc.wantSub)
			}
			if !statuses[0].Healthy {
				t.Errorf("healthy site reported %+v", statuses[0])
			}
			v, err := co.View()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(v.Marshal(), goodEnc) {
				t.Error("view is not the healthy site's summary alone")
			}
		})
	}
}

// TestNoSites pins the empty-coordinator error.
func TestNoSites(t *testing.T) {
	if err := coord.New().Refresh(); err == nil {
		t.Fatal("refreshing zero sites succeeded")
	}
}
