package ecmsketch

import (
	"crypto/x509"
	"net/http"
	"time"

	"ecmsketch/internal/coord"
)

// Site is one summary source behind a coordinator transport: Delta answers a
// cursor with a protocol payload — a full baseline for the zero cursor,
// otherwise what changed since — plus the wire size shipping it costs,
// measured at the transport boundary. NewLocalSite adapts any in-process
// front end; NewHTTPSite pulls a remote ecmserve deployment.
type Site = coord.Site

// Coordinator aggregates a set of sites' summaries — in-process, networked,
// or a mix — into one sketch of the combined stream, one Refresh round at a
// time. Every pull lands in a per-site receiver state (DeltaState) and
// presents the cursor it holds, so after the first full baseline sites ship
// only what changed (transparent full-pull fallback on any cursor
// invalidation); a failing site is served from its retained baseline or
// excluded, and backs off (SiteStatuses). After a
// Refresh it is also a read-side front end — BatchQuerier, DirectQuerier,
// Snapshotter, DeltaSnapshotter over a frozen clone of its merged root —
// which is how ecmserver serves one; see cmd/ecmcoord for the deployable
// coordinator built that way.
type Coordinator = coord.Coordinator

// ErrNotReady is what a Coordinator's read side returns before its first
// successful Refresh: there is no merged view to answer from yet.
var ErrNotReady = coord.ErrNotReady

// NewCoordinator builds a coordinator over the given sites with fresh
// network accounting.
func NewCoordinator(sites ...Site) *Coordinator { return coord.New(sites...) }

// NewLocalSite adapts an in-process front end — Sketch, Sharded, a
// Coordinator, an ecmclient.Client — as a coordinator site named
// name. Its transfers are the payloads src.DeltaSnapshot encodes, charged
// at their length.
func NewLocalSite(name string, src DeltaSnapshotter) Site { return coord.NewLocalSite(name, src) }

// NewHTTPSite builds a coordinator site pulling GET /v1/snapshot from the
// ecmserve deployment at baseURL. A nil client uses the shared pull client
// (see NewPullClient); pass one to change timeouts or trust private CAs.
func NewHTTPSite(baseURL string, hc *http.Client) Site { return coord.NewHTTPSite(baseURL, hc) }

// NewHTTPSiteWithAuth is NewHTTPSite carrying "Authorization: Bearer <token>"
// on every pull — for sites started with an ecmserver AuthToken. An empty
// token sends no header.
func NewHTTPSiteWithAuth(baseURL string, hc *http.Client, token string) Site {
	s := coord.NewHTTPSite(baseURL, hc)
	s.SetAuthToken(token)
	return s
}

// NewPullClient returns an HTTP client tuned for coordinator pulls: one
// keep-alive transport shared by every site pulled through it (idle pools
// sized for hundreds of site hosts), dial/TLS/overall timeouts, and — when
// rootCAs is non-nil — a private trust pool for https:// sites instead of
// the system roots.
func NewPullClient(timeout time.Duration, rootCAs *x509.CertPool) *http.Client {
	return coord.NewPullClient(timeout, rootCAs)
}
