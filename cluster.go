package ecmsketch

import (
	"crypto/x509"
	"net/http"
	"time"

	"ecmsketch/internal/coord"
	"ecmsketch/internal/workload"
)

// Cluster simulates a set of distributed sites, each summarizing its local
// sub-stream in an ECM-sketch, plus the balanced-binary-tree aggregation of
// the paper's distributed experiments. IngestAll applies each site's share
// of a stream on its own goroutine; AggregateTree builds the tree out of
// Coordinators, so every aggregation edge is a coordinator pull whose wire
// size is charged to the cluster's Network() accounting, and the
// simulation's merged result is bit-identical to deployed coordinators'
// over the same event log.
type Cluster = coord.Cluster

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

// NewCluster builds n sites with identically configured, mergeable sketches.
func NewCluster(p Params, n int) (*Cluster, error) { return coord.NewCluster(p, n) }

// StreamConfig parameterizes a synthetic workload stream.
type StreamConfig = workload.Config

// StreamGenerator produces reproducible synthetic event streams, including
// the wc'98-like and snmp-like stand-ins used by the experiment harness. Its
// events (key, time, site) carry the site affinity Cluster.IngestAll routes by,
// which the batch-ingest Event of the Ingestor interfaces does not have.
type StreamGenerator = workload.Generator

// NewStream builds a synthetic stream generator.
func NewStream(cfg StreamConfig) (*StreamGenerator, error) { return workload.NewGenerator(cfg) }

// Oracle tracks exact sliding-window statistics; useful for validating
// sketch output in tests and demos.
type Oracle = workload.Oracle

// NewOracle builds an exact oracle over a window of the given length.
func NewOracle(length Tick) *Oracle { return workload.NewOracle(length) }
