package coord

import (
	"crypto/tls"
	"crypto/x509"
	"net"
	"net/http"
	"time"
)

// NewPullClient returns an HTTP client tuned for coordinator pulls: one
// keep-alive transport shared by every site pulled through it, with idle
// pools sized for wide deployments — a coordinator revisiting hundreds of
// distinct site hosts every interval would churn http.DefaultTransport's
// global 100-connection idle cap into a reconnect storm — plus dial, TLS
// and overall timeouts so one unresponsive site cannot wedge a pull
// goroutine forever. A non-nil rootCAs replaces the system trust pool, for
// deployments running their sites behind a private CA (the server side is
// the -tls-cert/-tls-key flags of ecmserve, at either tier).
func NewPullClient(timeout time.Duration, rootCAs *x509.CertPool) *http.Client {
	tr := &http.Transport{
		Proxy: http.ProxyFromEnvironment,
		DialContext: (&net.Dialer{
			Timeout:   10 * time.Second,
			KeepAlive: 30 * time.Second,
		}).DialContext,
		ForceAttemptHTTP2:     true,
		MaxIdleConns:          4096,
		MaxIdleConnsPerHost:   4,
		IdleConnTimeout:       90 * time.Second,
		TLSHandshakeTimeout:   10 * time.Second,
		ExpectContinueTimeout: time.Second,
	}
	if rootCAs != nil {
		tr.TLSClientConfig = &tls.Config{RootCAs: rootCAs}
	}
	return &http.Client{Transport: tr, Timeout: timeout}
}

// defaultPullClient backs NewHTTPSite when the caller passes no client:
// every such site shares one keep-alive transport and a 30-second pull
// timeout.
var defaultPullClient = NewPullClient(30*time.Second, nil)
