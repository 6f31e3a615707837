package ecmclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"ecmsketch"
	"ecmsketch/internal/standing"
)

// Subscription is a live standing-query stream: notifications arrive on C
// until Close (or the server removes the subscription). The watch connection
// reconnects automatically with exponential backoff, resuming from the last
// delivered sequence number, so transient drops cost nothing when the
// server's replay ring still covers the gap; when it does not — or when the
// server sheds this consumer — a Notification with Kind
// ecmsketch.StandingDropped and Missed set reports how many notifications
// were lost. Delivery is therefore at-least-once with explicit gaps, never
// silent loss.
type Subscription struct {
	// C carries the stream. It closes after Close, or when the server says
	// bye (the subscription was unsubscribed server-side).
	C <-chan ecmsketch.Notification

	c      *Client
	id     string
	ch     chan ecmsketch.Notification
	cancel context.CancelFunc

	mu  sync.Mutex
	err error
}

// ID is the server-side subscription ID (e.g. to unsubscribe out of band).
func (s *Subscription) ID() string { return s.id }

// Err reports why the stream ended: nil after a clean Close or a server-side
// unsubscribe, the terminal transport error otherwise.
func (s *Subscription) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

func (s *Subscription) setErr(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// Close ends the stream and removes the subscription server-side. Safe to
// call more than once.
func (s *Subscription) Close() error {
	s.cancel()
	// Best-effort server-side cleanup; the registry also drops the watcher
	// when the stream's request context ends.
	return s.c.Unsubscribe(s.id)
}

// Subscribe registers standing queries on the server (POST /v1/subscribe)
// and opens the watch stream (GET /v1/watch), delivering typed notifications
// on the returned Subscription's channel. The queries follow the
// ecmsketch.StandingQuery semantics; on coordinator surfaces, top-k queries
// must carry explicit Keys. buffer is the channel depth (<= 0 means 64); a
// consumer that stops draining stalls only its own channel — the server
// sheds it and the gap surfaces as a StandingDropped notification after the
// reconnect resume.
func (c *Client) Subscribe(ctx context.Context, queries []ecmsketch.StandingQuery, buffer int) (*Subscription, error) {
	if buffer <= 0 {
		buffer = 64
	}
	body, err := standing.MarshalSubscribeJSON(queries)
	if err != nil {
		return nil, err
	}
	var rep struct {
		Subscription string `json:"subscription"`
	}
	if err := c.request(http.MethodPost, "/v1/subscribe", nil, bytes.NewReader(body), "application/json", &rep); err != nil {
		return nil, err
	}
	if rep.Subscription == "" {
		return nil, fmt.Errorf("ecmclient: subscribe reply carried no subscription ID")
	}
	ctx, cancel := context.WithCancel(ctx)
	sub := &Subscription{
		c:      c,
		id:     rep.Subscription,
		ch:     make(chan ecmsketch.Notification, buffer),
		cancel: cancel,
	}
	sub.C = sub.ch
	go sub.watchLoop(ctx)
	return sub, nil
}

// Unsubscribe removes a subscription server-side (DELETE /v1/subscribe);
// its watch streams end with a bye event.
func (c *Client) Unsubscribe(id string) error {
	return c.request(http.MethodDelete, "/v1/subscribe", url.Values{"sub": {id}}, nil, "", nil)
}

// watchLoop runs the connect → stream → backoff-and-resume cycle until the
// context ends or the server terminates the subscription.
func (s *Subscription) watchLoop(ctx context.Context) {
	defer close(s.ch)
	var (
		lastSeq uint64
		haveSeq bool // false only before the first hello
		backoff = 200 * time.Millisecond
	)
	for {
		terminal, err := s.watchOnce(ctx, &lastSeq, &haveSeq)
		if terminal || ctx.Err() != nil {
			if err != nil && ctx.Err() == nil {
				s.setErr(err)
			}
			return
		}
		// A stream that made progress resets the backoff ladder.
		if err == nil {
			backoff = 200 * time.Millisecond
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 2*time.Second {
			backoff = 2 * time.Second
		}
	}
}

// watchOnce opens one GET /v1/watch stream and pumps it. terminal reports
// that the loop must stop: the context ended, the server said bye or 404
// (subscription gone), or the request cannot be built.
func (s *Subscription) watchOnce(ctx context.Context, lastSeq *uint64, haveSeq *bool) (terminal bool, err error) {
	u := s.c.base + "/v1/watch?sub=" + url.QueryEscape(s.id)
	if *haveSeq {
		u += "&resume=" + strconv.FormatUint(*lastSeq, 10)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return true, err
	}
	if s.c.token != "" {
		req.Header.Set("Authorization", "Bearer "+s.c.token)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := s.c.hc.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusNotFound, http.StatusUnauthorized, http.StatusForbidden:
		// Gone or never ours; retrying would loop forever.
		return true, fmt.Errorf("ecmclient: GET /v1/watch: %s", resp.Status)
	default:
		return false, fmt.Errorf("ecmclient: GET /v1/watch: %s", resp.Status)
	}

	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 4096), 1024*1024)
	var event string
	var data []byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			// Blank line dispatches the accumulated event.
			if done := s.dispatch(ctx, event, data, lastSeq, haveSeq); done {
				return true, nil
			}
			event, data = "", nil
		case line[0] == ':': // keep-alive comment
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			data = append(data, line[len("data: "):]...)
		}
		// id: and retry: fields are redundant with the payload's seq and the
		// client's own backoff; skipped.
	}
	if err := sc.Err(); err != nil && ctx.Err() == nil {
		return false, err
	}
	return ctx.Err() != nil, nil
}

// dispatch handles one SSE event. Returns true when the stream is finished
// for good (bye).
func (s *Subscription) dispatch(ctx context.Context, event string, data []byte, lastSeq *uint64, haveSeq *bool) bool {
	switch event {
	case "hello":
		var h struct {
			Seq string `json:"seq"`
		}
		if json.Unmarshal(data, &h) == nil && !*haveSeq {
			// First attach: gap accounting starts at the server's current
			// sequence; reconnects keep their own lastSeq and resume.
			if v, err := strconv.ParseUint(h.Seq, 10, 64); err == nil {
				*lastSeq, *haveSeq = v, true
			}
		}
	case "notify":
		n, err := standing.ParseNotificationJSON(data)
		if err != nil {
			return false
		}
		*lastSeq, *haveSeq = n.Seq, true
		s.deliver(ctx, n)
	case "dropped":
		var d struct {
			Missed uint64 `json:"missed"`
		}
		if json.Unmarshal(data, &d) == nil && d.Missed > 0 {
			s.deliver(ctx, ecmsketch.Notification{Kind: ecmsketch.StandingDropped, Missed: d.Missed})
		}
	case "bye":
		return true
	}
	return false
}

// deliver blocks until the consumer takes the notification (or the context
// ends): the client-side channel applies backpressure to this stream only —
// the server's own queue bound is what protects ingest.
func (s *Subscription) deliver(ctx context.Context, n ecmsketch.Notification) {
	select {
	case s.ch <- n:
	case <-ctx.Done():
	}
}
