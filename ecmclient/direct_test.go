package ecmclient_test

import (
	"testing"

	"ecmsketch"
)

// TestClientQueryDirect pins the client's zero-merge read path: QueryDirect
// forwards through POST /v1/query?direct=1, point answers match the batched
// ones on a quiet engine, aggregates are rejected by the server, and the
// rejection is recorded in the sticky error like any transport failure.
func TestClientQueryDirect(t *testing.T) {
	_, c := startServer(t)
	for i := ecmsketch.Tick(1); i <= 60; i++ {
		if err := c.AddEvents([]ecmsketch.Event{{Key: ecmsketch.KeyString("/home"), Tick: i, N: 1}}); err != nil {
			t.Fatal(err)
		}
	}
	q := ecmsketch.QueryBatch{
		Keys:  []uint64{ecmsketch.KeyString("/home"), ecmsketch.KeyString("/miss")},
		Range: 10000,
	}
	batched, err := c.QueryBatch(q)
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	direct, err := c.QueryDirect(q)
	if err != nil {
		t.Fatalf("QueryDirect: %v", err)
	}
	if len(direct.Estimates) != 2 {
		t.Fatalf("direct estimates length %d, want 2", len(direct.Estimates))
	}
	for i := range q.Keys {
		if direct.Estimates[i] != batched.Estimates[i] {
			t.Fatalf("estimate %d: direct %v != batched %v", i, direct.Estimates[i], batched.Estimates[i])
		}
	}
	if direct.Range != 10000 {
		t.Fatalf("direct range %d, want 10000", direct.Range)
	}

	if _, err := c.QueryDirect(ecmsketch.QueryBatch{Keys: q.Keys, Total: true}); err == nil {
		t.Fatal("QueryDirect accepted a Total aggregate")
	}
	if c.Err() == nil {
		t.Fatal("aggregate rejection not recorded in sticky error")
	}
}
