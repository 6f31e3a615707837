package coord

import (
	"bytes"
	"fmt"
	"testing"

	"ecmsketch/internal/core"
	"ecmsketch/internal/window"
)

// pairwiseTree is the reference Cluster.AggregateTree is held to: the
// hand-rolled fold a coordinator used to run beside Refresh. Every site is
// pulled in full and charged its payload size; each level then merges
// adjacent pairs with core.Merge, charging both children, and promotes an
// odd node unmerged, charging it again; internal nodes are charged their
// encoding size. It returns the root and the tree height.
func pairwiseTree(t *testing.T, sites []*core.Sketch, net *Network) (*core.Sketch, int) {
	t.Helper()
	level := make([]*core.Sketch, len(sites))
	sizes := make([]int, len(sites))
	for i, s := range sites {
		payload, cur, full, size, err := NewLocalSite(fmt.Sprintf("site-%d", i), s).Delta(core.Cursor{})
		if err != nil {
			t.Fatal(err)
		}
		var ds core.DeltaState
		if err := ds.Apply(payload, cur, full); err != nil {
			t.Fatal(err)
		}
		if level[i], err = ds.Materialize(); err != nil {
			t.Fatal(err)
		}
		sizes[i] = size
	}
	height := 0
	for len(level) > 1 {
		var next []*core.Sketch
		var nsizes []int
		for i := 0; i < len(level); i += 2 {
			net.Charge(sizes[i])
			if i+1 == len(level) {
				next, nsizes = append(next, level[i]), append(nsizes, sizes[i])
				continue
			}
			net.Charge(sizes[i+1])
			m, err := core.Merge(level[i], level[i+1])
			if err != nil {
				t.Fatalf("aggregation at height %d: %v", height, err)
			}
			next, nsizes = append(next, m), append(nsizes, len(m.Marshal()))
		}
		level, sizes = next, nsizes
		height++
	}
	return level[0], height
}

// TestClusterTreeMatchesPairwiseOracle: the tree of Coordinators returns
// the same root bytes and height, and charges the same bytes and messages,
// as the pairwise fold, for even, odd and single-site clusters of every
// synopsis.
func TestClusterTreeMatchesPairwiseOracle(t *testing.T) {
	for _, algo := range []window.Algorithm{window.AlgoEH, window.AlgoDW, window.AlgoRW} {
		p := clusterParams()
		p.Algorithm = algo
		p.Epsilon = 0.25
		p.UpperBound = 1 << 12
		for _, n := range []int{1, 2, 3, 5, 7, 8, 33} {
			t.Run(fmt.Sprintf("%v/%d", algo, n), func(t *testing.T) {
				cluster, err := NewCluster(p, n)
				if err != nil {
					t.Fatal(err)
				}
				cluster.IngestAll(clusterEvents(t, 3000, n))
				root, height, err := cluster.AggregateTree()
				if err != nil {
					t.Fatal(err)
				}
				var net Network
				want, wantHeight := pairwiseTree(t, cluster.Sites(), &net)
				if height != wantHeight {
					t.Errorf("height %d, want %d", height, wantHeight)
				}
				if !bytes.Equal(root.Marshal(), want.Marshal()) {
					t.Error("root differs from the pairwise fold's")
				}
				if got := cluster.Network(); got.Bytes() != net.Bytes() || got.Messages() != net.Messages() {
					t.Errorf("charged %d B in %d messages, want %d B in %d", got.Bytes(), got.Messages(), net.Bytes(), net.Messages())
				}
				if root.Count() != 3000 {
					t.Errorf("root count %d, want 3000", root.Count())
				}
			})
		}
	}
}
