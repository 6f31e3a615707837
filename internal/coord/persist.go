package coord

// Durable coordinator state. ExportState/RestoreState round-trip the
// incrementally maintained merged root through the durable snapshot blob
// codec: the standard Marshal bytes plus the delta-serving sidecars (epoch
// and arrival-mutation version vector) the wire codec deliberately leaves
// out. A coordinator restarted over the blob resumes answering
// DeltaSnapshot from the same epoch and cell versions, so a stacked parent
// holding a pre-restart cursor keeps pulling deltas instead of
// re-baselining — the same contract a durable leaf engine honors.
//
// Only the root travels; per-site receiver baselines do not. The first
// Refresh after a restore therefore re-pulls the sites in full and
// re-derives every root cell in place (the restored contributor set is
// empty, which Refresh already treats as a membership change) — patching
// through ordinary arrival mutations, so the epoch survives and versions
// only advance. If the sites' parameters no longer match the restored
// root, that same Refresh rebuilds from scratch under a fresh epoch,
// exactly as it handles a live parameter change.

import (
	"fmt"

	"ecmsketch/internal/core"
	"ecmsketch/internal/durable"
)

// ExportState serializes the merged root with its delta-serving identity.
// Returns nil before the first successful Refresh (or restore) — there is
// no state worth persisting yet.
func (c *Coordinator) ExportState() []byte {
	c.rootMu.Lock()
	defer c.rootMu.Unlock()
	if c.root == nil {
		return nil
	}
	ver, vers := c.root.VersionVector()
	snap := &durable.Snapshot{
		Epoch: c.root.Epoch(),
		Gen:   1,
		Now:   uint64(c.root.Now()),
		Parts: []durable.SnapshotPart{{Enc: c.root.Marshal(), Ver: ver, Vers: vers}},
	}
	return snap.Encode()
}

// RestoreState rebuilds the merged root from an ExportState blob. Any
// decode or validation failure leaves the coordinator untouched — it
// simply bootstraps from the sites as if nothing had been persisted.
func (c *Coordinator) RestoreState(blob []byte) error {
	snap, err := durable.DecodeSnapshot(blob)
	if err != nil {
		return fmt.Errorf("coord: durable root: %w", err)
	}
	if len(snap.Parts) != 1 {
		return fmt.Errorf("coord: durable root has %d parts, want 1", len(snap.Parts))
	}
	sk, err := core.Unmarshal(snap.Parts[0].Enc)
	if err != nil {
		return fmt.Errorf("coord: durable root: %w", err)
	}
	sk.SetEpoch(snap.Epoch)
	if err := sk.RestoreVersionVector(snap.Parts[0].Ver, snap.Parts[0].Vers); err != nil {
		return fmt.Errorf("coord: durable root: %w", err)
	}
	c.rootMu.Lock()
	defer c.rootMu.Unlock()
	c.root = sk
	c.contrib = nil
	c.frozen.Store(nil)
	return nil
}
