package cache

import (
	"fmt"
	"slices"
	"time"

	"logicallog/internal/graph"
	"logicallog/internal/op"
	"logicallog/internal/stable"
	"logicallog/internal/wal"
)

// This file is the standby side of log shipping (internal/ship): mirroring
// the primary's installation schedule from its install/flush records.
//
// A warm standby applies the primary's operation records through the normal
// redo machinery, so its cache, write graph, and pending (rSI) bookkeeping
// track the primary's exactly — records arrive strictly in LSN order, and an
// install record was appended on the primary in the same engine critical
// section as the flush it describes, so at the moment the record is applied
// here the standby's cached value of every flushed object equals the value
// the primary flushed (the InstallNode invariant: the last writer of each
// var is in the installed node).  Mirroring therefore flushes *cached*
// standby state, never shipped values; logical operations were replayed
// against the standby's own recoverable state to produce it.
//
// Objects whose updates were skipped at bootstrap (the backup image already
// carried them, vSI witness) are simply absent from the cache and the write
// graph; mirroring skips them — the stable store is already current.

// MirrorInstall applies a primary install record to the standby: it flushes
// the record's flushed objects from cached state with the configured
// atomicity mechanism, removes the installed operations' write-graph nodes,
// and advances rSIs for flushed and unflushed objects alike.  It returns the
// LSNs of the operations installed (for tracing).  The caller must already
// have forced the standby's log through the record's LSN (WAL protocol).
func (m *Manager) MirrorInstall(rec *wal.InstallRecord) ([]op.SI, error) {
	installed := make(map[op.SI]bool, len(rec.Ops))
	for _, lsn := range rec.Ops {
		installed[lsn] = true
	}

	// Flush batch from cached standby state.
	entries := make([]stable.Entry, 0, len(rec.Flushed))
	for _, f := range rec.Flushed {
		e, ok := m.lookup(f.ID)
		if !ok {
			continue // bootstrap-skipped: stable store already current
		}
		entries = append(entries, stable.Entry{
			ID:     f.ID,
			Val:    e.val,
			VSI:    e.vsi,
			Delete: !e.exists,
		})
	}
	if err := m.writeBatchRetry(entries); err != nil {
		return nil, err
	}

	// The installed operations leave the write graph.  Their nodes are
	// minimal here whenever they were minimal on the primary: the standby
	// applied the same operation prefix, so every edge it derives also
	// exists on the primary (bootstrap skips can only remove edges).
	if err := m.removeInstalledNodes(rec.Ops); err != nil {
		return nil, err
	}

	m.obs.installs.Inc()
	m.obs.objectsFlushed.Add(int64(len(entries)))
	m.obs.installedNotFlushed.Add(int64(len(rec.Unflushed)))
	if len(entries) > 1 {
		m.obs.multiObjectFlushes.Inc()
	}

	// Advance rSIs exactly as the primary did (Section 5): flushed objects
	// come clean, unflushed (Notx) objects stay dirty at the lSI of the
	// blind write that made them unexposed.
	for _, f := range rec.Flushed {
		e, ok := m.lookup(f.ID)
		if !ok {
			continue
		}
		e.pending = prunePending(e.pending, installed)
		if len(e.pending) != 0 {
			return nil, fmt.Errorf("cache: mirror: flushed object %q still has uninstalled writes %v", f.ID, e.pending)
		}
		e.dirty = false
		if !e.exists {
			m.remove(f.ID)
		}
	}
	for _, u := range rec.Unflushed {
		e, ok := m.lookup(u.ID)
		if !ok {
			continue
		}
		e.pending = prunePending(e.pending, installed)
		e.dirty = len(e.pending) > 0
	}
	return append([]op.SI(nil), rec.Ops...), nil
}

// MirrorFlush applies a primary flush record — the single-object,
// no-Notx special case of an install — to the standby.  It returns the LSNs
// of the operations installed.
func (m *Manager) MirrorFlush(rec *wal.FlushRecord) ([]op.SI, error) {
	e, ok := m.lookup(rec.Object)
	if !ok {
		return nil, nil // bootstrap-skipped: stable store already current
	}
	id, ok := m.wg.NodeOfOp(e.vsi)
	if !ok {
		// All writers of the object were skipped at bootstrap.
		return nil, nil
	}
	view, err := m.wg.Remove(id)
	if err != nil {
		return nil, fmt.Errorf("cache: mirror: flush of %q: %w", rec.Object, err)
	}
	if m.obs.wgNodes != nil {
		m.obs.wgNodes.Set(int64(m.wg.Len()))
		m.obs.wgOps.Set(int64(m.wg.OpCount()))
	}
	entries := []stable.Entry{{
		ID:     rec.Object,
		Val:    e.val,
		VSI:    e.vsi,
		Delete: !e.exists,
	}}
	if err := m.writeBatchRetry(entries); err != nil {
		return nil, err
	}
	installed := make(map[op.SI]bool, len(view.Ops))
	var opLSNs []op.SI
	for _, o := range view.Ops {
		installed[o.LSN] = true
		opLSNs = append(opLSNs, o.LSN)
	}
	e.pending = prunePending(e.pending, installed)
	if len(e.pending) != 0 {
		return nil, fmt.Errorf("cache: mirror: flushed object %q still has uninstalled writes %v", rec.Object, e.pending)
	}
	e.dirty = false
	if !e.exists {
		m.remove(rec.Object)
	}
	m.obs.installs.Inc()
	m.obs.objectsFlushed.Inc()
	return opLSNs, nil
}

// writeBatchRetry writes a flush batch with the strategy's atomicity mode
// and the manager's transient-retry policy (see InstallNode).
func (m *Manager) writeBatchRetry(entries []stable.Entry) error {
	if len(entries) == 0 {
		return nil
	}
	mode := stable.ModeSingle
	if len(entries) > 1 {
		switch m.cfg.Strategy {
		case StrategyFlushTxn:
			mode = stable.ModeFlushTxn
		default:
			mode = stable.ModeShadow
		}
	}
	err := m.store.WriteBatch(entries, mode)
	for attempt := 1; err != nil && attempt <= m.cfg.TransientRetries && wal.IsTransient(err); attempt++ {
		backoff := wal.TransientBackoff(attempt, transientRetryBase, transientRetryCap)
		m.obs.retries.Inc()
		m.obs.retryBackoffNs.ObserveDuration(backoff)
		time.Sleep(backoff)
		err = m.store.WriteBatch(entries, mode)
	}
	return err
}

// removeInstalledNodes removes the write-graph nodes holding the given
// operations, most-minimal first.  Operations absent from the graph
// (bootstrap-skipped) are ignored.  Each pass removes every listed node that
// is minimal, ascending, so the cost is bounded by the listed nodes, not the
// graph.
func (m *Manager) removeInstalledNodes(lsns []op.SI) error {
	var ids []graph.NodeID
	for _, lsn := range lsns {
		if id, ok := m.wg.NodeOfOp(lsn); ok {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	ids = slices.Compact(ids)
	for len(ids) > 0 {
		rest := ids[:0]
		for _, id := range ids {
			if !m.wg.IsMinimal(id) {
				rest = append(rest, id)
				continue
			}
			if _, err := m.wg.Remove(id); err != nil {
				return fmt.Errorf("cache: mirror: %w", err)
			}
		}
		if len(rest) == len(ids) {
			return fmt.Errorf("cache: mirror: %d installed nodes are not minimal", len(ids))
		}
		ids = rest
	}
	if m.obs.wgNodes != nil {
		m.obs.wgNodes.Set(int64(m.wg.Len()))
		m.obs.wgOps.Set(int64(m.wg.OpCount()))
	}
	return nil
}
