package lockorder

// BackwardOrder takes the log mutex before the engine facade: rank 6 is
// held while rank 1 is acquired.
func BackwardOrder(l *Log, e *Engine) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e.mu.Lock() // want "violates the documented lock order"
	defer e.mu.Unlock()
}

// ShardBeforeGuard grabs a cache stripe lock and then the write-graph
// guard that is documented to come first.
func ShardBeforeGuard(sh *tableShard, m *Manager) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m.wgMu.Lock() // want "violates the documented lock order"
	defer m.wgMu.Unlock()
}

// Leak never releases the lock it takes.
func Leak(e *Engine) { // leaks on any early return
	e.mu.Lock() // want "no matching Unlock"
}

// ReadLeak never releases a read lock.
func ReadLeak(sh *tableShard) {
	sh.mu.RLock() // want "no matching RUnlock"
}
