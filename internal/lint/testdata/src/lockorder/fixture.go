// Package lockorder mirrors the engine's ranked lock-bearing structs by
// type and field name, which is how the analyzer identifies lock classes.
package lockorder

import "sync"

type Engine struct{ mu sync.Mutex }

type Manager struct {
	wgMu sync.Mutex
}

type tableShard struct{ mu sync.RWMutex }

type Log struct{ mu sync.Mutex }
