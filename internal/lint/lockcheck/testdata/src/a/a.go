// Package a is the lockcheck corpus: pairing along all paths, blocking
// while holding, and by-value lock results — positive and negative cases.
package a

import (
	"net/http"
	"os"
	"sync"
)

type guarded struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	n    int
	ch   chan int
	file *os.File
	cli  *http.Client
}

// --- pairing: negatives (clean) ---

// DeferPair is the canonical clean shape.
func (g *guarded) DeferPair() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}

// ExplicitPairAllPaths unlocks on both the early return and the main
// path.
func (g *guarded) ExplicitPairAllPaths(x bool) int {
	g.mu.Lock()
	if x {
		g.mu.Unlock()
		return 0
	}
	g.n++
	g.mu.Unlock()
	return g.n
}

// PanicPathExempt never unlocks on the dying path; panic exits the
// program, not the function, so it is not a leak.
func (g *guarded) PanicPathExempt(x bool) {
	g.mu.Lock()
	if x {
		panic("poisoned")
	}
	g.mu.Unlock()
}

// RWPair pairs the read side.
func (g *guarded) RWPair() int {
	g.rw.RLock()
	defer g.rw.RUnlock()
	return g.n
}

// ConditionalLockWithDefer locks and registers its release on the same
// path; joining with the unlocked path is not a pairing violation.
func (g *guarded) ConditionalLockWithDefer(x bool) {
	if x {
		g.mu.Lock()
		defer g.mu.Unlock()
		g.n++
	}
	g.n--
}

// DeferredClosureUnlock releases inside a deferred literal.
func (g *guarded) DeferredClosureUnlock() {
	g.mu.Lock()
	defer func() {
		g.n = 0
		g.mu.Unlock()
	}()
	g.n++
}

// --- pairing: positives ---

// NeverUnlocked holds the lock to return on every path.
func (g *guarded) NeverUnlocked() int {
	g.mu.Lock() // want `g\.mu\.Lock\(\) is never released in NeverUnlocked`
	return g.n
}

// EarlyReturnLeak misses the unlock on the early return only.
func (g *guarded) EarlyReturnLeak(x bool) int {
	g.mu.Lock() // want `released on some paths through EarlyReturnLeak but not others`
	if x {
		return 0
	}
	g.mu.Unlock()
	return g.n
}

// RWSideMismatch releases the write side it never took; the read side
// stays held.
func (g *guarded) RWSideMismatch() int {
	g.rw.RLock() // want `g\.rw\.RLock\(\) is never released in RWSideMismatch`
	g.rw.Unlock()
	return g.n
}

// --- blocking while holding ---

// SendWhileHolding blocks on a channel inside the critical section.
func (g *guarded) SendWhileHolding(v int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ch <- v // want `channel send while holding g\.mu`
}

// RecvWhileHolding blocks on a receive.
func (g *guarded) RecvWhileHolding() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return <-g.ch // want `channel receive while holding g\.mu`
}

// SelectWhileHolding blocks on a defaultless select.
func (g *guarded) SelectWhileHolding() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	select { // want `select with no default case while holding g\.mu`
	case v := <-g.ch:
		return v
	}
}

// SyncWhileHolding fsyncs under the lock.
func (g *guarded) SyncWhileHolding() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.file.Sync() // want `\(\*os\.File\)\.Sync while holding g\.mu`
}

// RoundTripWhileHolding performs an HTTP request under the lock.
func (g *guarded) RoundTripWhileHolding(req *http.Request) (*http.Response, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cli.Do(req) // want `HTTP round-trip \(\(\*http\.Client\)\.Do\) while holding g\.mu`
}

// UnlockedBeforeBlocking releases first: clean.
func (g *guarded) UnlockedBeforeBlocking() int {
	g.mu.Lock()
	g.n++
	g.mu.Unlock()
	return <-g.ch
}

// NonBlockingSelect has a default case: clean.
func (g *guarded) NonBlockingSelect() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case v := <-g.ch:
		return v
	default:
		return 0
	}
}

// --- copylocks in results (go vet's copylocks misses these) ---

// ByValueReturn forks the lock on the way out.
func ByValueReturn() guarded { // want `result passes a value containing sync\.Mutex by value`
	return guarded{}
}

// PointerReturn is the clean shape.
func PointerReturn() *guarded {
	return &guarded{}
}
