// Package core exercises guardcheck's annotation checking.  (guardcheck has
// no package scoping — annotations are load-bearing wherever they appear.)
package core

import "sync"

// Coordinator mirrors the sharded-engine shape: two mutexes, each guarding
// its own annotated fields.
type Coordinator struct {
	mu    sync.Mutex
	state int // guarded by mu

	ingestMu sync.Mutex
	appended int // guarded by ingestMu
}

// Shared mirrors the device shape with an RWMutex.
type Shared struct {
	rw   sync.RWMutex
	data []byte // guarded by rw
}

func unguardedRead(c *Coordinator) int {
	return c.state // want "c.state accessed without holding c.mu"
}

func wrongMutex(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.appended // want "c.appended accessed without holding c.ingestMu"
}

func guardedRead(c *Coordinator) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

func guardedWindow(c *Coordinator) int {
	c.mu.Lock()
	s := c.state
	c.mu.Unlock()
	c.state = s + 1 // want "c.state accessed without holding c.mu"
	return s
}

func bothMutexes(c *Coordinator) {
	c.ingestMu.Lock()
	c.appended++
	c.ingestMu.Unlock()
	c.mu.Lock()
	c.state++
	c.mu.Unlock()
}

func rlockRead(s *Shared) byte {
	s.rw.RLock()
	defer s.rw.RUnlock()
	return s.data[0]
}

func unguardedWrite(s *Shared) {
	s.data = nil // want "s.data accessed without holding s.rw"
}

// applyLocked documents its contract by name: the caller holds c.mu.
func applyLocked(c *Coordinator, n int) {
	c.state += n
}

// drainState is exempt by doc contract: caller holds c.mu.
func drainState(c *Coordinator) int {
	s := c.state
	c.state = 0
	return s
}

func localConstruction() int {
	c := &Coordinator{}
	c.state = 7 // not yet shared: exempt
	return c.state
}

func constructorCall() *Coordinator {
	c := NewCoordinator()
	c.state = 1 // not yet shared: exempt
	return c
}

// NewCoordinator builds a coordinator (constructor-shaped name).
func NewCoordinator() *Coordinator { return &Coordinator{} }

func deliberateTeardown(c *Coordinator) int {
	//ntalint:ignore guardcheck fixture: single-owner teardown reads without the lock by design.
	return c.state
}
