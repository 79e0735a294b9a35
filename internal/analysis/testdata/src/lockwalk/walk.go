// Package lockwalk is a qoslint fixture for the statement kinds the
// held-lock walk must enter: labeled statements, var declarations,
// send-statement operands, go-statement arguments, switch case
// expressions, type-switch headers, inc/dec operands and assignment
// targets. Each shape below holds t.mu across a call into a locking
// helper (mixerlock), a sleeping helper (blockunderlock), or a helper
// that takes another mutex (lockorder).
package lockwalk

import (
	"sync"
	"time"
)

type T struct {
	mu     sync.Mutex
	ch     chan int
	counts map[int]int
	n      int
}

func (t *T) get() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

func (t *T) helper() {}

func (t *T) nap() bool {
	time.Sleep(time.Millisecond)
	return true
}

func (t *T) load() any { return t.get() }

func consume(int) {}

// Plain is the reference shape: flagged twice, by blockunderlock for
// the sleep and by mixerlock for the call into get.
func (t *T) Plain() {
	for {
		t.mu.Lock()
		time.Sleep(time.Millisecond)
		_ = t.get()
		t.mu.Unlock()
	}
}

// Labeled is Plain behind a label: the same two findings.
func (t *T) Labeled() {
outer:
	for {
		t.mu.Lock()
		time.Sleep(time.Millisecond)
		_ = t.get()
		t.mu.Unlock()
		if t.n > 0 {
			break outer
		}
	}
}

// Decl reads under the lock through a var declaration: flagged like
// the short variable declaration beside it.
func (t *T) Decl() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	var x = t.get()
	y := t.get()
	return x + y
}

// Send evaluates its operand under the lock: the send is flagged by
// blockunderlock, the operand's call by mixerlock.
func (t *T) Send() {
	t.mu.Lock()
	t.ch <- t.get()
	t.mu.Unlock()
}

// Spawn evaluates the go statement's argument in the spawner, under
// the lock: flagged. The spawned call itself runs lock-free.
func (t *T) Spawn() {
	t.mu.Lock()
	go consume(t.get())
	t.mu.Unlock()
}

// Cases evaluates switch case expressions under the lock: the locking
// call and the sleeping call are both flagged.
func (t *T) Cases() {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case t.get() > 0:
	case t.nap():
	}
}

// TypeSwitch evaluates its header under the lock: flagged.
func (t *T) TypeSwitch() {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch v := t.load().(type) {
	case int:
		t.n = v + t.get()
	}
}

// Targets evaluates index operands on the assignment and inc/dec
// targets under the lock: both flagged.
func (t *T) Targets() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.counts[t.get()]++
	t.counts[t.get()] = 1
}

// SpawnLiteral hands the goroutine a literal: its body runs lock-free,
// so nothing is flagged.
func (t *T) SpawnLiteral() {
	t.mu.Lock()
	go func() { _ = t.get() }()
	t.mu.Unlock()
}

type Pool struct{ mu sync.Mutex }

var pool Pool

func (p *Pool) take() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return 1
}

// Borrow nests Pool.mu under T.mu through a var declaration behind a
// label, and Return nests them the other way: the cycle is flagged at
// both sites.
func (t *T) Borrow() {
	t.mu.Lock()
	defer t.mu.Unlock()
retry:
	var k = pool.take()
	if k == 0 {
		goto retry
	}
}

func (t *T) Return() {
	pool.mu.Lock()
	t.mu.Lock()
	t.mu.Unlock()
	pool.mu.Unlock()
}
