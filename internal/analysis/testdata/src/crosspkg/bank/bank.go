// Package bank is the upper half of the cross-package lock fixture.
// mixerlock looks at one package at a time, so calls into ledger's
// locking helpers are outside its scope; lockorder and blockunderlock
// see the whole module and follow them.
package bank

import (
	"sync"

	"crosspkg/ledger"
)

type Bank struct {
	mu      sync.Mutex
	balance int
}

// Deposit calls ledger's locking helper while holding b.mu: mixerlock
// stays silent (the helper is in another package), and lockorder
// records the Bank.mu -> Ledger.Mu edge at the call.
func (b *Bank) Deposit(n int) {
	b.mu.Lock()
	b.balance += n
	ledger.Main.Post()
	b.mu.Unlock()
}

// Reconcile takes the two locks in the reverse order: with Deposit
// this is a cross-package ABBA; both nesting sites are flagged.
func (b *Bank) Reconcile() {
	ledger.Main.Mu.Lock()
	b.mu.Lock()
	b.balance = 0
	b.mu.Unlock()
	ledger.Main.Mu.Unlock()
}

// Close calls ledger's sleeping helper while holding b.mu:
// blockunderlock follows the call across the package boundary.
func (b *Bank) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	ledger.Main.Settle()
}

// Audit releases before calling out: no finding.
func (b *Bank) Audit() int {
	b.mu.Lock()
	n := b.balance
	b.mu.Unlock()
	ledger.Main.Settle()
	return n
}
