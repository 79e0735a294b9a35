// Package ledger is the lower half of the cross-package lock fixture:
// a mutex-guarded ledger whose helpers the bank package calls while
// holding its own lock.
package ledger

import (
	"sync"
	"time"
)

type Ledger struct {
	Mu      sync.Mutex
	entries int
}

var Main Ledger

// Post takes the ledger lock.
func (l *Ledger) Post() {
	l.Mu.Lock()
	l.entries++
	l.Mu.Unlock()
}

// Settle waits for the clearing window; it takes no lock but sleeps.
func (l *Ledger) Settle() {
	time.Sleep(time.Millisecond)
}
