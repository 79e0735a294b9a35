package mixer

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// lease is one admission in TestLeaseRenewRevokeLinearizable. lastOK is
// one more than the epoch read just before the grant's last successful
// LeaseDelay (0: none yet), so the renewal itself happened at that
// epoch or later. revokedAt is the epoch of the Rebalance that revoked
// the grant (0: not revoked).
type lease struct {
	g         *Grant
	lastOK    atomic.Uint64
	released  atomic.Bool
	revokedAt atomic.Uint64
}

// TestLeaseRenewRevokeLinearizable races lock-free lease renewals
// against the reaper and Release (run it under -race). Renewers read
// LeaseDelay in a loop; the stallers among them wait after each renewal
// until the epoch reaches the edge of the lease window, or one or two
// epochs past it, before renewing again, so renewals keep landing on
// the reaper's boundary. One goroutine rebalances; another releases
// grants at random. It asserts that
//
//   - no grant is revoked by a Rebalance that moved the epoch to at most
//     E+K after a successful renewal at epoch E;
//   - after Release or a revocation, every later LeaseDelay returns
//     ErrGrantRevoked;
//   - Σ granted ≤ total after every Rebalance.
func TestLeaseRenewRevokeLinearizable(t *testing.T) {
	const (
		k         = 2
		renewers  = 6
		epochs    = 4000
		releaseEv = 7 // the releaser retires a grant every releaseEv epochs
	)
	spec := testSpec()
	b := mustBudget(t, spec.MinNeed.MulSat(renewers), Fair)
	b.SetLease(k)

	var (
		mu     sync.Mutex // guards leases and current
		leases []*lease
		// current is each renewer's live admission.
		current [renewers]*lease
		stop    atomic.Bool
		wg      sync.WaitGroup
	)
	admit := func(i int) *lease {
		g, err := b.Admit(spec)
		if err != nil {
			t.Errorf("renewer %d: admit: %v", i, err)
			return nil
		}
		l := &lease{g: g}
		mu.Lock()
		leases = append(leases, l)
		current[i] = l
		mu.Unlock()
		return l
	}
	// waitEpoch spins until the epoch reaches e or the test stops.
	waitEpoch := func(e uint64) {
		for b.epoch.Load() < e && !stop.Load() {
			runtime.Gosched()
		}
	}

	for i := 0; i < renewers; i++ {
		l := admit(i)
		if l == nil {
			t.FailNow()
		}
		wg.Add(1)
		go func(i int, l *lease) {
			defer wg.Done()
			staller := i%2 == 1
			for n := 0; !stop.Load(); n++ {
				retired := l.released.Load() || l.g.Revoked()
				pre := b.epoch.Load()
				_, err := l.g.LeaseDelay()
				if err == nil {
					if retired {
						t.Errorf("renewer %d: LeaseDelay renewed a grant already released or revoked", i)
						return
					}
					l.lastOK.Store(pre + 1)
					if staller {
						// Renew again at the window's edge, or past it.
						waitEpoch(pre + k + uint64(n%4)/2)
					} else {
						runtime.Gosched()
					}
					continue
				}
				if !errors.Is(err, ErrGrantRevoked) {
					t.Errorf("renewer %d: LeaseDelay: %v", i, err)
					return
				}
				// Dead stays dead.
				for j := 0; j < 3; j++ {
					if _, err := l.g.LeaseDelay(); !errors.Is(err, ErrGrantRevoked) {
						t.Errorf("renewer %d: LeaseDelay after ErrGrantRevoked: %v", i, err)
						return
					}
				}
				if l = admit(i); l == nil {
					return
				}
			}
		}(i, l)
	}

	wg.Add(1)
	go func() { // releaser
		defer wg.Done()
		for n := uint64(1); !stop.Load(); n++ {
			waitEpoch(n * releaseEv)
			mu.Lock()
			l := current[n%renewers]
			mu.Unlock()
			l.g.Release()
			l.released.Store(true)
			if _, err := l.g.LeaseDelay(); !errors.Is(err, ErrGrantRevoked) {
				t.Errorf("LeaseDelay after Release: %v", err)
				return
			}
		}
	}()

	// The rebalancer is the only goroutine that advances the epoch, so
	// a grant it first sees revoked after its Rebalance to epoch e was
	// revoked by that Rebalance.
	for e := uint64(1); e <= epochs && !t.Failed(); e++ {
		b.Rebalance()
		if got := b.epoch.Load(); got != e {
			t.Errorf("epoch %d after Rebalance %d", got, e)
		}
		if st := b.Stats(); st.Granted > st.Total {
			t.Errorf("epoch %d: granted %v > total %v", e, st.Granted, st.Total)
		}
		mu.Lock()
		for _, l := range leases {
			if l.revokedAt.Load() == 0 && l.g.Revoked() {
				l.revokedAt.Store(e)
			}
		}
		mu.Unlock()
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()

	revoked := 0
	for _, l := range leases {
		r := l.revokedAt.Load()
		if r == 0 {
			continue
		}
		revoked++
		if ok := l.lastOK.Load(); ok != 0 && r <= ok-1+k {
			t.Errorf("grant renewed at epoch ≥ %d was revoked by the Rebalance to epoch %d (K=%d)", ok-1, r, k)
		}
	}
	if revoked == 0 {
		t.Error("no grant was revoked: the stallers never outlived their lease")
	}
}
