package core

import (
	"errors"
	"sync"
)

// store is a byte-bounded map of per-graph state that is built once
// and then shared: the process keeps two, tables (rank tables) and
// faultRouting (fault routers and arborescence families). A key
// builds at most once while it is resident, however many callers ask
// for it at the same time. Finished entries are evicted
// least-recently-used when a new key needs room under cap; in-flight
// builds never are. A failed build stays as a zero-byte entry that
// returns its error, so it is not retried.
type store[K comparable, V any] struct {
	cap int64

	mu     sync.Mutex
	m      map[K]*storeEntry[V]
	bytes  int64 // sizes of the resident entries, built or in flight
	clock  int64 // source of lastUse stamps
	builds int64 // builds started
}

// storeEntry is one key's slot: done closes when the build finishes,
// publishing v and err. size, lastUse and built are guarded by the
// store mutex.
type storeEntry[V any] struct {
	done    chan struct{}
	v       V
	err     error
	size    int64
	lastUse int64
	built   bool
}

var (
	// errBuilding: a non-waiting get started the key's build, or found
	// it still in flight.
	errBuilding = errors.New("core: store: build in flight")
	// errNoRoom: the key's size exceeds the cap, or evicting every
	// finished entry would not free enough; nothing was built.
	errNoRoom = errors.New("core: store: no room")
)

func newStore[K comparable, V any](cap int64) *store[K, V] {
	return &store[K, V]{cap: cap, m: map[K]*storeEntry[V]{}}
}

// get returns key's value, building it with build and charging size
// bytes on first use. With wait the caller blocks until the build
// (its own or a concurrent caller's) finishes; without, the build
// runs in the background and get reports errBuilding until it is
// done.
func (s *store[K, V]) get(key K, size int64, wait bool, build func(K) (V, error)) (V, error) {
	var zero V
	s.mu.Lock()
	s.clock++
	if e := s.m[key]; e != nil {
		e.lastUse = s.clock
		s.mu.Unlock()
		select {
		case <-e.done:
		default:
			if !wait {
				return zero, errBuilding
			}
			<-e.done
		}
		return e.v, e.err
	}
	if !s.evictLocked(size) {
		s.mu.Unlock()
		return zero, errNoRoom
	}
	e := &storeEntry[V]{done: make(chan struct{}), size: size, lastUse: s.clock}
	s.m[key] = e
	s.bytes += size
	s.builds++
	s.mu.Unlock()
	if !wait {
		go s.finish(key, e, build)
		return zero, errBuilding
	}
	s.finish(key, e, build)
	return e.v, e.err
}

// finish runs key's build and publishes the result in e.
func (s *store[K, V]) finish(key K, e *storeEntry[V], build func(K) (V, error)) {
	v, err := build(key)
	s.mu.Lock()
	e.v, e.err, e.built = v, err, true
	if err != nil {
		s.bytes -= e.size
		e.size = 0
	}
	s.mu.Unlock()
	close(e.done)
}

// evictLocked frees room for need more bytes by removing finished
// entries least recently used first, and reports whether the store
// now has room. Callers hold s.mu.
func (s *store[K, V]) evictLocked(need int64) bool {
	if need > s.cap {
		return false
	}
	for s.bytes+need > s.cap {
		var victimKey K
		var victim *storeEntry[V]
		for key, e := range s.m {
			if e.built && (victim == nil || e.lastUse < victim.lastUse) {
				victim, victimKey = e, key
			}
		}
		if victim == nil {
			return false
		}
		delete(s.m, victimKey)
		s.bytes -= victim.size
	}
	return true
}

// usage reports the resident bytes, the cap and the builds started.
func (s *store[K, V]) usage() (bytes, capacity, builds int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes, s.cap, s.builds
}
