package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/word"
)

// storeKeys returns the keys resident in st and their total bytes.
func storeKeys[K comparable, V any](st *store[K, V]) (keys map[K]bool, bytes int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	keys = make(map[K]bool, len(st.m))
	for k := range st.m {
		keys[k] = true
	}
	return keys, st.bytes
}

// getTableFrom is the table tier's waiting get against st.
func getTableFrom(t *testing.T, st *store[[2]int, *rankTable], d, k int) *rankTable {
	t.Helper()
	size, ok := tableSize(d, k)
	if !ok {
		t.Fatalf("tableSize(%d,%d) unrepresentable", d, k)
	}
	tab, err := st.get([2]int{d, k}, size, true, buildRankTable)
	if err != nil {
		t.Fatalf("table (%d,%d): %v", d, k, err)
	}
	if tab.d != d || tab.k != k {
		t.Fatalf("table (%d,%d) is the table for (%d,%d)", d, k, tab.d, tab.k)
	}
	return tab
}

// Cycling through more (d,k) pairs than the cap can hold must stay
// bounded (evicting the least recently used table) and keep serving
// correct tables for whatever is asked, rebuilding evicted ones.
func TestTableStoreLRUCycling(t *testing.T) {
	// Sizes (n²·7): (2,3)=448, (3,2)=567, (2,4)=1792, (2,5)=7168.
	s23, _ := tableSize(2, 3)
	s32, _ := tableSize(3, 2)
	s24, _ := tableSize(2, 4)
	s25, _ := tableSize(2, 5)
	// Room for the three small tables together, or for (2,5) plus
	// only the smallest — admitting (2,5) must force eviction.
	st := newStore[[2]int, *rankTable](s23 + s25)
	get := func(d, k int) *rankTable { return getTableFrom(t, st, d, k) }

	get(2, 3)
	get(3, 2)
	get(2, 4)
	keys, bytes := storeKeys(st)
	if want := s23 + s32 + s24; bytes != want {
		t.Fatalf("store bytes = %d, want %d", bytes, want)
	}

	// Touch (2,3) so (3,2) becomes the LRU victim, then admit (2,5):
	// it needs more room than any single table, so (3,2) and (2,4)
	// both go, in that order.
	get(2, 3)
	get(2, 5)
	keys, bytes = storeKeys(st)
	if keys[[2]int{3, 2}] || keys[[2]int{2, 4}] {
		t.Fatalf("LRU victims not evicted, store has %v", keys)
	}
	if !keys[[2]int{2, 3}] || !keys[[2]int{2, 5}] {
		t.Fatalf("recently used tables evicted, store has %v", keys)
	}
	if want := s23 + s25; bytes != want {
		t.Fatalf("store bytes = %d, want %d", bytes, want)
	}

	// Evicted tables rebuild on demand and answer correctly.
	tab := get(3, 2)
	x := word.MustNew(3, []byte{0, 1})
	y := word.MustNew(3, []byte{1, 2})
	if d := tab.udist[tab.index(x, y)]; d == 0 {
		t.Fatalf("rebuilt (3,2) table has zero distance for distinct vertices")
	}

	// Many cycles: bytes never exceed the cap.
	for i := 0; i < 6; i++ {
		for _, dk := range [][2]int{{2, 3}, {3, 2}, {2, 4}, {2, 5}} {
			get(dk[0], dk[1])
			if _, b := storeKeys(st); b > st.cap {
				t.Fatalf("store bytes %d exceed cap %d", b, st.cap)
			}
		}
	}
}

// A table larger than the whole cap must be refused without trashing
// the resident tables, and without a build.
func TestTableStoreOversizeRefused(t *testing.T) {
	s23, _ := tableSize(2, 3)
	st := newStore[[2]int, *rankTable](s23)

	getTableFrom(t, st, 2, 3) // fits exactly
	s25, _ := tableSize(2, 5)
	for _, wait := range []bool{true, false} {
		if tab, err := st.get([2]int{2, 5}, s25, wait, buildRankTable); err != errNoRoom || tab != nil {
			t.Fatalf("oversize table (wait=%v): tab=%v err=%v, want errNoRoom", wait, tab, err)
		}
	}
	keys, _ := storeKeys(st)
	if !keys[[2]int{2, 3}] {
		t.Fatalf("resident table evicted for an oversize request")
	}
	if _, _, builds := st.usage(); builds != 1 {
		t.Fatalf("store ran %d builds, want 1", builds)
	}
}

// The table tier's asynchronous path: a non-waiting get starts the
// build and reports errBuilding until it is done, then returns the
// table.
func TestStoreAsyncGet(t *testing.T) {
	st := newStore[[2]int, *rankTable](1 << 20)
	release := make(chan struct{})
	build := func(dk [2]int) (*rankTable, error) {
		<-release
		return buildRankTable(dk)
	}
	size, _ := tableSize(2, 4)
	for i := 0; i < 2; i++ {
		if tab, err := st.get([2]int{2, 4}, size, false, build); err != errBuilding || tab != nil {
			t.Fatalf("get %d while building: tab=%v err=%v, want errBuilding", i, tab, err)
		}
	}
	close(release)
	tab := getTableFrom(t, st, 2, 4) // waits for the background build
	if again, err := st.get([2]int{2, 4}, size, false, build); err != nil || again != tab {
		t.Fatalf("non-waiting get after the build: %p, %v; want %p", again, err, tab)
	}
	if _, _, builds := st.usage(); builds != 1 {
		t.Fatalf("store ran %d builds, want 1", builds)
	}
}

// N goroutines asking for one cold key run the builder once and share
// its result: a table, and a decomposition (the router's entry is one
// more build of its own).
func TestStoreSingleBuild(t *testing.T) {
	const n = 16
	run := func(get func() any) []any {
		var wg sync.WaitGroup
		start := make(chan struct{})
		out := make([]any, n)
		for i := range out {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				out[i] = get()
			}(i)
		}
		close(start)
		wg.Wait()
		return out
	}

	tabs := newStore[[2]int, *rankTable](1 << 20)
	var calls atomic.Int64
	build := func(dk [2]int) (*rankTable, error) {
		calls.Add(1)
		return buildRankTable(dk)
	}
	size, _ := tableSize(2, 5)
	got := run(func() any {
		tab, err := tabs.get([2]int{2, 5}, size, true, build)
		if err != nil {
			t.Error(err)
		}
		return tab
	})
	if c := calls.Load(); c != 1 {
		t.Fatalf("table builder ran %d times for %d callers", c, n)
	}
	for i, tab := range got {
		if tab.(*rankTable) != got[0].(*rankTable) || tab.(*rankTable) == nil {
			t.Fatalf("caller %d got table %p, caller 0 %p", i, tab, got[0])
		}
	}

	faults := newStore[faultKey, any](1 << 20)
	fr, err := newFaultRouter(faults, 3, 4)
	if err != nil {
		t.Fatal(err)
	}
	got = run(func() any {
		dec, err := fr.Decomposition(17)
		if err != nil {
			t.Error(err)
		}
		return &dec[0][0]
	})
	if _, _, builds := faults.usage(); builds != 2 {
		t.Fatalf("fault store ran %d builds for one router and %d callers of one root, want 2", builds, n)
	}
	for i, p := range got {
		if p != got[0] {
			t.Fatalf("caller %d got a different family than caller 0", i)
		}
	}
}

// An in-flight build is never evicted: a key that needs its room is
// refused until the build finishes, and evicts it afterwards.
func TestStoreInFlightSurvivesEviction(t *testing.T) {
	st := newStore[int, int](10)
	release := make(chan struct{})
	slow := func(int) (int, error) { <-release; return 1, nil }
	quick := func(k int) (int, error) { return k, nil }
	if _, err := st.get(1, 8, false, slow); err != errBuilding {
		t.Fatalf("background build: %v, want errBuilding", err)
	}
	if _, err := st.get(2, 8, true, quick); err != errNoRoom {
		t.Fatalf("key 2 beside an in-flight key 1: %v, want errNoRoom", err)
	}
	if keys, bytes := storeKeys(st); !keys[1] || keys[2] || bytes != 8 {
		t.Fatalf("store has %v at %d bytes, want the in-flight key 1 at 8", keys, bytes)
	}
	close(release)
	if v, err := st.get(1, 8, true, slow); v != 1 || err != nil {
		t.Fatalf("key 1 = %d, %v", v, err)
	}
	if v, err := st.get(2, 8, true, quick); v != 2 || err != nil {
		t.Fatalf("key 2 after key 1 finished = %d, %v", v, err)
	}
	if keys, bytes := storeKeys(st); keys[1] || !keys[2] || bytes != 8 {
		t.Fatalf("store has %v at %d bytes, want key 2 alone at 8", keys, bytes)
	}
}

// A failed build stays as a zero-byte entry that returns its error:
// later gets do not retry it.
func TestStoreFailedBuildNotRetried(t *testing.T) {
	st := newStore[int, int](10)
	boom := errors.New("boom")
	var calls int
	fail := func(int) (int, error) { calls++; return 0, boom }
	for i := 0; i < 3; i++ {
		if _, err := st.get(7, 6, true, fail); err != boom {
			t.Fatalf("get %d: %v, want the build's error", i, err)
		}
	}
	if calls != 1 {
		t.Fatalf("failed build ran %d times, want 1", calls)
	}
	if keys, bytes := storeKeys(st); !keys[7] || bytes != 0 {
		t.Fatalf("store has %v at %d bytes, want key 7 resident at 0", keys, bytes)
	}
}

// NewFaultRouter hands out one router per DG(d,k).
func TestFaultRouterShared(t *testing.T) {
	a, err := NewFaultRouter(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewFaultRouter(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("two routers for DG(2,7)")
	}
	if _, err := NewFaultRouter(2, 17); !errors.Is(err, ErrFaultRoute) {
		t.Fatalf("DG(2,17) above the vertex limit: %v", err)
	}
}
