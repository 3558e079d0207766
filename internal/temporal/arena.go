package temporal

// This file implements the size-classed CSR arena pool of the sweep
// engine. Every aggregation period of a run builds one CSR — a keys
// array, an offsets array, a flat endpoints array and a weights array
// whose sizes are all bounded by the period's event count — and drops it as soon as the
// period's products are delivered. Recycling those arrays through a
// generic sync.Pool regrows them whenever periods of different sizes
// interleave (a pooled buffer of the wrong size helps nobody); the
// arena pool instead shelves complete backing-array sets by a
// (nodes, events) size class, so consecutive periods of similar
// magnitude reuse one contiguous arena. The pool is deliberately not a
// sync.Pool: shelves are evicted deterministically once their class
// goes idle, so one huge period followed by thousands of tiny ones
// cannot pin the huge class's memory for the rest of the process (the
// GC of sync.Pool offers no such bound within a run).

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/linkstream"
)

// arenaClass is the size class of a CSR arena: the ceil-pow2 exponents
// of the run's node count and the period's event count. Two periods of
// the same class produce backing arrays within 2x of each other, so
// reuse never grows a buffer by more than one doubling step.
type arenaClass struct{ nodes, events uint8 }

func classExp(n int) uint8 {
	if n <= 1 {
		return 0
	}
	return uint8(bits.Len(uint(n - 1)))
}

func arenaClassFor(nodes, events int) arenaClass {
	return arenaClass{nodes: classExp(nodes), events: classExp(events)}
}

// csrArena is one recyclable set of CSR backing arrays. The arrays keep
// their capacity across uses; lengths are re-derived by each build.
type csrArena struct {
	keys    []int64
	off     []int
	ends    []int32
	weights []int32
}

const (
	// arenaShelfCap bounds how many idle arenas one size class keeps:
	// enough for every in-flight period of a small engine run, small
	// enough that a wide class mix stays cheap.
	arenaShelfCap = 4
	// arenaEvictAfter is the idle bound of a shelf, measured in pool
	// operations (gets + puts): a class untouched for this many
	// operations while other classes cycle is dead weight — typically a
	// lone huge period followed by a long run of small ones — and its
	// arenas are released to the GC.
	arenaEvictAfter = 64
)

type arenaShelf struct {
	arenas []*csrArena
	last   uint64 // arenaGen value of the shelf's most recent get/put
}

var (
	arenaMu      sync.Mutex
	arenaShelves map[arenaClass]*arenaShelf
	arenaGen     uint64
)

// Arena accounting, mirroring the trip-lane counters: arenasHanded
// counts the arena-backed CSRs BuildCSRArena handed out, arenasRecycled
// the arenas returned through RecycleCSR, arenasReused the hands that
// were served from a shelf instead of a fresh allocation. After any
// complete engine run — finished, failed or cancelled — handed and
// recycled must balance: a surplus of handed arenas is a leak of whole
// periods' CSR arrays. The cancellation regression tests assert exactly
// that.
var arenasHanded, arenasRecycled, arenasReused atomic.Int64

// ResetArenaStats zeroes the arena accounting counters.
func ResetArenaStats() {
	arenasHanded.Store(0)
	arenasRecycled.Store(0)
	arenasReused.Store(0)
}

// ArenaStats returns how many arena-backed CSRs were handed out, how
// many arenas were recycled, and how many hands reused a shelved arena
// since the last ResetArenaStats.
func ArenaStats() (handed, recycled, reused int64) {
	return arenasHanded.Load(), arenasRecycled.Load(), arenasReused.Load()
}

// getArena pops an arena of the class from its shelf, or returns nil on
// a miss. Either way the class is marked live.
func getArena(class arenaClass) *csrArena {
	arenaMu.Lock()
	defer arenaMu.Unlock()
	arenaGen++
	sh := arenaShelves[class]
	if sh == nil {
		return nil
	}
	sh.last = arenaGen
	if n := len(sh.arenas); n > 0 {
		a := sh.arenas[n-1]
		sh.arenas[n-1] = nil
		sh.arenas = sh.arenas[:n-1]
		return a
	}
	return nil
}

// putArena shelves an arena for its class (dropping it when the shelf
// is full) and evicts every class left idle for arenaEvictAfter pool
// operations.
func putArena(class arenaClass, a *csrArena) {
	arenaMu.Lock()
	defer arenaMu.Unlock()
	arenaGen++
	if arenaShelves == nil {
		arenaShelves = make(map[arenaClass]*arenaShelf)
	}
	sh := arenaShelves[class]
	if sh == nil {
		sh = &arenaShelf{}
		arenaShelves[class] = sh
	}
	sh.last = arenaGen
	if len(sh.arenas) < arenaShelfCap {
		sh.arenas = append(sh.arenas, a)
	}
	for c, s := range arenaShelves {
		if arenaGen-s.last > arenaEvictAfter {
			delete(arenaShelves, c)
		}
	}
}

// BuildCSRArena is BuildCSR backed by the size-classed arena pool: the
// returned CSR's Keys/Off/Ends/Weights arrays live in an arena of the
// (nodes, events) class, reused from a previous period of similar size
// when one is shelved. The caller owns the CSR until it hands it back with
// RecycleCSR — which it must do on every exit path, including
// cancellation, or the arena accounting (ArenaStats) reports the leak.
// nodes is the run's node count; events, t0, delta and scratch are
// exactly BuildCSR's.
func BuildCSRArena(events []linkstream.Event, t0, delta int64, nodes int, scratch *CSRScratch) *CSR {
	if len(events) == 0 {
		// Nothing to arena: the empty CSR allocates nothing worth
		// recycling, and RecycleCSR on it is a no-op.
		return BuildCSR(events, t0, delta, scratch)
	}
	class := arenaClassFor(nodes, len(events))
	a := getArena(class)
	reused := a != nil
	if reused {
		arenasReused.Add(1)
	} else {
		a = &csrArena{}
	}
	c := &CSR{
		Keys:    a.keys[:0],
		Off:     a.off[:0],
		Ends:    a.ends[:0],
		Weights: a.weights[:0],
		arena:   a,
		class:   class,
		reused:  reused,
	}
	if cap(c.Ends) < 2*len(events) {
		c.Ends = make([]int32, 0, 2*len(events))
	}
	if cap(c.Weights) < len(events) {
		c.Weights = make([]int32, 0, len(events))
	}
	buildCSRInto(c, events, t0, delta, scratch)
	arenasHanded.Add(1)
	return c
}

// RecycleCSR returns an arena-backed CSR's backing arrays to the pool.
// The CSR must not be used afterwards; its slices are detached to make
// use-after-recycle fail fast rather than corrupt a reused arena.
// Calling it on a plain-built CSR (BuildCSR, FromLayers, ...) or nil is
// a harmless no-op, so engine teardown paths can recycle
// unconditionally.
func RecycleCSR(c *CSR) {
	if c == nil || c.arena == nil {
		return
	}
	a := c.arena
	a.keys = c.Keys[:0]
	a.off = c.Off[:0]
	a.ends = c.Ends[:0]
	a.weights = c.Weights[:0]
	c.arena = nil
	c.Keys, c.Off, c.Ends, c.Weights = nil, nil, nil, nil
	putArena(c.class, a)
	arenasRecycled.Add(1)
}
