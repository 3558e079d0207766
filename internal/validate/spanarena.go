package validate

// spanArena is the out-of-core successor of the flat pairIndex arena
// for the elongation observer: the raw stream's minimal-trip spans are
// kept delta-encoded in destination-major regions (uvarint source
// deltas, svarint departures, delta-encoded within each pair) instead
// of 16 B tripSpan structs, and an optional size-capped disk-spill
// shelf moves finished regions to an unlinked temp file when the
// resident encoding outgrows the cap — Section 8 validation then runs
// on streams whose span population exceeds RAM, with spilled regions
// re-read sequentially (one ReadAt per destination) during scoring.
//
// Layout: regions are appended in strictly increasing destination
// order as the engine delivers trip runs, so destOff (one int64 per
// destination, n+1 entries) is the only random-access structure —
// 8 B/node regardless of the pair population, where the flat arena's
// offset table needed n² entries. A region holds, per source with at
// least one span, in ascending source order:
//
//	uvarint(source - prevSource)   prevSource starts at -1
//	uvarint(spanCount)
//	svarint(dep)    svarint(arr-dep)      first span
//	uvarint(Δdep)   svarint(arr-dep)      remaining spans, dep ascending
//
// The spill shelf only ever flushes the whole resident buffer, so a
// region never straddles the RAM/file boundary: readRegion is either a
// sub-slice of the resident tail or one contiguous ReadAt.

import (
	"encoding/binary"
	"fmt"
	"os"
	"slices"
	"sort"

	"repro/internal/temporal"
)

type spanArena struct {
	n        int32
	destOff  []int64 // global byte offset of each destination's region
	buf      []byte  // resident (not yet spilled) tail of the arena
	bufBase  int64   // global offset of buf[0] == bytes spilled so far
	spillCap int64   // resident-byte cap; <= 0 keeps everything in RAM
	spill    *os.File
	spilled  int64
	nextDest int32

	// build scratch, reused across runs
	cnt     []int32
	pos     []int32
	srcs    []int32
	scratch []tripSpan
}

func newSpanArena(n int, spillCap int64) *spanArena {
	return &spanArena{
		n:        int32(n),
		destOff:  make([]int64, n+1),
		spillCap: spillCap,
		cnt:      make([]int32, n),
		pos:      make([]int32, n),
	}
}

// addRun encodes one destination's minimal trips. Runs must arrive
// with strictly increasing dest; every trip's V equals dest — the
// contract of the engine's streaming trip pipeline.
func (a *spanArena) addRun(dest int32, run []temporal.Trip) error {
	cur := a.bufBase + int64(len(a.buf))
	for d := a.nextDest; d <= dest; d++ {
		a.destOff[d] = cur
	}
	a.nextDest = dest + 1

	if len(run) > 0 {
		// Group the run's spans by source with the same counting
		// back-fill the flat arena uses: per pair, departures arrive
		// strictly decreasing, so filling each source's range back to
		// front lands dep-ascending without a sort (guarded below).
		a.srcs = a.srcs[:0]
		for _, tr := range run {
			if a.cnt[tr.U] == 0 {
				a.srcs = append(a.srcs, tr.U)
			}
			a.cnt[tr.U]++
		}
		slices.Sort(a.srcs)
		if cap(a.scratch) < len(run) {
			a.scratch = make([]tripSpan, len(run))
		}
		a.scratch = a.scratch[:len(run)]
		off := int32(0)
		for _, u := range a.srcs {
			a.pos[u] = off
			off += a.cnt[u]
		}
		for _, tr := range run {
			a.cnt[tr.U]--
			a.scratch[a.pos[tr.U]+a.cnt[tr.U]] = tripSpan{dep: tr.Dep, arr: tr.Arr}
		}
		prevU := int32(-1)
		for i, u := range a.srcs {
			// The back-fill zeroed cnt; each source's count is implicit
			// in the pos spacing (pos was assigned cumulatively in
			// ascending source order).
			end := int32(len(run))
			if i+1 < len(a.srcs) {
				end = a.pos[a.srcs[i+1]]
			}
			sp := a.scratch[a.pos[u]:end]
			for i := 1; i < len(sp); i++ {
				if sp[i].dep < sp[i-1].dep {
					sort.Slice(sp, func(x, y int) bool { return sp[x].dep < sp[y].dep })
					break
				}
			}
			a.buf = binary.AppendUvarint(a.buf, uint64(u-prevU))
			prevU = u
			a.buf = binary.AppendUvarint(a.buf, uint64(len(sp)))
			for i, s := range sp {
				if i == 0 {
					a.buf = binary.AppendVarint(a.buf, s.dep)
				} else {
					a.buf = binary.AppendUvarint(a.buf, uint64(s.dep-sp[i-1].dep))
				}
				a.buf = binary.AppendVarint(a.buf, s.arr-s.dep)
			}
		}
	}
	a.destOff[dest+1] = a.bufBase + int64(len(a.buf))

	if a.spillCap > 0 && int64(len(a.buf)) >= a.spillCap {
		return a.flush()
	}
	return nil
}

// flush moves the whole resident buffer to the spill shelf. Flushing
// everything (never a prefix) keeps regions from straddling the
// RAM/file boundary.
func (a *spanArena) flush() error {
	if len(a.buf) == 0 {
		return nil
	}
	if a.spill == nil {
		f, err := os.CreateTemp("", "repro-pairspans-*")
		if err != nil {
			return fmt.Errorf("validate: pair-span spill: %w", err)
		}
		// Unlink immediately: the file lives until the descriptor
		// closes, and a crash can never leave it behind. Best-effort —
		// platforms that cannot remove an open file keep the name until
		// Close.
		os.Remove(f.Name())
		a.spill = f
	}
	if _, err := a.spill.WriteAt(a.buf, a.bufBase); err != nil {
		return fmt.Errorf("validate: pair-span spill: %w", err)
	}
	a.bufBase += int64(len(a.buf))
	a.spilled = a.bufBase
	a.buf = a.buf[:0]
	return nil
}

// finish seals the arena: destinations that never produced a run get
// empty regions.
func (a *spanArena) finish() {
	total := a.bufBase + int64(len(a.buf))
	for d := a.nextDest; d <= a.n; d++ {
		a.destOff[d] = total
	}
	a.nextDest = a.n + 1
}

// release closes the spill shelf. The arena keeps its resident tail,
// so accounting fields stay readable; decoding spilled regions after
// release fails.
func (a *spanArena) release() {
	if a.spill != nil {
		a.spill.Close()
		a.spill = nil
	}
}

// readRegion returns destination d's encoded region, either as a
// sub-slice of the resident tail or read from the spill shelf into
// (a reuse of) tmp.
func (a *spanArena) readRegion(d int32, tmp []byte) ([]byte, []byte, error) {
	start, end := a.destOff[d], a.destOff[d+1]
	if start >= a.bufBase {
		return a.buf[start-a.bufBase : end-a.bufBase], tmp, nil
	}
	need := int(end - start)
	if cap(tmp) < need {
		tmp = make([]byte, need)
	}
	tmp = tmp[:need]
	if a.spill == nil {
		return nil, tmp, fmt.Errorf("validate: pair-span arena: destination %d is spilled but the shelf is closed", d)
	}
	if _, err := a.spill.ReadAt(tmp, start); err != nil {
		return nil, tmp, fmt.Errorf("validate: pair-span spill read: %w", err)
	}
	return tmp, tmp, nil
}

// destSpans is one destination's decoded region: the spans
// themselves (dep-ascending per source — the exact integers the flat
// pairIndex would hold for pair (src, dest)) and a per-source slot
// table locating each source's spans, so scoring looks a trip's source
// up in O(1). The table is indexed by node id and stamped with a
// decode epoch: a decode bumps the epoch and stamps only the region's
// sources, so its set-up costs O(sources in the region), and entries
// left by earlier regions (or earlier, larger arenas) read as absent.
type destSpans struct {
	slots []srcSlot
	epoch uint32
	spans []tripSpan
	raw   []byte // spill read buffer, reused across decodes
}

// srcSlot locates one source's spans, ds.spans[lo:hi]; it is valid
// only while its epoch equals the scratch's. cur is where the source's
// previous window query started.
type srcSlot struct {
	epoch       uint32
	lo, hi, cur int32
}

// decodeDest decodes destination d's region into ds. Safe to call
// concurrently for different ds (the arena is immutable after finish;
// the spill shelf is read with ReadAt).
func (a *spanArena) decodeDest(d int32, ds *destSpans) error {
	region, raw, err := a.readRegion(d, ds.raw)
	ds.raw = raw
	if err != nil {
		return err
	}
	if len(ds.slots) < int(a.n) {
		// Fresh entries carry epoch 0, which no decode ever uses.
		ds.slots = make([]srcSlot, a.n)
	}
	ds.epoch++
	if ds.epoch == 0 {
		// The epoch wrapped: entries from 2^32 decodes ago would read
		// as current, so clear them all once.
		clear(ds.slots)
		ds.epoch = 1
	}
	ds.spans = ds.spans[:0]
	u := int32(-1)
	for len(region) > 0 {
		du, n := binary.Uvarint(region)
		if n <= 0 || du == 0 || du > uint64(a.n-1-u) {
			return fmt.Errorf("validate: pair-span arena: destination %d: corrupt source delta", d)
		}
		region = region[n:]
		u += int32(du)
		c, n := binary.Uvarint(region)
		if n <= 0 {
			return fmt.Errorf("validate: pair-span arena: destination %d: corrupt span count", d)
		}
		region = region[n:]
		lo := int32(len(ds.spans))
		dep := int64(0)
		for i := uint64(0); i < c; i++ {
			v, n := binary.Uvarint(region)
			if n <= 0 {
				return fmt.Errorf("validate: pair-span arena: destination %d: corrupt departure", d)
			}
			region = region[n:]
			if i == 0 {
				dep = unzigzag(v)
			} else {
				dep += int64(v)
			}
			dur, n := binary.Uvarint(region)
			if n <= 0 {
				return fmt.Errorf("validate: pair-span arena: destination %d: corrupt duration", d)
			}
			region = region[n:]
			ds.spans = append(ds.spans, tripSpan{dep: dep, arr: dep + unzigzag(dur)})
		}
		hi := int32(len(ds.spans))
		ds.slots[u] = srcSlot{epoch: ds.epoch, lo: lo, hi: hi, cur: hi}
	}
	return nil
}

// unzigzag decodes a signed value written by binary.AppendVarint from
// its uvarint form: binary.Varint's arithmetic without the call, which
// the per-span decode loop would pay millions of times a period.
func unzigzag(x uint64) int64 { return int64(x>>1) ^ -int64(x&1) }

// slot returns source u's slot in the decoded region; nil for a source
// without spans, negative or out of range.
func (ds *destSpans) slot(u int32) *srcSlot {
	if uint32(u) >= uint32(len(ds.slots)) || ds.slots[u].epoch != ds.epoch {
		return nil
	}
	return &ds.slots[u]
}

// minDurationWithin mirrors pairIndex.minDurationWithin over the
// decoded region: smallest duration among source u's spans fully
// inside [a, b], and whether one exists. Instead of a binary search,
// the first span departing at or after a is found by walking from
// where u's previous query started: the engine delivers a lane's trips
// in decreasing departure order, so per source the walk only moves
// back and a period's queries cost O(spans) together. Any query order
// gets the same answer.
func (ds *destSpans) minDurationWithin(u int32, a, b int64) (int64, bool) {
	sl := ds.slot(u)
	if sl == nil {
		return -1, false
	}
	i := sl.cur
	for i > sl.lo && ds.spans[i-1].dep >= a {
		i--
	}
	for i < sl.hi && ds.spans[i].dep < a {
		i++
	}
	sl.cur = i
	return minDurationFrom(ds.spans[i:sl.hi], b)
}

// minDurationIn is the flat pair index's span-window query: a binary
// search for the window start, then the scan the decoded arena regions
// share (minDurationFrom). Identical integer spans in, identical result
// out — this is what pins the spill path bit-exact.
func minDurationIn(sp []tripSpan, a, b int64) (int64, bool) {
	lo, hi := 0, len(sp)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if sp[mid].dep < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return minDurationFrom(sp[lo:], b)
}

// minDurationFrom is the scan half of the window query: sp starts at
// the first span departing at or after the window start, and the
// result is the smallest duration among its leading spans that arrive
// by b.
func minDurationFrom(sp []tripSpan, b int64) (int64, bool) {
	best := int64(-1)
	for i := 0; i < len(sp) && sp[i].arr <= b; i++ {
		d := sp[i].arr - sp[i].dep
		if best < 0 || d < best {
			best = d
		}
	}
	return best, best >= 0
}
