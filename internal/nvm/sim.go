package nvm

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// SimDevice is the simulated device behind every Kind.  It keeps the device
// contents in a page mapping outside the Go heap (the "volatile image", see
// image.go), charges modeled cost per access through a simulated device
// cache, and maintains a durable image behind a *pending set*:
//
//	volatile image --Flush--> pending set --Drain--> durable image
//
// Flush captures the flushed bytes into the pending set (the clwb analogue:
// write-back is initiated but not ordered); Drain retires the whole pending
// set into the durable image (the sfence analogue).  A plain Crash discards
// both the volatile image and the pending set — only drained data survives —
// while CrashAt persists a seeded arbitrary per-granule subset of the pending
// set first, modeling flushed-but-unfenced stores that reach media in any
// order.  Crash then reloads the volatile image from the durable one,
// reproducing power-failure semantics exactly.
//
// Offsets are byte addresses from the start of the device.  A device is owned
// by one goroutine at a time unless it is shared (see Share): access charging
// and statistics are deliberately unsynchronized so the simulator adds no
// lock or atomic traffic to every modeled access.  Concurrent experiment
// cells each own their own device (see internal/harness).
type SimDevice struct {
	kind  Kind
	model CostModel
	cache *deviceCache
	buf   []byte // volatile image: a mapping, nil once discarded

	// dirtyHi is the high-water mark of volatile-image bytes that may be
	// nonzero: what a crash has to clear, and a recycled image's next owner.
	dirtyHi int64

	mu      sync.Mutex // guards durable store and closed flag
	store   *durable   // guarded by mu
	closed  bool       // guarded by mu
	lastBlk int64      // previously accessed block, for HDD seek modeling

	// shared switches the device into shared mode (see Share): every access
	// charge and counter update is serialized behind opMu so concurrent
	// read-only query sessions can use one device.  Off by default, keeping
	// the single-owner fast paths free of lock traffic.  When both opMu and
	// mu are taken, opMu is taken first.
	shared atomic.Bool
	opMu   sync.Mutex

	// lastGranule memoizes the most recently charged granule.  A granule
	// that was just accessed sits at the MRU position of its cache set, so a
	// single-granule access to the same granule is a guaranteed hit whose
	// MRU move is a no-op: the memo lets that case skip the cache tag scan
	// entirely without changing any modeled outcome.  Only meaningful when
	// cache != nil; -1 when unknown.
	lastGranule int64

	// lastGranule2 extends the memo one step: the granule charged just
	// before lastGranule, recorded only when it maps to a *different* cache
	// set.  Being in another set, lastGranule's later insertion cannot have
	// displaced it, so it is still the MRU line of its own set and a
	// single-granule access to it is a guaranteed hit whose MRU move is a
	// no-op.  This catches the key/value alternation of hash-table scans.
	// -1 when unknown.
	lastGranule2 int64

	// refCharge switches charging to the straight-line per-granule reference
	// loop.  The differential test uses it to prove the chargeRun/memo fast
	// paths are modeled-cost-identical.
	refCharge bool

	// pending is the set of flushed-but-not-drained ranges, in flush order.
	// A range's data is captured lazily: nil means the volatile image still
	// holds the bytes as they were at flush time, and a later overlapping
	// store materializes the snapshot first (see snapshotPending).
	// pendingLo/pendingHi bound the set so the hot write path can reject
	// non-overlapping stores with two compares.
	pending   []pendingRange
	pendingLo int64
	pendingHi int64

	// Fail points, armed when >= 0.  failAfterWrites counts WriteAt calls
	// from arming: call n (0-based) and all later ones fail with
	// ErrFailPoint.  failFromEvent counts the combined flush/drain sequence
	// from device creation, for crash-point replays.
	failAfterWrites int64
	failFromEvent   int64

	// persistEvents numbers every Flush and Drain call over the device's
	// lifetime.  Never reset (not part of Stats): crash-exploration
	// harnesses use it to name a crash point as "after persistence event i"
	// consistently across a golden run and its replays.
	persistEvents int64

	// stats accumulates the access counters and modeled cost.  Plain fields,
	// not atomics: a device belongs to one goroutine unless shared, and every
	// modeled access updates several of them, so atomic traffic here would be
	// pure overhead.
	stats Stats

	// One cache line of padding after the stats, which every access writes.
	// The shards' devices are allocated back to back, so without it one
	// device's stats can share a line with the head of the next —
	// kind, model, buf, read on every access by another shard's lane on
	// another core — and whether they do is decided by heap layout, anew in
	// every process: traversal was a third slower in the unlucky ones.
	_ [64]byte
}

// pendingRange is one flushed-but-not-drained byte range.  data == nil means
// the snapshot is still implicit in the volatile image.
type pendingRange struct {
	off, n int64
	data   []byte
}

// durable is the image that survives a crash: Drain copies flushed bytes
// into it.  An in-memory device keeps it in an anonymous mapping.  A
// file-backed one (Open) maps its file shared, so a persisted byte sits in
// the file's page cache and sync puts it on disk, giving the CLI tools real
// cross-process durability.  Either way the simulated crash model orders on
// this image, never on the page cache: what a Crash leaves is exactly what
// was persisted here.
type durable struct {
	img []byte
	hi  int64    // persisted high-water mark: img[hi:] is zero
	f   *os.File // backing file; nil in memory
}

func (s *durable) persist(off int64, src []byte) {
	copy(s.img[off:], src)
	if end := off + int64(len(src)); end > s.hi {
		s.hi = end
	}
}

func (s *durable) sync() error {
	if s.f == nil {
		return nil
	}
	return sysSync(s.f, s.img[:s.hi])
}

// volatile maps the volatile image an open or a crash leaves a file-backed
// device: the file again, privately, so it loads lazily — a page the device
// never stores to is the file's own page, and the first store copies it.
// That never lets a later persist show through, because every byte persist
// writes was flushed from this image: its page either holds a store, and is
// already a private copy, or holds none, and then the bytes persisted equal
// the bytes the file had (TestFileBackedMatchesInMemory).
func (s *durable) volatile() ([]byte, error) {
	return mapImage(s.f, int64(len(s.img)), false)
}

func (s *durable) close() error {
	img := s.img
	s.img = nil
	if s.f == nil {
		return recycleImage(img, s.hi)
	}
	return errors.Join(freeImage(img), s.f.Close())
}

// New creates an in-memory simulated device of the given kind and size using
// the kind's default cost model.
func New(kind Kind, size int64) *SimDevice {
	return NewWithModel(kind, size, ModelFor(kind))
}

// NewWithModel creates an in-memory simulated device with an explicit cost
// model (used by ablations and by block devices under a page-cache budget).
// The device owns two size-byte mappings until Discard.
func NewWithModel(kind Kind, size int64, model CostModel) *SimDevice {
	return newDevice(kind, model, newImage(size), &durable{img: newImage(size)})
}

func newDevice(kind Kind, model CostModel, buf []byte, store *durable) *SimDevice {
	d := &SimDevice{
		kind:  kind,
		model: model,
		buf:   buf,
		store: store,
	}
	if model.CacheBytes > 0 {
		d.cache = newDeviceCache(model.CacheBytes, model.Granule, model.CacheWays)
	}
	d.failAfterWrites = -1
	d.failFromEvent = -1
	d.lastBlk = -1
	d.lastGranule = -1
	d.lastGranule2 = -1
	return d
}

// Open creates (or reopens) a file-backed simulated device at path.  If the
// file exists its contents become the durable and volatile images; otherwise
// it is created zero-filled at the given size.  Neither case reads the file:
// both images are mappings of it (see durable).
func Open(kind Kind, path string, size int64) (*SimDevice, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("nvm: open %s: %w", path, err)
	}
	store := &durable{f: f}
	fi, err := f.Stat()
	switch {
	case err != nil:
		err = fmt.Errorf("nvm: stat %s: %w", path, err)
	case fi.Size() == 0:
		if err = f.Truncate(size); err != nil {
			err = fmt.Errorf("nvm: size %s: %w", path, err)
		}
	default:
		// What an earlier process persisted is unknown: all of it may be.
		size = fi.Size()
		store.hi = size
	}
	if err == nil {
		store.img, err = mapImage(f, size, true)
	}
	var buf []byte
	if err == nil {
		buf, err = store.volatile()
	}
	if err != nil {
		return nil, errors.Join(err, store.close())
	}
	return newDevice(kind, ModelFor(kind), buf, store), nil
}

// Size is the device capacity in bytes.
func (d *SimDevice) Size() int64 { return int64(len(d.buf)) }

// Model returns the device's cost model.
func (d *SimDevice) Model() CostModel { return d.model }

// Stats returns a snapshot of the access counters and modeled cost.  A crash
// zeroes them; callers measure an interval as the difference of two
// snapshots (Stats.Sub).
func (d *SimDevice) Stats() Stats {
	if d.shared.Load() {
		d.opMu.Lock()
		defer d.opMu.Unlock()
	}
	return d.stats
}

// Share switches the device into shared mode, permanently: access charging,
// counters, and cache-model state become mutex-protected so multiple
// goroutines may read the device concurrently.  Data races on the *contents*
// remain the callers' problem — shared mode is meant for concurrent readers
// over an image that is no longer being written (query sessions).  The
// modeled figures are unchanged; only host-side locking is added.
func (d *SimDevice) Share() { d.shared.Store(true) }

// charge walks the granules of [off, off+n) through the device cache and
// accumulates modeled cost.  missNanos is the per-granule media cost for
// this access direction.
//
// All paths below — the memo fast path, chargeRun, and chargeReference —
// produce bit-identical Stats and modeled nanos for the same access
// sequence; they differ only in host-side work (see the differential test).
func (d *SimDevice) charge(off, n, missNanos int64, isWrite bool) {
	first := off / d.model.Granule
	if d.lastGranule == first && (off+n-1)/d.model.Granule == first {
		// The granule was just accessed, so it sits at MRU: a guaranteed
		// hit whose MRU move is a no-op.  Skip the cache walk.  lastGranule
		// is only ever set by chargeRun on a cached device (first >= 0, and
		// reference-charging devices never run chargeRun), so matching it
		// implies cache != nil and !refCharge.  The memo path is a call,
		// not inlined: with Go 1.24's gc, -gcflags=-m=2 reports charge (and
		// charge2) "function too complex: cost 113 exceeds budget 80".
		d.stats.ModeledNanos += d.model.HitNanos
		d.stats.CacheHits++
		if d.model.SeekNanos > 0 {
			d.lastBlk = first
		}
		return
	}
	d.charge2(off, n, first, missNanos, isWrite)
}

// charge2 is the second-chance memo: a single-granule access to the granule
// charged just before the most recent one.  By the lastGranule2 invariant it
// lives in a different cache set, so it is still that set's MRU line — a
// guaranteed hit, MRU move a no-op — and the two memo entries swap.
func (d *SimDevice) charge2(off, n, first, missNanos int64, isWrite bool) {
	if d.lastGranule2 == first && (off+n-1)/d.model.Granule == first {
		d.lastGranule2 = d.lastGranule
		d.lastGranule = first
		d.stats.ModeledNanos += d.model.HitNanos
		d.stats.CacheHits++
		if d.model.SeekNanos > 0 {
			d.lastBlk = first
		}
		return
	}
	d.chargeFull(off, n, first, missNanos, isWrite)
}

// chargeFull is the non-memoized tail of charge.
func (d *SimDevice) chargeFull(off, n, first, missNanos int64, isWrite bool) {
	if d.refCharge {
		d.chargeReference(off, n, missNanos, isWrite)
		return
	}
	d.chargeRun(first, (off+n-1)/d.model.Granule, missNanos, isWrite)
}

// chargeRun charges the granule run [first, last], accumulating counters in
// locals and writing them back once for the whole run.
func (d *SimDevice) chargeRun(first, last, missNanos int64, isWrite bool) {
	var cost, hits, misses, gReads, gWrites, seeks int64
	seek := d.model.SeekNanos > 0
	var prev int64
	if seek {
		prev = d.lastBlk
	}
	for gr := first; gr <= last; gr++ {
		hit := false
		if d.cache != nil {
			hit = d.cache.access(gr)
		}
		if hit {
			cost += d.model.HitNanos
			hits++
		} else {
			cost += missNanos
			misses++
			if seek && !isWrite {
				// Block devices pay a seek when the read stream is
				// broken.  Write misses never seek: the page cache
				// installs fresh pages without touching the device, and
				// write-back (charged at Flush) is elevator-scheduled.
				if prev != gr-1 && prev != gr {
					cost += d.model.SeekNanos
					seeks++
				}
			}
			if isWrite {
				gWrites++
			} else {
				gReads++
			}
		}
		// After any access the stream is positioned at gr (hits and write
		// misses in the reference loop store it explicitly; read misses
		// leave it from the seek check above).
		prev = gr
	}
	if d.cache != nil {
		// Record the previous memo granule as the second-chance entry only
		// for single-granule charges into a different cache set; any other
		// shape may have displaced it from its set's MRU slot.
		if first == last && d.lastGranule >= 0 &&
			first%d.cache.nsets != d.lastGranule%d.cache.nsets {
			d.lastGranule2 = d.lastGranule
		} else {
			d.lastGranule2 = -1
		}
		d.lastGranule = last
	}
	if seek {
		d.lastBlk = prev
	}
	d.stats.ModeledNanos += cost
	d.stats.CacheHits += hits
	d.stats.CacheMisses += misses
	d.stats.GranuleReads += gReads
	d.stats.GranuleWrites += gWrites
	d.stats.Seeks += seeks
}

// chargeReference is the straight-line per-granule charging loop, kept as
// the behavioral reference for the differential test: chargeRun and the memo
// fast path must match it bit for bit.
func (d *SimDevice) chargeReference(off, n, missNanos int64, isWrite bool) {
	g := d.model.Granule
	first := off / g
	last := (off + n - 1) / g
	var cost int64
	for gr := first; gr <= last; gr++ {
		hit := false
		if d.cache != nil {
			hit = d.cache.access(gr)
		}
		if hit {
			cost += d.model.HitNanos
			d.stats.CacheHits++
		} else {
			cost += missNanos
			d.stats.CacheMisses++
			if d.model.SeekNanos > 0 && !isWrite {
				prev := d.lastBlk
				d.lastBlk = gr
				if prev != gr-1 && prev != gr {
					cost += d.model.SeekNanos
					d.stats.Seeks++
				}
			}
			if isWrite {
				d.stats.GranuleWrites++
			} else {
				d.stats.GranuleReads++
			}
		}
		if d.model.SeekNanos > 0 && (hit || isWrite) {
			d.lastBlk = gr
		}
	}
	d.stats.ModeledNanos += cost
}

// accessRead charges a read of [off, off+n) and returns the volatile-image
// window holding those bytes.  It is the Accessor fast path: bounds are the
// caller's responsibility (the accessor's region check subsumes the device
// range check), and the window aliases device memory — it is valid only
// until the next write and must not be mutated.  Charging and counters are
// identical to ReadAt.
func (d *SimDevice) accessRead(off, n int64) []byte {
	if n == 0 {
		return nil
	}
	if d.shared.Load() {
		d.opMu.Lock()
		d.charge(off, n, d.model.ReadNanos, false)
		d.stats.Reads++
		d.stats.BytesRead += n
		d.opMu.Unlock()
		return d.buf[off : off+n]
	}
	d.charge(off, n, d.model.ReadNanos, false)
	d.stats.Reads++
	d.stats.BytesRead += n
	return d.buf[off : off+n]
}

// readHeld is accessRead for a caller that has already serialized the device
// (a Batch: opMu held in shared mode, the owning goroutine otherwise).
func (d *SimDevice) readHeld(off, n int64) []byte {
	if n == 0 {
		return nil
	}
	d.charge(off, n, d.model.ReadNanos, false)
	d.stats.Reads++
	d.stats.BytesRead += n
	return d.buf[off : off+n]
}

// accessWrite charges a write of [off, off+n) and returns the
// volatile-image window for the caller to fill.  Charging and counters are
// identical to WriteAt.
func (d *SimDevice) accessWrite(off, n int64) []byte {
	if n == 0 {
		return nil
	}
	if d.shared.Load() {
		d.opMu.Lock()
		defer d.opMu.Unlock()
	}
	if len(d.pending) != 0 {
		d.snapshotPending(off, n)
	}
	d.charge(off, n, d.model.WriteNanos, true)
	d.stats.Writes++
	d.stats.BytesWritten += n
	if off+n > d.dirtyHi {
		d.dirtyHi = off + n
	}
	return d.buf[off : off+n]
}

// ReadAt copies len(p) bytes at off into p, charging modeled read cost.
func (d *SimDevice) ReadAt(p []byte, off int64) (int, error) {
	if err := d.checkRange(off, int64(len(p))); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	if d.shared.Load() {
		d.opMu.Lock()
		defer d.opMu.Unlock()
	}
	d.charge(off, int64(len(p)), d.model.ReadNanos, false)
	d.stats.Reads++
	d.stats.BytesRead += int64(len(p))
	copy(p, d.buf[off:])
	return len(p), nil
}

// WriteAt copies p to off, charging modeled write cost.  The bytes reach the
// durable image only after Flush and Drain, mirroring the CPU-cache/ADR
// behaviour of real persistent memory.
func (d *SimDevice) WriteAt(p []byte, off int64) (int, error) {
	if err := d.checkRange(off, int64(len(p))); err != nil {
		return 0, err
	}
	if len(p) == 0 {
		return 0, nil
	}
	if d.shared.Load() {
		d.opMu.Lock()
		defer d.opMu.Unlock()
	}
	if d.failAfterWrites >= 0 {
		d.failAfterWrites--
		if d.failAfterWrites < 0 {
			return 0, ErrFailPoint
		}
	}
	if len(d.pending) != 0 {
		d.snapshotPending(off, int64(len(p)))
	}
	d.charge(off, int64(len(p)), d.model.WriteNanos, true)
	d.stats.Writes++
	d.stats.BytesWritten += int64(len(p))
	if end := off + int64(len(p)); end > d.dirtyHi {
		d.dirtyHi = end
	}
	copy(d.buf[off:], p)
	return len(p), nil
}

// snapshotPending materializes copy-on-write snapshots for pending flushes
// overlapping [off, off+n): a flush captures the volatile bytes as they were
// when it was issued, so a later store to the same range must not leak into
// what reaches media.
func (d *SimDevice) snapshotPending(off, n int64) {
	if off >= d.pendingHi || off+n <= d.pendingLo {
		return
	}
	for i := range d.pending {
		p := &d.pending[i]
		if p.data != nil || off >= p.off+p.n || off+n <= p.off {
			continue
		}
		p.data = append([]byte(nil), d.buf[p.off:p.off+p.n]...)
	}
}

// Flush initiates write-back of [off, off+n) toward the durable image (the
// clwb/msync analogue): it captures the range into the pending set, and the
// bytes become durable only at the next successful Drain.
func (d *SimDevice) Flush(off, n int64) error {
	if err := d.checkRange(off, n); err != nil {
		return err
	}
	if d.shared.Load() {
		d.opMu.Lock()
		defer d.opMu.Unlock()
	}
	d.stats.Flushes++
	d.stats.FlushedBytes += n
	g := granules(off, n, d.model.Granule)
	d.stats.FlushedGranules += g
	d.stats.ModeledNanos += g * d.model.FlushNanos
	ev := d.persistEvents
	d.persistEvents++
	if d.failFromEvent >= 0 && ev >= d.failFromEvent {
		return ErrFailPoint
	}
	if n == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	d.pending = append(d.pending, pendingRange{off: off, n: n})
	if len(d.pending) == 1 {
		d.pendingLo, d.pendingHi = off, off+n
	} else {
		if off < d.pendingLo {
			d.pendingLo = off
		}
		if off+n > d.pendingHi {
			d.pendingHi = off + n
		}
	}
	return nil
}

// Drain retires the whole pending set into the durable image, in flush order,
// then syncs the backing store (the sfence/fsync analogue).
func (d *SimDevice) Drain() error {
	if d.shared.Load() {
		d.opMu.Lock()
		defer d.opMu.Unlock()
	}
	d.stats.Drains++
	d.stats.ModeledNanos += d.model.DrainNanos
	ev := d.persistEvents
	d.persistEvents++
	if d.failFromEvent >= 0 && ev >= d.failFromEvent {
		return ErrFailPoint
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	for _, p := range d.pending {
		src := p.data
		if src == nil {
			src = d.buf[p.off : p.off+p.n]
		}
		d.store.persist(p.off, src)
	}
	d.dropPendingLocked()
	return d.store.sync()
}

func (d *SimDevice) dropPendingLocked() {
	clear(d.pending) // release snapshot buffers to the GC
	d.pending = d.pending[:0]
	d.pendingLo, d.pendingHi = 0, 0
}

// Crash simulates a power failure: the pending set is dropped, and the
// volatile image is discarded and reloaded from the durable image (a
// file-backed device maps it anew, so views into the old one fault).  Writes
// that were not both flushed and drained vanish.  The device stays usable;
// stats and cache are reset.
func (d *SimDevice) Crash() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashLocked(nil)
}

// CrashAt simulates a power failure past ADR: of the granules whose flush was
// initiated but not yet fenced by a Drain, a seeded arbitrary subset reaches
// media — each pending granule independently survives or is lost, so torn
// and reordered write-backs within and across flushed ranges are both
// covered.  The same seed always persists the same subset.  Everything else
// behaves like Crash.
func (d *SimDevice) CrashAt(seed int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashLocked(rand.New(rand.NewSource(seed)))
}

func (d *SimDevice) crashLocked(rng *rand.Rand) error {
	if d.closed {
		return ErrClosed
	}
	if rng != nil && len(d.pending) > 0 {
		if err := d.persistPendingSubsetLocked(rng); err != nil {
			return err
		}
	}
	d.dropPendingLocked()
	if d.fileBackedLocked() {
		fresh, err := d.store.volatile()
		if err != nil {
			return err
		}
		old := d.buf
		d.buf = fresh
		if err := freeImage(old); err != nil {
			return err
		}
	} else {
		clear(d.buf[:d.dirtyHi])
		d.dirtyHi = int64(copy(d.buf, d.store.img[:d.store.hi]))
	}
	if d.cache != nil {
		d.cache.reset()
	}
	d.stats = Stats{}
	d.lastBlk = -1
	d.lastGranule = -1
	d.lastGranule2 = -1
	return nil
}

// persistPendingSubsetLocked writes a seeded subset of the pending set's
// granules to the durable store; the caller holds d.mu.  Granule survival is
// decided once per distinct granule; the surviving intersections are then
// applied in flush order, so
// within one granule the latest flush wins — exactly the write-back
// semantics of a media granule that made it out of the XPBuffer.
func (d *SimDevice) persistPendingSubsetLocked(rng *rand.Rand) error {
	g := d.model.Granule
	seen := make(map[int64]bool)
	var order []int64
	for _, p := range d.pending {
		for gr := p.off / g; gr <= (p.off+p.n-1)/g; gr++ {
			if !seen[gr] {
				seen[gr] = true
				order = append(order, gr)
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	kept := make(map[int64]bool, len(order))
	for _, gr := range order {
		if rng.Intn(2) == 1 {
			kept[gr] = true
		}
	}
	for _, p := range d.pending {
		src := p.data
		if src == nil {
			src = d.buf[p.off : p.off+p.n]
		}
		for gr := p.off / g; gr <= (p.off+p.n-1)/g; gr++ {
			if !kept[gr] {
				continue
			}
			lo := max(p.off, gr*g)
			hi := min(p.off+p.n, (gr+1)*g)
			d.store.persist(lo, src[lo-p.off:hi-p.off])
		}
	}
	return d.store.sync()
}

// CloneDurable snapshots the durable image and pending set into a fresh
// in-memory device with the same kind, size, and cost model but zeroed stats
// and disarmed fail points.  The clone's volatile image is the durable image
// (the post-crash view).  One golden run can seed many independent crash
// explorations: clone, then CrashAt with different seeds, without disturbing
// the source device.
func (d *SimDevice) CloneDurable() (*SimDevice, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil, ErrClosed
	}
	nd := NewWithModel(d.kind, int64(len(d.buf)), d.model)
	// Both of the clone's images are fresh, so zero: the persisted prefix is
	// all there is to copy.
	prefix := d.store.img[:d.store.hi]
	nd.dirtyHi = int64(copy(nd.buf, prefix))
	nd.store.persist(0, prefix)
	for _, p := range d.pending {
		src := p.data
		if src == nil {
			src = d.buf[p.off : p.off+p.n]
		}
		nd.pending = append(nd.pending, pendingRange{off: p.off, n: p.n, data: append([]byte(nil), src...)})
	}
	nd.pendingLo, nd.pendingHi = d.pendingLo, d.pendingHi
	return nd, nil
}

// ReadDurable makes dst, which must be exactly Size() bytes, a copy of the
// durable image: the persisted prefix is copied and the rest of dst zeroed.
// The copy is host-side and uncharged: it is an inspection of the image
// (crash tests compare it with the image a recovery reads), not a modeled
// access.
func (d *SimDevice) ReadDurable(dst []byte) error {
	if int64(len(dst)) != int64(len(d.buf)) {
		return fmt.Errorf("%w: durable read of %d bytes from %d-byte device",
			ErrOutOfRange, len(dst), len(d.buf))
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	n := copy(dst, d.store.img[:d.store.hi])
	clear(dst[n:])
	return nil
}

// DurableCRC returns the IEEE CRC-32 of the durable image, so tests can pin
// or compare a pool image without materializing it (TestEngineBuildGolden
// pins each shard's image after the build).
func (d *SimDevice) DurableCRC() (uint32, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	crc := crc32.ChecksumIEEE(d.store.img[:d.store.hi])
	rest := len(d.buf) - int(d.store.hi)
	// The image past the persisted prefix is zero and was never touched:
	// checksum a fixed zero block in its place.
	for rest > 0 {
		n := min(rest, len(zeroBlock))
		crc = crc32.Update(crc, crc32.IEEETable, zeroBlock[:n])
		rest -= n
	}
	return crc, nil
}

var zeroBlock [64 << 10]byte

// PersistEvents returns how many persistence events (Flush and Drain calls,
// combined) the device has seen over its lifetime.  Unlike Stats it is never
// reset, not even by Crash: crash-exploration harnesses use it to name a
// crash point as "after persistence event i" consistently across a golden
// run and its replays.
func (d *SimDevice) PersistEvents() int64 { return d.persistEvents }

// FailFromPersistEvent arms a fail point on the combined flush/drain
// sequence: persistence event n (0-based, counted from device creation) and
// every later one fail with ErrFailPoint.  The device is "dead" from that
// point of the persistence schedule on, which is exactly what a crash-point
// replay needs.  n at or past the workload's total event count never fires.
func (d *SimDevice) FailFromPersistEvent(n int64) { d.failFromEvent = n }

// FailAfterWrites arms a fail point: the next n WriteAt calls succeed, then
// every WriteAt fails with ErrFailPoint until disarmed.  It applies to
// WriteAt only — accessor stores cannot fail, mirroring real CPU store
// instructions.
func (d *SimDevice) FailAfterWrites(n int64) { d.failAfterWrites = n }

// DisarmFailPoints clears every armed fail point.
func (d *SimDevice) DisarmFailPoints() {
	d.failAfterWrites = -1
	d.failFromEvent = -1
}

// Close gives up the durable image (and closes a backing file): a closed
// device's durable image is unreachable — Flush, Drain, Crash and the durable
// readers all fail with ErrClosed first.  The volatile image stays mapped,
// readable and writable, until Discard.
func (d *SimDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	return d.store.close()
}

// Discard closes the device and gives up its volatile image too, which
// nothing else ever does: every device is owed one Discard by whoever owns
// its lifecycle (the engine, the experiment harness, a test).  Unlike Close —
// after which volatile reads and writes still work — the device must not be
// used at all after Discard: accesses through it panic with an ordinary
// bounds error, and a view obtained earlier (ReadView) reads
// another device's bytes or faults.  The caller orders Discard after the
// device's last user, as it orders every other write to the device.
func (d *SimDevice) Discard() error {
	err := d.Close()
	d.mu.Lock()
	defer d.mu.Unlock()
	buf := d.buf
	d.buf = nil
	if d.fileBackedLocked() {
		return errors.Join(err, freeImage(buf))
	}
	return errors.Join(err, recycleImage(buf, d.dirtyHi))
}

// fileBackedLocked reports whether the images map a file (Open) rather than
// anonymous memory.
func (d *SimDevice) fileBackedLocked() bool { return d.store.f != nil }

func (d *SimDevice) checkRange(off, n int64) error {
	if off < 0 || n < 0 || off+n > int64(len(d.buf)) {
		return fmt.Errorf("%w: off=%d n=%d size=%d", ErrOutOfRange, off, n, len(d.buf))
	}
	return nil
}
