package nvm

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// TestMain is nvmtest.Main, which this package cannot import without a cycle:
// every image a test mapped has been given back when the tests are done.
func TestMain(m *testing.M) {
	before := MappedBytes()
	code := m.Run()
	if leaked := MappedBytes() - before; leaked != 0 && code == 0 {
		fmt.Fprintf(os.Stderr, "tests leaked %d bytes of device images (a device without Discard)\n", leaked)
		code = 1
	}
	os.Exit(code)
}

// mappedBy reports how MappedBytes moves across fn.
func mappedBy(fn func()) int64 {
	before := MappedBytes()
	fn()
	return MappedBytes() - before
}

func TestLifecycleMapsAndUnmaps(t *testing.T) {
	const size = 1 << 16
	for _, c := range []struct {
		kind   Kind
		images int64
	}{{KindNVM, 2}, {KindDRAM, 1}} {
		var d *SimDevice
		if got := mappedBy(func() { d = New(c.kind, size) }); got != c.images*size {
			t.Errorf("%v: New mapped %d bytes, want %d images of %d", c.kind, got, c.images, size)
		}
		acc := NewAccessor(d, 0, size)
		acc.PutByte(0, 'x')
		if got := mappedBy(func() { must(t, d.Crash()) }); got != 0 {
			t.Errorf("%v: Crash changed the mapped bytes by %d", c.kind, got)
		}
		if got := mappedBy(func() { must(t, d.Close()) }); got != -(c.images-1)*size {
			t.Errorf("%v: Close unmapped %d bytes, want the durable image only", c.kind, -got)
		}
		d.WriteAt([]byte("still writable"), 0)
		if got := mappedBy(func() { must(t, d.Discard()) }); got != -size {
			t.Errorf("%v: Discard unmapped %d bytes, want the volatile image", c.kind, -got)
		}
		if got := mappedBy(func() { must(t, d.Discard()) }); got != 0 {
			t.Errorf("%v: second Discard moved the mapped bytes by %d", c.kind, got)
		}
		if d.Size() != 0 {
			t.Errorf("%v: discarded device reports size %d", c.kind, d.Size())
		}
		// Use after Discard is a bug the runtime reports as a bounds error,
		// not a fault on the unmapped pages: here through an accessor made
		// while the device was live, as an engine's structures hold them.
		assertPanics(t, "access after Discard", func() { acc.Byte(0) })
	}
}

// A clone maps its own two images and copies only the persisted prefix.
func TestCloneDurableMapsItsOwnImages(t *testing.T) {
	const size = 1 << 16
	d := New(KindNVM, size)
	defer d.Discard()
	devWrite(t, d, []byte("drained"), 100)
	must(t, d.Flush(100, 7))
	must(t, d.Drain())
	devWrite(t, d, []byte("volatile only"), 5000)
	var c *SimDevice
	if got := mappedBy(func() {
		var err error
		if c, err = d.CloneDurable(); err != nil {
			t.Fatal(err)
		}
	}); got != 2*size {
		t.Errorf("CloneDurable mapped %d bytes, want %d", got, 2*size)
	}
	defer c.Discard()
	if c.store.hi != 107 {
		t.Errorf("clone's persisted prefix = %d, want 107", c.store.hi)
	}
	want := make([]byte, size)
	copy(want[100:], "drained")
	if !bytes.Equal(c.buf, want) {
		t.Error("clone's volatile image is not the source's durable image")
	}
	// The clone's own durable image holds it too: it survives the clone's crash.
	must(t, c.Crash())
	if !bytes.Equal(c.buf, want) {
		t.Error("clone's durable image is not the source's durable image")
	}
}

func TestDurableCRCIsTheImagesChecksum(t *testing.T) {
	const size = 3*len(zeroBlock) + 777 // the zero tail spans several blocks and a partial one
	for _, kind := range []Kind{KindNVM, KindDRAM} {
		d := New(kind, int64(size))
		for _, n := range []int{0, 1, 4096 + 5, size} {
			data := bytes.Repeat([]byte{0xA5}, n)
			d.WriteAt(data, 0)
			must(t, d.Flush(0, int64(n)))
			must(t, d.Drain())
			want := make([]byte, size) // a volatile kind persists nothing
			if kind.Persistent() {
				copy(want, data)
			}
			img := bytes.Repeat([]byte{0xFF}, size) // ReadDurable must overwrite all of it
			must(t, d.ReadDurable(img))
			if !bytes.Equal(img, want) {
				t.Fatalf("%v: ReadDurable after flushing %d bytes is not the durable image", kind, n)
			}
			got, err := d.DurableCRC()
			must(t, err)
			if want := crc32.ChecksumIEEE(img); got != want {
				t.Errorf("%v: DurableCRC with %d persisted bytes = %08x, want %08x", kind, n, got, want)
			}
		}
		must(t, d.Close())
		if _, err := d.DurableCRC(); !errors.Is(err, ErrClosed) {
			t.Errorf("%v: DurableCRC after Close: %v, want ErrClosed", kind, err)
		}
		must(t, d.Discard())
	}
}

// Opening a file-backed pool maps exactly what it uses — the file twice,
// shared as the durable image and private as the volatile one — and reads
// nothing.
func TestOpenMapsExactlyWhatItUses(t *testing.T) {
	const size = 1 << 20
	path := filepath.Join(t.TempDir(), "pool.nvm")
	for _, what := range []string{"create", "reopen"} {
		var d *SimDevice
		if got := mappedBy(func() {
			var err error
			if d, err = Open(KindNVM, path, size); err != nil {
				t.Fatal(err)
			}
		}); got != 2*size {
			t.Errorf("%s: Open mapped %d bytes, want two images of %d", what, got, size)
		}
		if d.store.f == nil {
			t.Fatalf("%s: device is not backed by its file", what)
		}
		if got := mappedBy(func() { must(t, d.Discard()) }); got != -2*size {
			t.Errorf("%s: Discard unmapped %d bytes, want %d", what, -got, 2*size)
		}
	}
	// A failed open leaves nothing mapped and no file open.
	if got := mappedBy(func() {
		if _, err := Open(KindNVM, filepath.Join(t.TempDir(), "no", "such", "dir"), size); err == nil {
			t.Error("Open in a missing directory succeeded")
		}
	}); got != 0 {
		t.Errorf("failed Open left %d bytes mapped", got)
	}
}

// A process-style restart — Close, Open again — sees exactly the drained
// bytes: a flushed but unfenced store and an unflushed one are both gone,
// whether they were headed for fresh bytes or for bytes an earlier run
// persisted.
func TestReopenSeesDrainedBytesOnly(t *testing.T) {
	const size = 1 << 16
	path := filepath.Join(t.TempDir(), "pool.nvm")
	want := make([]byte, size)
	for run := 0; run < 3; run++ {
		d, err := Open(KindNVM, path, size)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(d.buf, want) {
			t.Fatalf("run %d: the opened volatile image is not what the last run drained", run)
		}
		img := make([]byte, size)
		must(t, d.ReadDurable(img))
		if !bytes.Equal(img, want) {
			t.Fatalf("run %d: the opened durable image is not what the last run drained", run)
		}
		drained := []byte(fmt.Sprintf("drained in run %d", run))
		devWrite(t, d, drained, 64)                // over the previous run's bytes
		devWrite(t, d, drained, 8192*int64(run+1)) // on a page of its own
		must(t, d.Flush(64, int64(len(drained))))
		must(t, d.Flush(8192*int64(run+1), int64(len(drained))))
		must(t, d.Drain())
		copy(want[64:], drained)
		copy(want[8192*(run+1):], drained)

		devWrite(t, d, []byte("flushed, never fenced"), 64)
		must(t, d.Flush(64, 21))
		devWrite(t, d, []byte("flushed, never fenced"), 40000)
		must(t, d.Flush(40000, 21))
		devWrite(t, d, []byte("never flushed"), 8192*int64(run+1))
		devWrite(t, d, []byte("never flushed"), 50000)
		must(t, d.Close())
		must(t, d.Discard())
	}
	onDisk, err := os.ReadFile(path)
	must(t, err)
	if !bytes.Equal(onDisk, want) {
		t.Error("the pool file is not the drained image")
	}
}

// TestFileBackedMatchesInMemory pins what makes the file-backed volatile
// image safe as a private mapping of the file the durable image writes (see
// durable.volatile): under any schedule of stores, flushes, fences, torn and
// clean crashes and restarts, both of its images stay byte-equal to those of
// an in-memory device, whose volatile image is a copy nothing can show
// through.  Small stores on a many-page device keep most pages unwritten,
// and whole-device flushes persist those too.
func TestFileBackedMatchesInMemory(t *testing.T) {
	const size = 24 * 4096
	path := filepath.Join(t.TempDir(), "pool.nvm")
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		must(t, os.RemoveAll(path))
		file, err := Open(KindNVM, path, size)
		if err != nil {
			t.Fatal(err)
		}
		mem := New(KindNVM, size)
		imgF, imgM := make([]byte, size), make([]byte, size)
		for step := 0; step < 1500; step++ {
			off := rng.Int63n(size - 512)
			n := rng.Int63n(512) + 1
			op := rng.Intn(16)
			switch {
			case op < 6:
				data := make([]byte, n)
				rng.Read(data)
				devWrite(t, file, data, off)
				devWrite(t, mem, data, off)
			case op < 10:
				must(t, file.Flush(off, n))
				must(t, mem.Flush(off, n))
			case op == 10:
				must(t, file.Flush(0, size))
				must(t, mem.Flush(0, size))
			case op < 13:
				must(t, file.Drain())
				must(t, mem.Drain())
			case op == 13:
				must(t, file.Crash())
				must(t, mem.Crash())
			case op == 14:
				s := rng.Int63()
				must(t, file.CrashAt(s))
				must(t, mem.CrashAt(s))
			default: // restart: to an in-memory device, a clean crash
				must(t, file.Discard())
				if file, err = Open(KindNVM, path, 0); err != nil {
					t.Fatal(err)
				}
				must(t, mem.Crash())
			}
			if !bytes.Equal(file.buf, mem.buf) {
				t.Fatalf("seed %d step %d (op %d): volatile images differ", seed, step, op)
			}
			must(t, file.ReadDurable(imgF))
			must(t, mem.ReadDurable(imgM))
			if !bytes.Equal(imgF, imgM) {
				t.Fatalf("seed %d step %d (op %d): durable images differ", seed, step, op)
			}
		}
		must(t, file.Discard())
		must(t, mem.Discard())
	}
}

// A recycled image is indistinguishable from a fresh one — zero everywhere,
// whatever its last owner left in either image — and the list holds no more
// than recycleSlots images however many devices are discarded.
func TestRecycledImagesComeBackZero(t *testing.T) {
	const size = 1<<16 + 4096 // a size no other test's devices have
	junk := bytes.Repeat([]byte{0xEE}, size)
	var last [2]*byte // the images the previous round discarded
	for round := 0; round < 3; round++ {
		d := New(KindNVM, size)
		if !bytes.Equal(d.buf, make([]byte, size)) || !bytes.Equal(d.store.img, make([]byte, size)) {
			t.Fatalf("round %d: a new device's images are not zero", round)
		}
		got := [2]*byte{&d.buf[0], &d.store.img[0]}
		if round > 0 && got != last && got != [2]*byte{last[1], last[0]} {
			t.Errorf("round %d: the device did not get the images the last one discarded", round)
		}
		last = got
		n := int64(size) >> round // a shorter dirty prefix each round, under the longer one before it
		devWrite(t, d, junk[:n], 0)
		must(t, d.Flush(0, n/2))
		must(t, d.Drain())
		must(t, d.Discard())
	}
	var devs []*SimDevice
	for i := int64(1); i <= recycleSlots; i++ { // distinct sizes: none is reused, each Discard adds two
		devs = append(devs, New(KindNVM, i*4096+512))
	}
	for _, d := range devs {
		must(t, d.Discard())
	}
	recycled.mu.Lock()
	held := len(recycled.imgs)
	recycled.mu.Unlock()
	if held != recycleSlots {
		t.Errorf("%d images wait for reuse after discarding %d devices, want %d", held, len(devs), recycleSlots)
	}
}
