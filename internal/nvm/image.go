package nvm

import (
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
)

// Device images live outside the Go heap, in page mappings (image_unix.go).
// A pool is sized for its worst case and mostly never touched, and an
// untouched page costs neither resident memory nor garbage-collector heap
// goal, and reads as zero without anyone clearing it.  Nothing but Discard
// gives a mapping back: a device dropped without it keeps its images mapped
// for the life of the process.

// mapped counts the bytes of the images devices hold; recycled holds the
// images discarded devices left for the next device of their size.  A crash
// matrix clones, crashes and discards thousands of same-sized devices back
// to back: mapped fresh each time, every page one touches is a fault and
// then a page to free, where a recycled image costs a clear of what its last
// owner dirtied.  recycleSlots bounds what the list keeps resident.
var (
	mapped   atomic.Int64
	recycled struct {
		mu   sync.Mutex
		imgs []recycledImage // oldest first
	}
)

type recycledImage struct {
	b     []byte
	dirty int64 // b[dirty:] is zero
}

// recycleSlots covers one replicated replay of the failover matrix: three
// shards' primaries, followers and clones, two images each.
const recycleSlots = 16

// MappedBytes reports the bytes mapped by live devices' images: address
// space, of which only the touched pages are resident.  It is back at an
// earlier value once every device made since has been discarded, which the
// packages' TestMain leak checks assert.
func MappedBytes() int64 { return mapped.Load() }

// RecycledBytes reports the bytes of the images waiting for reuse.
func RecycledBytes() (n int64) {
	recycled.mu.Lock()
	defer recycled.mu.Unlock()
	for _, r := range recycled.imgs {
		n += int64(len(r.b))
	}
	return n
}

// mapImage maps a size-byte image.  With f nil it is anonymous and zero;
// otherwise it maps f's first size bytes, shared (stores go to the file's
// pages) or private (copy-on-write: stores stay in this mapping).
func mapImage(f *os.File, size int64, shared bool) ([]byte, error) {
	if size == 0 {
		return nil, nil
	}
	b, err := sysMap(f, size, shared)
	if err != nil {
		return nil, fmt.Errorf("nvm: map %d-byte image: %w", size, err)
	}
	mapped.Add(size)
	return b, nil
}

// newImage returns an anonymous zero image, recycled if one of that size is
// waiting.  A refused mapping is the address space running out: like a failed
// make, not something a caller recovers from.
func newImage(size int64) []byte {
	recycled.mu.Lock()
	i := slices.IndexFunc(recycled.imgs, func(r recycledImage) bool { return int64(len(r.b)) == size })
	if i < 0 {
		recycled.mu.Unlock()
		b, err := mapImage(nil, size, false)
		if err != nil {
			panic(err)
		}
		return b
	}
	r := recycled.imgs[i]
	recycled.imgs = slices.Delete(recycled.imgs, i, i+1)
	recycled.mu.Unlock()
	clear(r.b[:r.dirty])
	mapped.Add(size)
	return r.b
}

// recycleImage gives up an anonymous image that is zero from dirty on: it
// waits for reuse, and the image that has waited longest is unmapped to make
// room.  Any slice of b still held is invalid from then on.
func recycleImage(b []byte, dirty int64) error {
	if len(b) == 0 {
		return nil
	}
	mapped.Add(-int64(len(b)))
	recycled.mu.Lock()
	defer recycled.mu.Unlock()
	recycled.imgs = append(recycled.imgs, recycledImage{b, dirty})
	if len(recycled.imgs) <= recycleSlots {
		return nil
	}
	oldest := recycled.imgs[0].b
	recycled.imgs = slices.Delete(recycled.imgs, 0, 1)
	return sysUnmap(oldest)
}

// freeImage unmaps a file's image; any slice of it still held faults from
// then on.
func freeImage(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	mapped.Add(-int64(len(b)))
	return sysUnmap(b)
}
