package pstruct

import (
	"github.com/text-analytics/ntadoc/internal/nvm"
	"github.com/text-analytics/ntadoc/internal/pmem"
)

// Queue is the fixed-capacity traversal queue the NVM pool holds during
// top-down traversal (§IV-B): the engine pops the rule being traversed and
// pushes its subrules.  It is a ring buffer of uint32 rule IDs.  Capacity is
// fixed — the engine bounds it by the rule count — so traversal never
// allocates.
//
// Layout: cap uint64, head uint64, tail uint64, then cap uint32 elements.
type Queue struct {
	acc  nvm.Accessor
	cap  int64
	head int64 // next pop position
	tail int64 // next push position
	size int64
}

const queueHeader = 24

// QueueBytes returns the pool footprint of a queue with the given capacity.
func QueueBytes(capacity int64) int64 { return queueHeader + capacity*4 }

// NewQueue allocates a queue with the given fixed capacity in the pool.
func NewQueue(p *pmem.Pool, capacity int64) (*Queue, error) {
	if capacity < 1 {
		capacity = 1
	}
	acc, err := p.Alloc(QueueBytes(capacity), 8)
	if err != nil {
		return nil, err
	}
	acc.PutUint64(0, uint64(capacity))
	acc.PutUint64(8, 0)
	acc.PutUint64(16, 0)
	return &Queue{acc: acc, cap: capacity}, nil
}

// Base returns the queue's pool offset.
func (q *Queue) Base() int64 { return q.acc.Base() }

// Len returns the number of queued elements.
func (q *Queue) Len() int64 { return q.size }

// Cap returns the fixed capacity.
func (q *Queue) Cap() int64 { return q.cap }

// Push appends x, returning ErrFull when the queue is at capacity.
func (q *Queue) Push(x uint32) error {
	if q.size >= q.cap {
		return ErrFull
	}
	q.acc.PutUint32(queueHeader+q.tail*4, x)
	q.tail = (q.tail + 1) % q.cap
	q.size++
	return nil
}

// Pop removes and returns the oldest element, or ErrEmpty.
func (q *Queue) Pop() (uint32, error) {
	if q.size == 0 {
		return 0, ErrEmpty
	}
	x := q.acc.Uint32(queueHeader + q.head*4)
	q.head = (q.head + 1) % q.cap
	q.size--
	return x, nil
}

// Reset empties the queue without touching element storage.
func (q *Queue) Reset() {
	q.head, q.tail, q.size = 0, 0, 0
}
