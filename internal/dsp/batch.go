package dsp

import "fmt"

// This file is the batched execution lane: pushing many same-length
// transforms through one plan invocation. The plan's tables (twiddles,
// chirp, kernel spectrum) and its scratch buffer are fetched once and
// stay hot in cache across the whole batch, which is where the win over
// a loop of Execute calls comes from — per-call pool traffic disappears
// and the table working set is amortized over every row.

// ExecuteBatch runs the planned transform on len(flat)/Len() consecutive
// rows stored back-to-back in flat, each of length Len(). It is
// equivalent to calling Execute on every row but acquires scratch once
// for the whole batch. len(flat) must be a multiple of Len(); an empty
// flat is a no-op.
func (p *Plan) ExecuteBatch(flat []complex128) {
	n := p.n
	if len(flat)%n != 0 {
		panic(fmt.Sprintf("dsp: batch length %d is not a multiple of plan length %d", len(flat), n))
	}
	if n == 1 {
		return
	}
	if p.chirp == nil {
		for off := 0; off < len(flat); off += n {
			p.radix2(flat[off : off+n])
		}
		return
	}
	buf := p.scratch.Get().(*[]complex128)
	for off := 0; off < len(flat); off += n {
		p.bluesteinInto(flat[off:off+n], *buf)
	}
	p.scratch.Put(buf)
}

// Batch stages many same-length complex rows in one flat buffer and
// transforms them all with a single cache-blocked plan invocation. The
// intended shape is: Next() for each row (filling the returned slice),
// one Execute(), then Row(i) to read results. Reset() empties the batch
// while keeping its capacity for reuse.
//
// A slice returned by Next is only valid until the following Next or
// Reset call (the buffer may grow); read transformed rows back through
// Row. A Batch is not safe for concurrent use.
type Batch struct {
	plan *Plan
	buf  []complex128
}

// NewBatch returns an empty batch whose rows will be transformed with the
// cached plan for (n, inverse).
func NewBatch(n int, inverse bool) *Batch {
	return &Batch{plan: PlanFFT(n, inverse)}
}

// Len returns the row length the batch transforms.
func (b *Batch) Len() int { return b.plan.n }

// Rows returns how many rows have been staged.
func (b *Batch) Rows() int { return len(b.buf) / b.plan.n }

// Next appends one zeroed row to the batch and returns it for the caller
// to fill. The slice is invalidated by the next Next or Reset call.
func (b *Batch) Next() []complex128 {
	n := b.plan.n
	old := len(b.buf)
	if cap(b.buf) < old+n {
		grown := make([]complex128, old, 2*old+n)
		copy(grown, b.buf)
		b.buf = grown
	}
	b.buf = b.buf[:old+n]
	row := b.buf[old : old+n]
	for i := range row {
		row[i] = 0
	}
	return row
}

// Execute transforms every staged row in place with one batched plan
// invocation.
func (b *Batch) Execute() { b.plan.ExecuteBatch(b.buf) }

// Row returns staged row i (transformed, after Execute). The slice
// aliases the batch buffer and is invalidated by Next or Reset.
func (b *Batch) Row(i int) []complex128 {
	n := b.plan.n
	return b.buf[i*n : (i+1)*n]
}

// Reset empties the batch, retaining capacity.
func (b *Batch) Reset() { b.buf = b.buf[:0] }
