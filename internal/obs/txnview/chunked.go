package txnview

// chunked is a growable array kept in chunks of chunkLen elements, so
// growing it never copies what it holds or leaves an outgrown copy to
// the collector: a fold allocates each record once and holds at most
// one partly used chunk per array.
type chunked[T any] struct {
	chunks []*[chunkLen]T
	n      int
}

const (
	chunkShift = 8
	chunkLen   = 1 << chunkShift
)

// at returns element i, which must be below the length.
func (c *chunked[T]) at(i int) *T { return &c.chunks[i>>chunkShift][i&(chunkLen-1)] }

// grow extends the array to n zeroed elements; n is at least the
// length.
func (c *chunked[T]) grow(n int) {
	for len(c.chunks)<<chunkShift < n {
		c.chunks = append(c.chunks, new([chunkLen]T))
	}
	c.n = n
}

// push appends a zeroed element and returns its index.
func (c *chunked[T]) push() int {
	c.grow(c.n + 1)
	return c.n - 1
}
