package atlasdata

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"runtime"
)

// The chunked scanner. An input is cut into blocks of whole lines, about
// blockSize bytes each. The blocks of a file, or of an io.SectionReader
// over one, are scanned by GOMAXPROCS worker goroutines while the caller's goroutine reads ahead and hands the
// scanned blocks on in input order; a scan keeps a fixed ring of blocks
// whose buffers are recycled, so memory does not grow with the input.
// Any other reader, and a file that fits one block, is scanned block by
// block on the caller's goroutine: those are the text bodies Parse*
// is given, which stay free of goroutine handoffs (whose runtime
// bookkeeping allocates now and then) and of their fixed cost.

// blockSize is how many bytes a block gathers before it is cut at its
// last newline. Tests shrink it so that runs, comments and bad records
// straddle block boundaries.
var blockSize = 64 << 10

// maxLine is the longest line the scanner takes, newline excluded. A
// longer line fails with bufio.ErrTooLong, as it does through a
// bufio.Scanner whose buffer may grow to maxLine bytes.
const maxLine = 1 << 20

// block is a stretch of whole lines of the input and what scanning them
// found.
type block struct {
	buf   []byte // the lines; only the input's last may lack its newline
	off   int64  // where buf starts in the input
	line  int    // lines of the input before buf
	lines int    // lines in buf
	slot  int    // the block's index in its scan's ring, below blockScan.slots' n
	at    int    // for the scan: where the block's output goes
	n     int    // for the scan: how much output the block made
	err   error  // the first error scanning the block met

	mem  []byte        // buf's backing array, kept across scans
	scan blockScan     // the scan the block is part of
	done chan struct{} // signalled once a worker has scanned the block
}

// blockScan is what one pass of scanBlocks does with its blocks.
type blockScan interface {
	// slots is called first, with the number of blocks the pass can
	// have in flight.
	slots(n int)
	// start is called on the caller's goroutine, in input order, before
	// b is scanned. It may refuse a block while others are in flight
	// (idle false); the pass then finishes them all and asks again.
	start(b *block, idle bool) bool
	// scan scans b, on any goroutine.
	scan(b *block)
	// finish is called on the caller's goroutine, in input order, once
	// b is scanned. An error ends the pass.
	finish(b *block) error
}

// scanBlocks cuts r into blocks and passes each through s. It returns
// the first error s.finish returns, or else the error reading r ended
// with (nil at io.EOF). A line of more than maxLine bytes ends the input
// with bufio.ErrTooLong, after the lines before it.
func scanBlocks(r io.Reader, s blockScan) error {
	c := getCutter(r)
	keep := true
	defer func() {
		if keep {
			putCutter(c)
		}
	}()
	s.slots(len(c.ring))
	b := c.ring[0]
	if !c.cut(b) {
		return c.readErr()
	}
	_, file := r.(*os.File)
	_, section := r.(*io.SectionReader)
	if !file && !section || c.err != nil {
		for i := 1; ; i++ {
			s.start(b, true)
			s.scan(b)
			if err := s.finish(b); err != nil {
				return err
			}
			if b = c.ring[i%2]; !c.cut(b) {
				return c.readErr()
			}
		}
	}

	// A file scanned in parallel leaves its ring to the collector: kept,
	// its blocks would stay live in a program that opens its files once.
	keep = false
	workers := runtime.GOMAXPROCS(0)
	for range workers {
		go blockWorker()
	}
	defer func() {
		for range workers {
			blockJobs <- nil
		}
	}()
	err := c.pipe(s, b)
	for c.inflight > 0 { // after an error, only wait for the workers
		if e := c.finishOldest(err == nil); err == nil {
			err = e
		}
	}
	if err != nil {
		return err
	}
	return c.readErr()
}

// blockJobs carries blocks to the workers. Every pass of scanBlocks
// starts its own workers and stops as many with nil when it ends; the
// workers are interchangeable, so which of them stop does not matter.
// (A worker that takes no arguments starts without allocating.)
var blockJobs = make(chan *block)

func blockWorker() {
	for b := range blockJobs {
		if b == nil {
			return
		}
		b.scan.scan(b)
		b.done <- struct{}{}
	}
}

// idleCutters keeps the cutters of passes scanned block by block, and
// with them their blocks' buffers, for the next such passes: four, more
// than run at once in practice. A sync.Pool would hand back nothing
// after a garbage collection, and the pass would allocate its blocks
// again.
var idleCutters = make(chan *cutter, 4)

// getCutter returns a cutter ready to cut r, with a ring of blocks for
// GOMAXPROCS workers.
func getCutter(r io.Reader) *cutter {
	var c *cutter
	select {
	case c = <-idleCutters:
	default:
		c = new(cutter)
	}
	n := 2*runtime.GOMAXPROCS(0) + 2
	for len(c.ring) < n {
		c.ring = append(c.ring, &block{done: make(chan struct{}, 1)})
	}
	c.ring = c.ring[:n]
	c.r, c.err, c.carry, c.off, c.line, c.head, c.inflight = r, nil, nil, 0, 0, 0, 0
	for i, b := range c.ring {
		b.slot = i
	}
	return c
}

// putCutter keeps c for a later pass, unless enough are kept. Buffers
// grown past blockSize for long lines are dropped.
func putCutter(c *cutter) {
	c.r, c.carry = nil, nil
	for _, b := range c.ring {
		b.buf, b.scan, b.err = nil, nil, nil
		if cap(b.mem) > blockSize {
			b.mem = nil
		}
	}
	select {
	case idleCutters <- c:
	default:
	}
}

// cutter cuts one input into blocks and keeps the ring of blocks a pass
// of scanBlocks dispatches in order.
type cutter struct {
	r     io.Reader
	err   error  // what ended the input: io.EOF at its end
	carry []byte // the partial line after the last cut
	off   int64  // input bytes cut so far
	line  int    // input lines cut so far

	ring     []*block
	head     int // the oldest block in flight
	inflight int
}

// readErr is the error reading the input ended with, nil at its end.
func (c *cutter) readErr() error {
	if c.err == io.EOF {
		return nil
	}
	return c.err
}

// pipe runs the pass from first, which is cut, until the input or a
// finish ends it, leaving blocks in flight for the caller to wait for.
func (c *cutter) pipe(s blockScan, first *block) error {
	b := first
	for {
		for !s.start(b, c.inflight == 0) {
			for c.inflight > 0 {
				if err := c.finishOldest(true); err != nil {
					return err
				}
			}
		}
		b.scan = s
		blockJobs <- b
		c.inflight++
		b = c.ring[(c.head+c.inflight)%len(c.ring)]
		if c.inflight == len(c.ring) { // b is the oldest block in flight
			if err := c.finishOldest(true); err != nil {
				return err
			}
		}
		if !c.cut(b) {
			return nil
		}
	}
}

// finishOldest waits for the oldest block in flight to be scanned and,
// if call is set, finishes it.
func (c *cutter) finishOldest(call bool) error {
	b := c.ring[c.head]
	<-b.done
	c.head = (c.head + 1) % len(c.ring)
	c.inflight--
	if !call {
		return nil
	}
	return b.scan.finish(b)
}

// cut fills b with the input's next whole lines. It reports false when
// no line is left, c.err then saying why.
func (c *cutter) cut(b *block) bool {
	n := len(c.carry) // the carry holds no newline and is below maxLine
	lim := blockSize
	if n >= lim {
		lim = min(2*n, maxLine)
	}
	mem := growTo(b.mem, lim, nil)
	copy(mem, c.carry)
	c.carry = nil
	for empty := 0; ; {
		for n < lim && c.err == nil {
			k, err := c.r.Read(mem[n:lim])
			n += k
			if err != nil {
				c.err = err
			} else if k > 0 {
				empty = 0
			} else if empty++; empty == 100 {
				c.err = io.ErrNoProgress // as bufio.Scanner gives up
			}
		}
		if c.err != nil {
			break // mem[:n] is the rest of the input
		}
		if i := bytes.LastIndexByte(mem[:n], '\n'); i >= 0 {
			c.carry, n = mem[i+1:n], i+1
			break
		}
		// One line fills the buffer.
		if n >= maxLine {
			c.err, n = bufio.ErrTooLong, 0
			break
		}
		lim = min(2*lim, maxLine)
		mem = growTo(mem, lim, mem[:n])
	}
	b.mem = mem
	if n == 0 {
		return false
	}
	b.buf, b.off, b.line = mem[:n], c.off, c.line
	b.lines = bytes.Count(b.buf, []byte{'\n'})
	if b.buf[n-1] != '\n' {
		b.lines++
	}
	c.off += int64(n)
	c.line += b.lines
	return true
}

// growTo returns mem with room for n bytes, keeping the bytes of keep.
func growTo(mem []byte, n int, keep []byte) []byte {
	if cap(mem) >= n {
		return mem[:n]
	}
	grown := make([]byte, n)
	copy(grown, keep)
	return grown
}
