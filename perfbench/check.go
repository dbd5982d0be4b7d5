package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"sync"
)

// checker counts attempted operations and failed correctness checks. Every
// restored value is checked against its bound and every compressed
// artifact against its reference bytes; a failure is counted, its first few
// descriptions kept for the report, and never aborts the run.
type checker struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	notes     []string
}

const maxNotes = 8

func (c *checker) attempt(n int) {
	c.mu.Lock()
	c.attempted += int64(n)
	c.mu.Unlock()
}

// fail records one failed operation.
func (c *checker) fail(format string, args ...any) {
	c.mu.Lock()
	c.failed++
	if len(c.notes) < maxNotes {
		c.notes = append(c.notes, fmt.Sprintf(format, args...))
	}
	c.mu.Unlock()
}

// err counts a failed operation when err is non-nil and reports whether it
// was.
func (c *checker) err(what string, err error) bool {
	if err != nil {
		c.fail("%s: %v", what, err)
		return true
	}
	return false
}

// op counts one attempted operation and, when err is non-nil, its failure.
func (c *checker) op(what string, err error) bool {
	c.attempt(1)
	return c.err(what, err)
}

// sameBytes checks an artifact byte-for-byte against its reference.
func (c *checker) sameBytes(what string, got, want []byte) bool {
	if bytes.Equal(got, want) {
		return true
	}
	at := 0
	for at < len(got) && at < len(want) && got[at] == want[at] {
		at++
	}
	c.fail("%s: %d bytes differ from the %d-byte reference at offset %d", what, len(got), len(want), at)
	return false
}

// withinBound checks every restored value against its original under the
// absolute bound e: |x - x'| ≤ e, with NaN restored as NaN and ±Inf exactly.
func withinBound[T float32 | float64](c *checker, what string, orig, got []T, e float64) bool {
	if len(orig) != len(got) {
		c.fail("%s: restored %d values, want %d", what, len(got), len(orig))
		return false
	}
	for i := range orig {
		x, y := float64(orig[i]), float64(got[i])
		if math.Abs(x-y) <= e {
			continue
		}
		if math.IsNaN(x) && math.IsNaN(y) || math.IsInf(x, 0) && x == y {
			continue
		}
		c.fail("%s: value %d restored as %g, original %g, bound %g", what, i, y, x, e)
		return false
	}
	return true
}

// report prints the first failures to stderr.
func (c *checker) report() {
	for _, n := range c.notes {
		fmt.Fprintln(os.Stderr, "check failed:", n)
	}
	if c.failed > int64(len(c.notes)) {
		fmt.Fprintf(os.Stderr, "check failed: ... %d more\n", c.failed-int64(len(c.notes)))
	}
}
