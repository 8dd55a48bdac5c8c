package core

import (
	"cmp"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math"
	"slices"

	"energysched/internal/model"
)

// instanceHashVersion is folded into every digest so that a future
// change to the canonical byte stream changes every hash instead of
// silently colliding with old ones.
const instanceHashVersion = 1

var hashTag = fmt.Sprintf("energysched/instance/v%d", instanceHashVersion)

// Hash returns a canonical 128-bit FNV-1a digest of the instance as a
// 32-character lowercase hex string. Two instances hash equal exactly
// when they describe the same problem: same task names and weights (in
// task order), same dependence edges (as a set), same mapping, same
// speed model, same deadline and same reliability constraints. The
// digest is independent of edge insertion order, of the process, and
// of the platform, so it is a stable cache / dedup key across runs and
// machines; it is versioned, so it may change between releases of this
// module when the instance format grows.
//
// Hash assumes a structurally valid instance (Graph and Mapping
// non-nil); call Validate first on untrusted input.
func (in *Instance) Hash() string {
	g := in.Graph
	edges := g.Edges()
	slices.SortFunc(edges, compareEdges)
	return canonical{
		n:        g.N(),
		task:     func(i int) (string, float64) { t := g.Task(i); return t.Name, t.Weight },
		edges:    edges,
		order:    in.Mapping.Order[:in.Mapping.P],
		speed:    &in.Speed,
		deadline: in.Deadline,
		rel:      in.Rel,
		frel:     in.FRel,
	}.digest()
}

// canonical is everything an instance digest covers. Instance.Hash
// and WireInstance.Key both fill one in, so a built instance and its
// wire form cannot drift apart.
type canonical struct {
	n        int
	task     func(i int) (name string, weight float64)
	edges    [][2]int // sorted by compareEdges, no duplicates
	order    [][]int  // each processor's tasks in execution order
	speed    *model.SpeedModel
	deadline float64
	rel      *model.Reliability // nil for BI-CRIT
	frel     float64
}

// digest appends the canonical byte stream into one buffer and hashes
// it. Integers are 8-byte big-endian; strings are length-prefixed so
// adjacent fields cannot alias ("ab","c" vs "a","bc"); floats are
// their IEEE-754 bit patterns, so -0.0 and 0.0 (and different NaN
// payloads) hash differently — bit-exact instances are the equality
// contract.
func (c canonical) digest() string {
	// Size the buffer exactly: tag, tasks, edges, mapping, speed
	// model (kind, fmin, fmax, delta, levels), deadline, reliability.
	size := 8 + len(hashTag) + 8 + 16*c.n + 8 + 16*len(c.edges) + 8 + 8*len(c.order) +
		40 + 8*len(c.speed.Levels) + 8 + 48
	for i := 0; i < c.n; i++ {
		name, _ := c.task(i)
		size += len(name)
	}
	for _, order := range c.order {
		size += 8 * len(order)
	}
	b := make([]byte, 0, size)
	str := func(s string) {
		b = binary.BigEndian.AppendUint64(b, uint64(len(s)))
		b = append(b, s...)
	}
	u64 := func(v uint64) { b = binary.BigEndian.AppendUint64(b, v) }
	f64 := func(v float64) { u64(math.Float64bits(v)) }

	str(hashTag)
	u64(uint64(c.n))
	for i := 0; i < c.n; i++ {
		name, weight := c.task(i)
		str(name)
		f64(weight)
	}
	u64(uint64(len(c.edges)))
	for _, e := range c.edges {
		u64(uint64(e[0]))
		u64(uint64(e[1]))
	}
	u64(uint64(len(c.order)))
	for _, order := range c.order {
		u64(uint64(len(order)))
		for _, t := range order {
			u64(uint64(t))
		}
	}
	u64(uint64(c.speed.Kind))
	f64(c.speed.FMin)
	f64(c.speed.FMax)
	f64(c.speed.Delta)
	u64(uint64(len(c.speed.Levels)))
	for _, l := range c.speed.Levels {
		f64(l)
	}
	f64(c.deadline)
	if c.rel == nil {
		u64(0)
	} else {
		u64(1)
		f64(c.rel.Lambda0)
		f64(c.rel.Sensitivity)
		f64(c.rel.FMin)
		f64(c.rel.FMax)
		f64(c.frel)
	}

	h := fnv.New128a()
	h.Write(b)
	var sum [16]byte
	var out [32]byte
	hex.Encode(out[:], h.Sum(sum[:0]))
	return string(out[:])
}

// compareEdges orders edges by source, then target.
func compareEdges(a, b [2]int) int {
	if c := cmp.Compare(a[0], b[0]); c != 0 {
		return c
	}
	return cmp.Compare(a[1], b[1])
}

// NewConfig materializes a functional option list into a validated
// Config, exactly as Solve and SolveAll do internally. Callers that
// need the resolved knobs without solving — e.g. to build a cache key
// from Fingerprint — use it to share one source of truth with the
// solve path.
func NewConfig(opts ...Option) (*Config, error) { return newConfig(opts...) }

// Fingerprint returns a canonical encoding of the result-affecting
// knobs: pinned solver, strategy, exact size limit, round-up K and
// lower-bound computation. Timeout, Validate and Workers change how a
// solve runs, never which solution it returns, so configs differing
// only there share a fingerprint. Combined with Instance.Hash it forms
// a stable memoization key for solver results.
func (c *Config) Fingerprint() string {
	return fmt.Sprintf("solver=%s|strategy=%s|exact=%d|k=%d|lb=%t",
		c.Solver, c.Strategy, c.ExactSizeLimit, c.RoundUpK, c.LowerBound)
}
