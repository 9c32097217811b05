// Package cache implements the memory-hierarchy substrate: a generic
// set-associative cache with LRU or random replacement, and a two-level
// hierarchy (split L1 instruction/data caches in front of a unified L2)
// that classifies every access into the latency classes interval analysis
// cares about: L1 hit, short miss (L1 miss that hits in L2), and long miss
// (all the way to memory).
//
// The model is timing-only: no data is stored, writes allocate like reads,
// and write-back traffic is not modeled — none of it affects the latency
// classes that drive the penalty model.
package cache

import (
	"fmt"

	"intervalsim/internal/rng"
)

// Replacement selects the victim policy of a cache.
type Replacement uint8

// Replacement policies.
const (
	LRU Replacement = iota
	Random
)

// String returns the policy name.
func (r Replacement) String() string {
	switch r {
	case LRU:
		return "LRU"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("Replacement(%d)", uint8(r))
	}
}

// Config describes one cache.
type Config struct {
	Name     string      // label for reports, e.g. "L1D"
	Size     int         // total capacity in bytes
	LineSize int         // bytes per line (power of two)
	Ways     int         // associativity
	Repl     Replacement // victim policy
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.Size / (c.LineSize * c.Ways) }

// Validate reports the first configuration error, if any.
func (c Config) Validate() error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %q: non-positive size/line/ways", c.Name)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineSize)
	}
	sets := c.Sets()
	if sets <= 0 || c.Size != sets*c.LineSize*c.Ways {
		return fmt.Errorf("cache %q: size %d not divisible into %d-way sets of %dB lines",
			c.Name, c.Size, c.Ways, c.LineSize)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// String summarizes the geometry, e.g. "L1D 64KB/4-way/64B LRU".
func (c Config) String() string {
	return fmt.Sprintf("%s %dKB/%d-way/%dB %v", c.Name, c.Size/1024, c.Ways, c.LineSize, c.Repl)
}

// Stats counts accesses and misses of one cache.
type Stats struct {
	Accesses uint64
	Misses   uint64
}

// Cache is one set-associative cache level.
type Cache struct {
	cfg      Config
	tags     []uint64 // sets × ways, tag per line
	valid    []bool
	stamps   []uint64 // LRU timestamps
	clock    uint64
	setShift uint
	setMask  uint64
	rand     *rng.Source
	Stats    Stats
}

// New builds a cache from cfg; it panics on invalid geometry (configurations
// are programmer input, not runtime data).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	shift := uint(0)
	for 1<<shift < cfg.LineSize {
		shift++
	}
	n := cfg.Sets() * cfg.Ways
	return &Cache{
		cfg:      cfg,
		tags:     make([]uint64, n),
		valid:    make([]bool, n),
		stamps:   make([]uint64, n),
		setShift: shift,
		setMask:  uint64(cfg.Sets() - 1),
		rand:     rng.New(0x9d9e0a7c0f2b3d41),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Access looks up the line containing addr, allocating it on a miss, and
// reports whether it hit.
func (c *Cache) Access(addr uint64) bool {
	c.clock++
	c.Stats.Accesses++
	line := addr >> c.setShift
	set := int(line & c.setMask)
	base := set * c.cfg.Ways
	// Hit path.
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line {
			c.stamps[i] = c.clock
			return true
		}
	}
	// Miss: fill an invalid way or evict per policy.
	c.Stats.Misses++
	victim := base
	switch c.cfg.Repl {
	case Random:
		found := false
		for w := 0; w < c.cfg.Ways; w++ {
			if !c.valid[base+w] {
				victim, found = base+w, true
				break
			}
		}
		if !found {
			victim = base + c.rand.Intn(c.cfg.Ways)
		}
	default: // LRU; invalid ways have stamp 0 and lose automatically
		oldest := c.stamps[base]
		for w := 1; w < c.cfg.Ways; w++ {
			if c.stamps[base+w] < oldest {
				oldest = c.stamps[base+w]
				victim = base + w
			}
		}
	}
	c.tags[victim] = line
	c.valid[victim] = true
	c.stamps[victim] = c.clock
	return false
}

// Probe looks up the line containing addr, refreshing its recency on a hit,
// but does not allocate on a miss and does not touch the statistics. It
// models accesses a real machine would abandon rather than fill for — e.g.
// wrong-path fetches past the first memory miss.
func (c *Cache) Probe(addr uint64) bool {
	line := addr >> c.setShift
	base := int(line&c.setMask) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		i := base + w
		if c.valid[i] && c.tags[i] == line {
			c.clock++
			c.stamps[i] = c.clock
			return true
		}
	}
	return false
}

// Contains reports whether the line holding addr is currently resident,
// without touching replacement state. Intended for tests and inspection.
func (c *Cache) Contains(addr uint64) bool {
	line := addr >> c.setShift
	base := int(line&c.setMask) * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == line {
			return true
		}
	}
	return false
}

// Flush invalidates every line and resets statistics.
func (c *Cache) Flush() {
	for i := range c.valid {
		c.valid[i] = false
		c.stamps[i] = 0
	}
	c.clock = 0
	c.Stats = Stats{}
}

// Level classifies where an access was satisfied.
type Level uint8

// Access outcome levels, ordered by distance from the core.
const (
	L1Hit     Level = iota // satisfied by the first-level cache
	ShortMiss              // L1 miss, L2 hit — the paper's "short (L1) D-cache miss"
	LongMiss               // L2 miss, served from memory
)

// String names the level.
func (l Level) String() string {
	switch l {
	case L1Hit:
		return "L1-hit"
	case ShortMiss:
		return "short-miss"
	case LongMiss:
		return "long-miss"
	default:
		return fmt.Sprintf("Level(%d)", uint8(l))
	}
}

// Latencies holds the load-to-use latency of each hierarchy level, in cycles.
type Latencies struct {
	L1  int // L1 hit
	L2  int // L1 miss, L2 hit
	Mem int // full memory access
}

// HierarchyConfig describes the full memory hierarchy.
type HierarchyConfig struct {
	L1I Config
	L1D Config
	L2  Config
	Lat Latencies
}

// Validate reports the first configuration error, if any.
func (h HierarchyConfig) Validate() error {
	for _, c := range []Config{h.L1I, h.L1D, h.L2} {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	if h.Lat.L1 <= 0 || h.Lat.L2 <= h.Lat.L1 || h.Lat.Mem <= h.Lat.L2 {
		return fmt.Errorf("cache: latencies must satisfy 0 < L1 < L2 < Mem, got %+v", h.Lat)
	}
	return nil
}

// Hierarchy is a split-L1, unified-L2 memory hierarchy.
type Hierarchy struct {
	L1I *Cache
	L1D *Cache
	L2  *Cache
	Lat Latencies
}

// NewHierarchy builds the hierarchy; it panics on invalid configuration.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Hierarchy{
		L1I: New(cfg.L1I),
		L1D: New(cfg.L1D),
		L2:  New(cfg.L2),
		Lat: cfg.Lat,
	}
}

// Data performs a data access at addr and returns its latency class and
// latency in cycles. Stores time like loads (allocate on write).
func (h *Hierarchy) Data(addr uint64) (Level, int) {
	if h.L1D.Access(addr) {
		return L1Hit, h.Lat.L1
	}
	if h.L2.Access(addr) {
		return ShortMiss, h.Lat.L2
	}
	return LongMiss, h.Lat.Mem
}

// Fetch performs an instruction fetch at pc and returns its latency class
// and latency in cycles.
func (h *Hierarchy) Fetch(pc uint64) (Level, int) {
	if h.L1I.Access(pc) {
		return L1Hit, h.Lat.L1
	}
	if h.L2.Access(pc) {
		return ShortMiss, h.Lat.L2
	}
	return LongMiss, h.Lat.Mem
}

// FetchWrongPath performs a wrong-path instruction fetch at pc: an L1I hit
// refreshes recency; an L1I miss that probes into the L2 fills the L1I (the
// fill beats any realistic branch resolution); an L2 miss is abandoned with
// nothing allocated (a frontend does not chase memory for a path it will
// squash). Returns the level that would have served the access.
func (h *Hierarchy) FetchWrongPath(pc uint64) Level {
	if h.L1I.Probe(pc) {
		return L1Hit
	}
	if h.L2.Probe(pc) {
		h.L1I.Access(pc) // fill into L1I
		return ShortMiss
	}
	return LongMiss
}

// LineSizeI returns the I-side line size in bytes, used by fetch units to
// detect line crossings.
func (h *Hierarchy) LineSizeI() int { return h.L1I.cfg.LineSize }
