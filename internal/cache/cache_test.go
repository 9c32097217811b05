package cache

import (
	"strings"
	"testing"
	"testing/quick"

	"intervalsim/internal/rng"
)

func small(name string, size, ways int) Config {
	return Config{Name: name, Size: size, LineSize: 64, Ways: ways, Repl: LRU}
}

func TestConfigValidate(t *testing.T) {
	good := small("L1", 4096, 2)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if got := good.Sets(); got != 32 {
		t.Errorf("Sets() = %d, want 32", got)
	}
	bad := []Config{
		{Name: "z", Size: 0, LineSize: 64, Ways: 1},
		{Name: "z", Size: 4096, LineSize: 0, Ways: 1},
		{Name: "z", Size: 4096, LineSize: 64, Ways: 0},
		{Name: "z", Size: 4096, LineSize: 48, Ways: 1},       // line not pow2
		{Name: "z", Size: 4000, LineSize: 64, Ways: 2},       // not divisible
		{Name: "z", Size: 64 * 3 * 2, LineSize: 64, Ways: 2}, // sets=3 not pow2
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestConfigString(t *testing.T) {
	s := small("L1D", 65536, 4).String()
	for _, want := range []string{"L1D", "64KB", "4-way", "64B", "LRU"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
	if !strings.Contains((Config{Repl: Random}).String(), "random") {
		t.Error("random policy not named")
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted invalid config")
		}
	}()
	New(Config{Name: "bad", Size: 100, LineSize: 64, Ways: 1})
}

func TestColdMissThenHit(t *testing.T) {
	c := New(small("t", 4096, 2))
	if c.Access(0x1000) {
		t.Error("cold access hit")
	}
	if !c.Access(0x1000) {
		t.Error("warm access missed")
	}
	if !c.Access(0x103f) { // same 64B line
		t.Error("same-line access missed")
	}
	if c.Access(0x1040) { // next line
		t.Error("next-line access hit cold")
	}
	if c.Stats.Accesses != 4 || c.Stats.Misses != 2 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way cache: touch three conflicting lines; the least recently used
	// must be the one evicted.
	c := New(small("t", 4096, 2))
	sets := uint64(c.Config().Sets())
	stride := sets * 64 // same set, different tag
	a, b, d := uint64(0x10000), uint64(0x10000)+stride, uint64(0x10000)+2*stride
	c.Access(a)
	c.Access(b)
	c.Access(a) // a is now MRU, b is LRU
	c.Access(d) // evicts b
	if !c.Contains(a) {
		t.Error("a evicted; expected b")
	}
	if c.Contains(b) {
		t.Error("b still resident")
	}
	if !c.Contains(d) {
		t.Error("d not resident")
	}
}

func TestFlush(t *testing.T) {
	c := New(small("t", 4096, 2))
	c.Access(0x1000)
	c.Flush()
	if c.Contains(0x1000) {
		t.Error("flush left line resident")
	}
	if c.Stats.Accesses != 0 {
		t.Error("flush did not reset stats")
	}
}

func TestRandomReplacementFillsInvalidFirst(t *testing.T) {
	cfg := small("t", 4096, 4)
	cfg.Repl = Random
	c := New(cfg)
	stride := uint64(c.Config().Sets()) * 64
	// Four conflicting lines fit in 4 ways without eviction even randomly.
	for i := uint64(0); i < 4; i++ {
		c.Access(0x2000 + i*stride)
	}
	for i := uint64(0); i < 4; i++ {
		if !c.Contains(0x2000 + i*stride) {
			t.Errorf("line %d evicted with free ways available", i)
		}
	}
	// A fifth line must evict exactly one.
	c.Access(0x2000 + 4*stride)
	resident := 0
	for i := uint64(0); i <= 4; i++ {
		if c.Contains(0x2000 + i*stride) {
			resident++
		}
	}
	if resident != 4 {
		t.Errorf("%d lines resident, want 4", resident)
	}
}

// LRU set-wise inclusion: with identical sets, every hit in a w-way LRU
// cache is also a hit in a 2w-way LRU cache over any access stream.
func TestLRUInclusionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		smallC := New(Config{Name: "s", Size: 16 * 64 * 2, LineSize: 64, Ways: 2, Repl: LRU})
		bigC := New(Config{Name: "b", Size: 16 * 64 * 4, LineSize: 64, Ways: 4, Repl: LRU})
		s := rng.New(seed)
		for i := 0; i < 3000; i++ {
			addr := uint64(s.Intn(256)) * 64 // 256 lines over 16 sets
			hitSmall := smallC.Access(addr)
			hitBig := bigC.Access(addr)
			if hitSmall && !hitBig {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Working set smaller than capacity must converge to ~100% hits.
func TestCapacityBehaviour(t *testing.T) {
	c := New(small("t", 64*64, 4)) // 64 lines
	s := rng.New(7)
	// 32 distinct lines, repeatedly accessed: after warmup, all hits.
	for i := 0; i < 1000; i++ {
		c.Access(uint64(s.Intn(32)) * 64)
	}
	c.Stats = Stats{}
	for i := 0; i < 1000; i++ {
		if !c.Access(uint64(s.Intn(32)) * 64) {
			t.Fatal("miss within cached working set")
		}
	}
	// Working set 4x capacity with uniform random access: plenty of misses.
	c2 := New(small("t2", 64*64, 4))
	for i := 0; i < 4000; i++ {
		c2.Access(uint64(s.Intn(256)) * 64)
	}
	if ratio := float64(c2.Stats.Misses) / float64(c2.Stats.Accesses); ratio < 0.5 {
		t.Errorf("thrashing miss ratio = %.2f, want > 0.5", ratio)
	}
}

func baseHierarchy() HierarchyConfig {
	return HierarchyConfig{
		L1I: Config{Name: "L1I", Size: 4 * 1024, LineSize: 64, Ways: 2, Repl: LRU},
		L1D: Config{Name: "L1D", Size: 4 * 1024, LineSize: 64, Ways: 4, Repl: LRU},
		L2:  Config{Name: "L2", Size: 64 * 1024, LineSize: 64, Ways: 8, Repl: LRU},
		Lat: Latencies{L1: 3, L2: 12, Mem: 250},
	}
}

func TestHierarchyValidate(t *testing.T) {
	if err := baseHierarchy().Validate(); err != nil {
		t.Fatalf("valid hierarchy rejected: %v", err)
	}
	h := baseHierarchy()
	h.Lat = Latencies{L1: 5, L2: 3, Mem: 100}
	if err := h.Validate(); err == nil {
		t.Error("inverted latencies accepted")
	}
	h = baseHierarchy()
	h.L1D.Size = 100
	if err := h.Validate(); err == nil {
		t.Error("bad L1D accepted")
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHierarchy(baseHierarchy())
	lvl, lat := h.Data(0x10000)
	if lvl != LongMiss || lat != 250 {
		t.Errorf("cold access: %v/%d, want long-miss/250", lvl, lat)
	}
	lvl, lat = h.Data(0x10000)
	if lvl != L1Hit || lat != 3 {
		t.Errorf("warm access: %v/%d, want L1-hit/3", lvl, lat)
	}
	// Evict from tiny L1D (64 sets? 4KB/64B/4 = 16 sets) but keep in L2.
	stride := uint64(h.L1D.Config().Sets()) * 64
	for i := uint64(1); i <= 8; i++ {
		h.Data(0x10000 + i*stride)
	}
	lvl, lat = h.Data(0x10000)
	if lvl != ShortMiss || lat != 12 {
		t.Errorf("L1-evicted access: %v/%d, want short-miss/12", lvl, lat)
	}
}

func TestHierarchyFetchSeparateFromData(t *testing.T) {
	h := NewHierarchy(baseHierarchy())
	h.Data(0x40000) // fills L1D and L2
	lvl, _ := h.Fetch(0x40000)
	if lvl == L1Hit {
		t.Error("fetch hit in L1I after only a data access")
	}
	if lvl != ShortMiss {
		t.Errorf("fetch should have hit L2: %v", lvl)
	}
	lvl, _ = h.Fetch(0x40000)
	if lvl != L1Hit {
		t.Errorf("second fetch: %v, want L1 hit", lvl)
	}
}

func TestLevelString(t *testing.T) {
	if L1Hit.String() != "L1-hit" || ShortMiss.String() != "short-miss" || LongMiss.String() != "long-miss" {
		t.Error("level names wrong")
	}
	if !strings.Contains(Level(9).String(), "9") {
		t.Error("unknown level not numbered")
	}
}

func TestLineSizeI(t *testing.T) {
	h := NewHierarchy(baseHierarchy())
	if h.LineSizeI() != 64 {
		t.Errorf("LineSizeI = %d", h.LineSizeI())
	}
}

func TestHierarchyDeterminism(t *testing.T) {
	run := func() (Stats, Stats, Stats) {
		h := NewHierarchy(baseHierarchy())
		s := rng.New(123)
		for i := 0; i < 5000; i++ {
			h.Data(uint64(s.Intn(4096)) * 64)
			h.Fetch(uint64(s.Intn(512)) * 64)
		}
		return h.L1I.Stats, h.L1D.Stats, h.L2.Stats
	}
	i1, d1, l1 := run()
	i2, d2, l2 := run()
	if i1 != i2 || d1 != d2 || l1 != l2 {
		t.Error("hierarchy simulation not deterministic")
	}
}

func TestProbeDoesNotAllocate(t *testing.T) {
	c := New(small("t", 4096, 2))
	if c.Probe(0x1000) {
		t.Fatal("probe hit on a cold cache")
	}
	if c.Contains(0x1000) {
		t.Fatal("probe allocated")
	}
	if c.Stats.Accesses != 0 {
		t.Fatal("probe counted as an access")
	}
	c.Access(0x1000)
	if !c.Probe(0x1000) {
		t.Fatal("probe missed a resident line")
	}
	// Probe refreshes recency: after probing a, inserting two conflicting
	// lines must evict the other resident line first.
	sets := uint64(c.Config().Sets())
	stride := sets * 64
	c.Access(0x1000 + stride) // ways now: 0x1000, 0x1000+stride
	c.Probe(0x1000)           // 0x1000 becomes MRU
	c.Access(0x1000 + 2*stride)
	if !c.Contains(0x1000) {
		t.Error("probe did not refresh recency")
	}
	if c.Contains(0x1000 + stride) {
		t.Error("LRU victim not evicted")
	}
}

func TestFetchWrongPath(t *testing.T) {
	h := NewHierarchy(baseHierarchy())
	// Cold: long miss, nothing allocated.
	if lvl := h.FetchWrongPath(0x9000); lvl != LongMiss {
		t.Fatalf("cold wrong-path fetch = %v", lvl)
	}
	if h.L1I.Contains(0x9000) || h.L2.Contains(0x9000) {
		t.Fatal("abandoned wrong-path fetch allocated")
	}
	// Resident in L2 only: fills L1I.
	h.Data(0x9000) // brings the line into L1D and L2
	if lvl := h.FetchWrongPath(0x9000); lvl != ShortMiss {
		t.Fatalf("L2-resident wrong-path fetch = %v", lvl)
	}
	if !h.L1I.Contains(0x9000) {
		t.Fatal("short wrong-path fetch did not fill L1I")
	}
	if lvl := h.FetchWrongPath(0x9000); lvl != L1Hit {
		t.Fatalf("warm wrong-path fetch = %v", lvl)
	}
}
