package bpred

import "fmt"

// Config selects and sizes the branch prediction unit. It is the
// speculation half of a machine configuration: together with the cache
// hierarchy geometry it fully determines every prediction outcome on a
// given trace, independent of any pipeline timing parameter — which is why
// it carries a canonical Fingerprint for keying precomputed miss-event
// overlays (package overlay).
type Config struct {
	Kind       string // "perfect", "taken", "not-taken", "bimodal", "gshare", "local", "tournament", "perceptron", "tage", "2bc-gskew"
	Entries    int    // table entries for table-based kinds
	HistBits   uint   // history length for gshare/local
	BTBEntries int    // 0 disables target misses
}

// Build constructs the configured prediction unit. Geometry the table
// constructors cannot build (they panic on it) is an error here, so a
// configuration that arrives from outside the process is checked, not
// trusted.
func (c Config) Build() (*Unit, error) {
	pow2 := func(n int) bool { return n > 0 && n&(n-1) == 0 }
	switch c.Kind {
	case "bimodal", "gshare", "local", "tournament", "perceptron", "tage", "2bc-gskew":
		if !pow2(c.Entries) {
			return nil, fmt.Errorf("bpred: %s entries must be a positive power of two, got %d", c.Kind, c.Entries)
		}
	}
	switch {
	case c.Kind == "local" && (c.HistBits < 1 || c.HistBits > 16):
		return nil, fmt.Errorf("bpred: local history bits %d out of [1,16]", c.HistBits)
	case c.Kind == "perceptron" && (c.HistBits < 1 || c.HistBits > 64):
		return nil, fmt.Errorf("bpred: perceptron history bits %d out of [1,64]", c.HistBits)
	case c.BTBEntries > 0 && !pow2(c.BTBEntries):
		return nil, fmt.Errorf("bpred: BTB entries must be a power of two, got %d", c.BTBEntries)
	}
	var dir Predictor
	switch c.Kind {
	case "perfect":
		dir = Perfect{}
	case "taken":
		dir = &Static{Taken: true}
	case "not-taken":
		dir = &Static{Taken: false}
	case "bimodal":
		dir = NewBimodal(c.Entries)
	case "gshare":
		dir = NewGShare(c.Entries, c.HistBits)
	case "local":
		dir = NewLocal(c.Entries, c.HistBits)
	case "tournament":
		dir = NewTournament(
			NewGShare(c.Entries, c.HistBits),
			NewBimodal(c.Entries),
			c.Entries,
		)
	case "perceptron":
		dir = NewPerceptron(c.Entries, int(c.HistBits))
	case "tage":
		dir = NewTAGE(c.Entries, c.HistBits)
	case "2bc-gskew":
		dir = NewGSkew(c.Entries, c.HistBits)
	default:
		return nil, fmt.Errorf("bpred: unknown predictor kind %q", c.Kind)
	}
	u := &Unit{Dir: dir}
	if c.BTBEntries > 0 {
		u.BTB = NewBTB(c.BTBEntries)
	}
	return u, nil
}

// Fingerprint returns a canonical stable hash of the configuration: two
// Configs produce the same fingerprint if and only if they build behaviorally
// identical prediction units (up to hash collisions). Every field of Config
// affects prediction outcomes, so every field is hashed. The serialization
// is explicit and tagged — field by field, each preceded by its name — so
// the hash does not depend on struct declaration order and cannot conflate
// a zero field with an absent one.
func (c Config) Fingerprint() uint64 {
	h := newFNV()
	h.string("kind", c.Kind)
	h.int("entries", int64(c.Entries))
	h.int("histbits", int64(c.HistBits))
	h.int("btbentries", int64(c.BTBEntries))
	return h.sum
}

// fnv is a minimal FNV-1a 64-bit hasher over tagged fields. A hand-rolled
// serialization (rather than fmt or reflection) keeps the fingerprint stable
// across Go versions and struct refactors: the byte stream is defined by
// this file alone.
type fnv struct{ sum uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newFNV() *fnv { return &fnv{sum: fnvOffset} }

func (h *fnv) byte(b byte) {
	h.sum ^= uint64(b)
	h.sum *= fnvPrime
}

func (h *fnv) string(tag, s string) {
	for i := 0; i < len(tag); i++ {
		h.byte(tag[i])
	}
	h.byte('=')
	for i := 0; i < len(s); i++ {
		h.byte(s[i])
	}
	h.byte(';')
}

func (h *fnv) int(tag string, v int64) {
	for i := 0; i < len(tag); i++ {
		h.byte(tag[i])
	}
	h.byte('=')
	for i := 0; i < 8; i++ {
		h.byte(byte(v >> (8 * i)))
	}
	h.byte(';')
}
