package uarch

// confEstimator is a JRS-style (Jacobsen/Rotenberg/Smith) branch confidence
// estimator: a table of 4-bit resetting counters indexed by branch PC. A
// correct prediction increments the branch's counter, a misprediction
// resets it, and a branch is high-confidence only once its counter reaches
// the threshold. The variable-fetch-rate frontend throttles fetch while any
// low-confidence branch is in flight (Ramachandran & Johnson).
type confEstimator struct {
	table []uint8
}

const (
	confEntries       = 1024
	confCeiling       = 15 // 4-bit resetting counter
	confHighThreshold = 8
)

func newConfEstimator() *confEstimator {
	return &confEstimator{table: make([]uint8, confEntries)}
}

// access classifies the branch at pc and folds in its outcome: it reports
// whether the branch was low-confidence at fetch time (before the update).
func (c *confEstimator) access(pc uint64, mispredicted bool) bool {
	i := (pc >> 2) % uint64(len(c.table))
	low := c.table[i] < confHighThreshold
	if mispredicted {
		c.table[i] = 0
	} else if c.table[i] < confCeiling {
		c.table[i]++
	}
	return low
}
