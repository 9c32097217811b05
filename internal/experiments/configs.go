package experiments

import (
	"fmt"

	"intervalsim/internal/uarch"
)

// Point builds a machine configuration at one (dispatch width, frontend
// depth, ROB size) design point: the baseline machine with its widths,
// depth, and window resized, and functional-unit counts scaled with width.
// It is the single config constructor behind cmd/sweep's grid and the
// intervalsimd service's machine specs, so a "w4-d7-r128" point means the
// same processor everywhere.
func Point(width, depth, rob int) uarch.Config {
	cfg := uarch.Baseline()
	cfg.Name = fmt.Sprintf("w%d-d%d-r%d", width, depth, rob)
	cfg.FetchWidth = width
	cfg.DispatchWidth = width
	cfg.IssueWidth = width
	cfg.CommitWidth = width
	cfg.FrontendDepth = depth
	cfg.ROBSize = rob
	cfg.IQSize = rob / 2
	cfg.FU.IntALU.Count = width
	if width > 4 {
		cfg.FU.MemPort.Count = 4
		cfg.FU.IntMul.Count = 4
	}
	return cfg
}
