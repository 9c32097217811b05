package main

import (
	"fmt"
	"slices"
	"time"

	"intervalsim/internal/core"
	"intervalsim/internal/rng"
	"intervalsim/internal/uarch"
)

// corrupt, when set, alters every simulation result of a sweep before the
// benchmark keeps it. Tests use it to show a wrong result fails the run.
var corrupt func(*uarch.Result)

// simPoint is one simulated design point and its penalty decomposition.
type simPoint struct {
	prog int
	pt   [3]int
	res  *uarch.Result
	bds  []core.Breakdown
}

// sweep is sweep-mcf and sweep-gzip: cmd/sweep's default engine — overlay
// replay, mispredict and load-level recording, then the penalty
// decomposition — over the design grid. Grid point i runs on pool program
// i mod programs, so a round averages the simulator's cost over several
// programs instead of riding on one. The seed orders the points.
type sweep struct {
	bench  string
	progs  []*program
	order  []int      // the grid's points in the order they run
	first  []simPoint // the first round, kept for the checks
	rounds [][]string // every round's output rows
}

func (s *sweep) setup(b *bench, parent int32) error {
	for j := 0; j < b.size.programs; j++ {
		p, err := b.build(parent, poolProgram(s.bench, j), b.size.sweepInsts)
		if err != nil {
			return err
		}
		s.progs = append(s.progs, p)
	}
	s.order = b.perm(len(b.size.grid), 0x5eeb)
	return nil
}

func (s *sweep) round(b *bench, parent int32, n int) error {
	var rows []string
	for _, i := range s.order {
		pt := b.size.grid[i]
		start := time.Now()
		op := b.tr.beginOp("bench.op", parent, int32(i))
		sp, err := s.point(b, op, i, pt)
		b.tr.end(op)
		b.op(time.Since(start), err)
		row := fmt.Sprintf("program %d error %v", sp.prog, err)
		if err == nil {
			row = fmt.Sprintf("program %d %s", sp.prog, simRow(point(pt).Name, sp.res, sp.bds))
		}
		rows = append(rows, row)
		if n == 0 {
			s.first = append(s.first, sp)
		}
	}
	s.rounds = append(s.rounds, rows)
	return nil
}

func (s *sweep) point(b *bench, op int32, i int, pt [3]int) (simPoint, error) {
	sp := simPoint{prog: i % len(s.progs), pt: pt}
	p := s.progs[sp.prog]
	res, err := b.simulate(op, p, point(pt), simOptions(b.size.sweepInsts, p.ov))
	if err != nil {
		return sp, err
	}
	if corrupt != nil {
		corrupt(res)
	}
	sp.res = res
	sp.bds, err = b.decompose(op, p, res)
	return sp, err
}

func (s *sweep) verify(b *bench, parent int32) error {
	b.rows = s.rounds[0]
	for i, rows := range s.rounds[1:] {
		b.check(slices.Equal(rows, b.rows), "round %d output differs from the first round", i+1)
	}
	for _, sp := range s.first {
		if sp.res != nil {
			b.sim.add(sp.res)
			b.checkDecomposition(point(sp.pt).Name, sp.bds)
		}
	}
	// One seed-chosen point runs again without the overlay: replay must
	// reproduce live simulation cycle for cycle.
	sp := s.first[rng.New(b.seed).Intn(len(s.first))]
	if sp.res == nil {
		b.check(false, "%s: no result to check", point(sp.pt).Name)
		return nil
	}
	p := s.progs[sp.prog]
	live, err := b.simulate(parent, p, point(sp.pt), simOptions(b.size.sweepInsts, nil))
	b.check(err == nil && live.Cycles == sp.res.Cycles && live.Stalls == sp.res.Stalls,
		"%s: live run differs from overlay replay (err %v)", point(sp.pt).Name, err)
	return b.crossCheck(parent, p, sp.pt, b.size.sweepInsts)
}

func (s *sweep) close() { s.progs = nil }

// modelBenches are the benchmarks of model-grid and service-mixed: the
// easiest (gzip) and hardest (mcf) to simulate and the two with the least
// predictable branches (crafty, twolf).
var modelBenches = []string{"gzip", "mcf", "crafty", "twolf"}

// modelGrid is model-grid: cmd/sweep's model engine — one ModelSet per
// program, then For and PredictCPI at every design point — over the grid on
// each of modelBenches' suite programs, in an order the seed shuffles. No
// cycle-level simulation runs in the timed region.
type modelGrid struct {
	progs  []*program
	order  []int                 // the grid's points in the order they run
	preds  [][]core.CPIBreakdown // the first round, by program and point
	rounds [][]string
}

func (m *modelGrid) setup(b *bench, parent int32) error {
	for _, j := range b.perm(len(modelBenches), 0x0bde) {
		p, err := b.build(parent, poolProgram(modelBenches[j], 0), b.size.modelInsts)
		if err != nil {
			return err
		}
		m.progs = append(m.progs, p)
		m.preds = append(m.preds, make([]core.CPIBreakdown, len(b.size.grid)))
	}
	m.order = b.perm(len(b.size.grid), 0x0de5)
	return nil
}

func (m *modelGrid) round(b *bench, parent int32, n int) error {
	grid := b.size.grid
	maxROB := 0
	for _, pt := range grid {
		maxROB = max(maxROB, pt[2])
	}
	var rows []string
	for j, p := range m.progs {
		set, err := b.modelSet(parent, p, uarch.Baseline(), maxROB, b.size.modelInsts)
		if err != nil {
			return err
		}
		for _, i := range m.order {
			start := time.Now()
			op := b.tr.beginOp("bench.op", parent, int32(j*len(grid)+i))
			pred, err := b.predict(op, set, point(grid[i]))
			b.tr.end(op)
			b.op(time.Since(start), err)
			rows = append(rows, fmt.Sprintf("%s %s cpi=%v base=%v bpred=%v icache=%v longd=%v err=%v",
				p.wc.Name, point(grid[i]).Name, pred.CPI(), pred.Base, pred.Bpred, pred.ICache, pred.LongData, err))
			if n == 0 {
				m.preds[j][i] = pred
			}
		}
	}
	m.rounds = append(m.rounds, rows)
	return nil
}

func (m *modelGrid) verify(b *bench, parent int32) error {
	b.rows = m.rounds[0]
	for i, rows := range m.rounds[1:] {
		b.check(slices.Equal(rows, b.rows), "round %d output differs from the first round", i+1)
	}
	// The simulator is the model's reference at the grid's corners and
	// centre, on every program.
	for j, p := range m.progs {
		for _, pt := range refPoints {
			cfg := point(pt)
			what := p.wc.Name + " " + cfg.Name
			res, err := b.simulate(parent, p, cfg, simOptions(b.size.modelInsts, p.ov))
			if err != nil {
				return err
			}
			bds, err := b.decompose(parent, p, res)
			if err != nil {
				return err
			}
			b.sim.add(res)
			b.checkDecomposition(what, bds)
			b.checkModel(what, m.preds[j][slices.Index(b.size.grid, pt)], res)
		}
	}
	r := rng.New(b.seed)
	p := m.progs[r.Intn(len(m.progs))]
	return b.crossCheck(parent, p, refPoints[r.Intn(len(refPoints))], b.size.modelInsts)
}

func (m *modelGrid) close() { m.progs, m.preds = nil, nil }
