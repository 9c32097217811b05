package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"intervalsim/internal/core"
	"intervalsim/internal/experiments"
	"intervalsim/internal/rng"
	"intervalsim/internal/service"
	"intervalsim/internal/uarch"
	"intervalsim/internal/workload"
)

// Request kinds: a single-point simulation with penalty decomposition on a
// program the service has seen, the analytic model at one point, and a
// simulation of a program the service has never seen (trace generation,
// Pack and the overlay pre-pass run inside the request).
const (
	kindSim   = "sim"
	kindModel = "model"
	kindCold  = "cold"
)

type request struct {
	kind  string
	wc    workload.Config
	point [3]int
}

// answer is the service's reply: batch for simulations, model otherwise.
type answer struct {
	batch service.BatchPoint
	model service.ModelResult
}

func (a answer) row(kind string) string {
	if kind == kindModel {
		m := a.model
		return fmt.Sprintf("cpi=%v base=%v bpred=%v icache=%v longd=%v pen=%v",
			m.CPI, m.CPIBase, m.CPIBpred, m.CPIICache, m.CPILongData, m.AvgMispredictPenalty)
	}
	p := a.batch
	return fmt.Sprintf("cycles=%d ipc=%v pen=%v/%v/%v/%v/%v/%v path=%s",
		p.Cycles, p.IPC, p.AvgPenalty, p.PenFrontend, p.PenDrain, p.PenFU, p.PenShortD, p.PenLongD, p.Path)
}

// server is an in-process intervalsimd on a loopback listener, with a client
// that keeps at most conns connections alive.
type server struct {
	svc    *service.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

func startServer(conns int) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		svc:    service.New(service.Options{Workers: conns, TraceCache: experiments.NewTraceCache(8)}),
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: time.Minute, Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}},
	}
	s.hs = &http.Server{Handler: s.svc.Handler()}
	go func() { s.served <- s.hs.Serve(ln) }()
	return s, nil
}

// close stops the listener, waits for in-flight requests and the worker
// pool, and drops the client's connections.
func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.hs.Shutdown(ctx) //nolint:errcheck // a late request only delays exit
	<-s.served
	s.svc.Shutdown(ctx) //nolint:errcheck // as above
	s.client.CloseIdleConnections()
}

// send posts one request as a layer call and returns the decoded answer.
// Any status but 200, and any batch trailer not reporting every point ok,
// is an error.
func (s *server) send(b *bench, parent, op int32, rq request, insts int) (answer, error) {
	wc := rq.wc
	path := "/v1/batch"
	var body any = service.BatchRequest{
		Workload: &wc, Insts: insts, Warmup: warmup(insts), Decompose: true,
		Points: []service.BatchPointSpec{{Width: rq.point[0], Depth: rq.point[1], ROB: rq.point[2]}},
	}
	if rq.kind == kindModel {
		path = "/v1/model"
		body = service.ModelRequest{
			Workload: &wc, Insts: insts, Warmup: warmup(insts),
			Machine: service.MachineSpec{Width: rq.point[0], Depth: rq.point[1], ROB: rq.point[2]},
		}
	}
	id := b.tr.beginOp("service.request", parent, op)
	data, status, err := s.post(path, body)
	b.tr.end(id)
	var a answer
	switch {
	case err != nil:
		return a, err
	case status != http.StatusOK:
		return a, fmt.Errorf("%s: HTTP %d: %s", path, status, bytes.TrimSpace(data))
	case rq.kind == kindModel:
		return a, json.Unmarshal(data, &a.model)
	}
	var tr service.BatchTrailer
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := dec.Decode(&a.batch); err != nil {
		return a, fmt.Errorf("%s: %w", path, err)
	}
	if err := dec.Decode(&tr); err != nil {
		return a, fmt.Errorf("%s trailer: %w", path, err)
	}
	if !tr.Done || tr.Points != 1 || tr.OK != tr.Points {
		return a, fmt.Errorf("%s: %d of %d points ok: %s", path, tr.OK, tr.Points, a.batch.Error)
	}
	return a, nil
}

func (s *server) post(path string, body any) ([]byte, int, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return nil, 0, err
	}
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// scrape reads the service's own latency and cache counters.
func (s *server) scrape() (svcStats, error) {
	resp, err := s.client.Get(s.url + "/metrics")
	if err != nil {
		return svcStats{}, err
	}
	defer resp.Body.Close()
	var m service.MetricsResponse
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return svcStats{}, fmt.Errorf("/metrics: %w", err)
	}
	return svcStats{jobP50MS: m.Latency.P50MS, traceHitRatio: m.TraceCache.HitRate, overlayHitRatio: m.OverlayCache.HitRate}, nil
}

// crossCheck asks a fresh in-process service for the simulation and the
// model at one design point of p, and checks both answers against the
// library computing the same in-process.
func (b *bench) crossCheck(parent int32, p *program, pt [3]int, insts int) error {
	srv, err := startServer(1)
	if err != nil {
		return err
	}
	defer srv.close()
	for _, kind := range []string{kindSim, kindModel} {
		rq := request{kind: kind, wc: p.wc, point: pt}
		ans, err := srv.send(b, parent, -1, rq, insts)
		b.check(err == nil, "service %s request: %v", kind, err)
		if err == nil {
			if err := b.recompute(parent, p, rq, ans, insts); err != nil {
				return err
			}
		}
	}
	b.svc, err = srv.scrape()
	return err
}

// recompute computes rq over p in-process and checks the service's answer
// equals it exactly. Model answers are also checked against the simulator.
func (b *bench) recompute(parent int32, p *program, rq request, ans answer, insts int) error {
	cfg := point(rq.point)
	what := fmt.Sprintf("%s %s %s", rq.kind, p.wc.Name, cfg.Name)
	res, err := b.simulate(parent, p, cfg, simOptions(insts, p.ov))
	if err != nil {
		return err
	}
	b.sim.add(res)
	if rq.kind != kindModel {
		bds, err := b.decompose(parent, p, res)
		if err != nil {
			return err
		}
		b.checkDecomposition(what, bds)
		want := wantBatch(rq.point, res, bds)
		b.check(ans.batch == want, "%s: service answered %+v, in-process %+v", what, ans.batch, want)
		return nil
	}
	set, err := b.modelSet(parent, p, cfg, cfg.ROBSize, insts)
	if err != nil {
		return err
	}
	pred, err := b.predict(parent, set, cfg)
	if err != nil {
		return err
	}
	b.checkModel(what, pred, res)
	n := float64(pred.Insts)
	got := [5]float64{ans.model.CPI, ans.model.CPIBase, ans.model.CPIBpred, ans.model.CPIICache, ans.model.CPILongData}
	want := [5]float64{pred.CPI(), pred.Base / n, pred.Bpred / n, pred.ICache / n, pred.LongData / n}
	b.check(got == want, "%s: service model CPI stack %v, in-process %v", what, got, want)
	return nil
}

// wantBatch is the batch line the service should send for one simulated
// point with decomposition.
func wantBatch(pt [3]int, res *uarch.Result, bds []core.Breakdown) service.BatchPoint {
	m := core.Mean(bds)
	return service.BatchPoint{
		Width: pt[0], Depth: pt[1], ROB: pt[2],
		IPC: res.IPC(), AvgPenalty: m.Total, Cycles: res.Cycles,
		PenFrontend: m.Frontend, PenDrain: m.BaseILP, PenFU: m.FULatency, PenShortD: m.ShortDMiss, PenLongD: m.LongDMiss,
		Path: res.Path, Fallback: res.Fallback,
	}
}

// served is one request of a closed-loop drive.
type served struct {
	rq  request
	ans answer
	err error
	lat time.Duration // client-observed, from send to the answer's last byte
}

// serviceMixed is service-mixed: closed-loop clients, one per connection,
// send rounds of requests to an in-process service over loopback HTTP.
// Each round is 60% warm single-point simulations with decomposition, 30%
// model queries and 10% cold simulations, cycling through modelBenches and
// the grid. The seed orders the round and derives each cold request's
// program, new in every round.
type serviceMixed struct {
	srv    *server
	warm   []workload.Config // the suite programs of modelBenches
	order  []int             // the round's requests in the order they are sent
	first  []served          // the first round, in sequence order
	rounds [][]string        // every round's answers
}

func (m *serviceMixed) setup(b *bench, parent int32) error {
	m.warm = nil
	for _, name := range modelBenches {
		m.warm = append(m.warm, poolProgram(name, 0))
	}
	m.order = b.perm(b.size.roundReqs, 0x5e7c)
	b.inFlight = serviceConns
	var err error
	if m.srv, err = startServer(serviceConns); err != nil {
		return err
	}
	// Warm the service's caches with every warm program's trace and overlay.
	for i, d := range m.drive(b, parent, b.size.warmupReqs, func(i int) request {
		kind := kindSim
		if i%2 == 1 {
			kind = kindModel
		}
		return request{kind: kind, wc: m.warm[i/2%len(m.warm)], point: b.size.grid[i%len(b.size.grid)]}
	}) {
		if d.err != nil {
			return fmt.Errorf("warm-up request %d: %w", i, d.err)
		}
	}
	return nil
}

// request returns request i of round n.
func (m *serviceMixed) request(b *bench, n int) func(int) request {
	return func(i int) request {
		k := m.order[i]
		rq := request{kind: kindSim, wc: m.warm[k%len(m.warm)], point: b.size.grid[k%len(b.size.grid)]}
		switch {
		case k >= b.size.roundReqs*9/10:
			rq.kind = kindCold
			rq.wc.Seed = derive(rq.wc.Seed, b.seed, n*b.size.roundReqs+k)
		case k >= b.size.roundReqs*6/10:
			rq.kind = kindModel
		}
		return rq
	}
}

// drive sends requests 0 to n-1 from closed-loop clients: each client takes
// the next index, sends that request and waits for the answer. The result
// is in sequence order.
func (m *serviceMixed) drive(b *bench, parent int32, n int, req func(int) request) []served {
	out := make([]served, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serviceConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				d := served{rq: req(i)}
				start := time.Now()
				d.ans, d.err = m.srv.send(b, parent, int32(i), d.rq, b.size.reqInsts)
				d.lat = time.Since(start)
				out[i] = d
			}
		}()
	}
	wg.Wait()
	return out
}

func (m *serviceMixed) round(b *bench, parent int32, n int) error {
	done := m.drive(b, parent, b.size.roundReqs, m.request(b, n))
	rows := make([]string, len(done))
	for i, d := range done {
		b.op(d.lat, d.err)
		rows[i] = fmt.Sprintf("%d %s %s %s %s", i, d.rq.kind, d.rq.wc.Name, point(d.rq.point).Name, d.ans.row(d.rq.kind))
	}
	if n == 0 {
		m.first = done
	}
	m.rounds = append(m.rounds, rows)
	return nil
}

func (m *serviceMixed) verify(b *bench, parent int32) error {
	var err error
	if b.svc, err = m.srv.scrape(); err != nil {
		return err
	}
	b.rows = m.rounds[0]
	for n, rows := range m.rounds[1:] {
		same := true
		for i, d := range m.first {
			same = same && (d.rq.kind == kindCold || rows[i] == b.rows[i])
		}
		b.check(same, "round %d: a warm request's answer differs from the first round", n+1)
	}
	progs := make(map[workload.Config]*program)
	r := rng.New(b.seed)
	for c := 0; c < b.size.checkReqs; c++ {
		d := m.first[r.Intn(len(m.first))]
		if d.err != nil {
			continue // already counted as a failed request
		}
		p := progs[d.rq.wc]
		if p == nil {
			if p, err = b.build(parent, d.rq.wc, b.size.reqInsts); err != nil {
				return err
			}
			progs[d.rq.wc] = p
		}
		if err := b.recompute(parent, p, d.rq, d.ans, b.size.reqInsts); err != nil {
			return err
		}
	}
	return nil
}

func (m *serviceMixed) close() {
	if m.srv != nil {
		m.srv.close()
		m.srv = nil
	}
}
