// Command perfbench is intervalsim's workload benchmark. A run executes one
// named workload in its own process, checks the workload's outputs, and
// prints every metric by name with its value and unit, then check.digest (a
// SHA-256 over the canonical output rows), then one JSON result line:
//
//	{"correct":true,"attempted":327,"failed":0,"metrics":{"ops_per_s":{"value":10.44,"unit":"1/s"},...}}
//
// # Running
//
// From the root of a checkout; run.sh builds the benchmark from that
// checkout's sources into .bench_build, then runs it:
//
//	bash perfbench/run.sh --workload sweep-mcf --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload sweep-mcf --seed 1 --seconds 20 --trace 1 --spans spans.json
//
// Inside perfbench, go run . takes the same flags. --trace 0 prints the
// end-to-end metrics. --trace 1 records a span around every layer call the
// benchmark makes and prints the per-layer metrics instead; --spans also
// writes the spans ({id, parent, name, start_ns, end_ns, op}) as JSON.
// --quick runs at test size. Exit codes: 0 when every check passed; 1 when a
// check failed (the result line still prints, with correct false) or the run
// broke; 2 on a usage error.
//
// # Workloads
//
// The benchmark calls the entry points users' tools call — workload, trace,
// overlay, uarch and core in-process, and the service over HTTP — and times
// each call from outside. The load fits a 2-core host: offline workloads run
// on one goroutine; service-mixed runs two closed-loop clients on two
// keep-alive connections against a two-worker service.
//
//   - sweep-mcf: cmd/sweep's default engine (overlay replay, mispredict and
//     load-level recording, a 20% warmup, then the penalty decomposition)
//     over the 27-point width {2,4,8} x depth {3,7,11} x ROB {64,128,256}
//     grid, on 200k-instruction programs from a pool of nine mcf programs,
//     three points each. mcf is memory-bound (CPI 3-5, 91% of simulated
//     cycles stalled), so idle cycles of the cycle loop set host time: this
//     is where skipping dead cycles would pay.
//   - sweep-gzip: the same on gzip programs (CPI about 0.6, 61% stalled).
//     Per-instruction work and the decomposition set host time. The control
//     for dead-cycle skipping, which should not move it.
//   - model-grid: cmd/sweep's model engine (core.NewModelSet, then For and
//     PredictCPI at each point) over the grid on the 500k-instruction suite
//     programs of gzip, mcf, crafty and twolf: 108 points, no cycle-level
//     simulation in the timed region. Isolates model-side changes;
//     simulator changes should not move it.
//   - service-mixed: rounds of 100 requests at 100k instructions: 60 warm
//     /v1/batch single-point simulations with decompose, 30 /v1/model
//     queries and 10 cold /v1/batch simulations of programs the service has
//     never seen (generation, Pack and the overlay pre-pass inside the
//     request), over the same four benchmarks and the grid. The only
//     workload through admission, the worker pool, JSON and the trace and
//     overlay caches.
//
// # Inputs and seeds
//
// Programs come from a fixed pool per benchmark: program 0 is the suite
// benchmark and the others share its statistics under other generator
// seeds. A program's CPI, and with it the host time to simulate it, moves by
// tens of percent from one generator seed to the next, so programs drawn
// from the run seed would make runs incomparable. --seed orders every
// round's operations, picks the outputs the checks recompute, and derives
// each cold request's program. The service receives only generated inputs,
// as inline workload configs.
//
// # Timing
//
// A run sets the workload up three times and reports the median, then
// repeats a fixed round of operations — a grid pass, or 100 requests — until
// --seconds have passed, then checks the outputs. Other tenants of the host
// slow it by up to 1.6x for seconds to minutes at a time (process CPU time
// grows with wall time, so this is not descheduling), so throughput and
// latency come from each operation's fastest repetition in the run. A
// slowdown that outlasts a whole run still moves that run's numbers.
//
// # End-to-end metrics (--trace 0)
//
//	metric       unit  better  bound  meaning
//	setup_s      s     lower   0.25   set-up: generation, Pack and overlay pre-pass; on service-mixed also server boot and 40 warm-up requests
//	ops_per_s    1/s   higher  0.24   operations (grid points or requests) per second, from each one's fastest latency and the operations in flight (1, or 2 on service-mixed)
//	op_p50_ms    ms    lower   0.24   median over the round's operations of each one's fastest latency; a request's runs from send to last byte
//	op_p95_ms    ms    lower   0.24   95th percentile of the same (27, 108 or 100 operations)
//	peak_rss_mb  MB    lower   0.2    peak resident set size
//
// A bound is the share of the parent's median by which a metric may worsen.
// setup_s is only compared by median, so it has the largest bound. Over ten
// runs with ten seeds the spread (interquartile range over median) of each
// timing metric was 0.02-0.075 while the host was quiet, 0.08-0.13 while it
// drifted, and up to 0.55 during its slow periods; one seed repeated six
// times spread 0.10 in a drifting period, so the spread is the host's, not
// the seeds'. peak_rss_mb spread at most 0.06.
//
// # Per-layer metrics (--trace 1), and what each should move
//
//	workload.gen_ms, trace.pack_ms, overlay.compute_ms  setup_s everywhere and op_p95_ms on service-mixed (its cold requests); not the offline rounds
//	uarch.run_ms, uarch.minst_per_s, uarch.ns_per_cycle, uarch.allocs_per_run  ops_per_s and op_p50_ms of both sweeps (simulation is 80% of an mcf point, 60% of a gzip point)
//	uarch.cycles_per_run, uarch.stall_share, uarch.rob_full_share, uarch.branch_resolve_share  simulated; where dead-cycle skipping pays: sweep-mcf, little of sweep-gzip, none of model-grid
//	bpred.mpki, cache.l1i_mpki, cache.l1d_miss_ratio, cache.l2_miss_ratio  simulated; no host metric, and identical under any speed-only change
//	core.decompose_ms  both sweeps (gzip most) and op_p50_ms on service-mixed
//	core.modelset_ms, core.model_for_ms, core.predict_ms  model-grid, and service-mixed through its model requests; not the sweeps
//	service.request_ms, service.job_p50_ms, service.trace_hit_ratio, service.overlay_hit_ratio  op_p50_ms, op_p95_ms and ops_per_s of service-mixed
//	model.cpi_err_max  the model's largest relative CPI error against the simulator at the compared points
//	bench.span_coverage, bench.trace_overhead  the trace: share of the timed region inside layer spans, and the estimated cost of recording spans
//
// Times are the median self time per call over every call of the run,
// set-up and checks included, so every layer has calls on every workload.
// Simulated statistics sum the runs the checks look at: the first round of
// a sweep, model-grid's reference runs, the recomputed service answers, and
// the cross-check.
//
// # Checks
//
// After the timed region, each counted in attempted and, on failure, failed:
//
//   - every round's outputs equal the first round's (warm requests only, on
//     service-mixed);
//   - on a sweep, one seed-chosen point runs again live, without the overlay,
//     and matches replay's cycles and stall buckets exactly;
//   - every decomposition sums Frontend, BaseILP, FULatency, ShortDMiss,
//     LongDMiss and Residual to Total within 1e-9, with at least one per
//     simulation;
//   - the model is within 0.5 of the simulated CPI at every compared point,
//     which on model-grid are w2-d3-r64, w4-d7-r128 and w8-d11-r256 of every
//     program;
//   - every service answer is HTTP 200 with a batch trailer reporting every
//     point ok; 20 seed-chosen answers of service-mixed, and on the offline
//     workloads a simulation and a model query of one seed-chosen point sent
//     to a fresh service, equal the library's in-process results exactly.
//
// # Baseline
//
// Medians of ten runs (seeds 31-40, --seconds 20) on a 2-vCPU Intel Xeon
// virtual machine, Go 1.24.0, GOMAXPROCS 2. A run takes 22-27 s of wall
// time; the first in a checkout also builds for about 20 s.
//
//	workload       setup_s  ops_per_s  op_p50_ms  op_p95_ms  peak_rss_mb
//	sweep-mcf      0.243    11.0       90.6       116.4      314
//	sweep-gzip     0.234    29.0       33.8       42.5       322
//	model-grid     0.287    37.2       0.654      185.6      378
//	service-mixed  0.951    55.9       35.5       63.4       364
package main
