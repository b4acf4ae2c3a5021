// Command perfbench is the repository's benchmark; BENCHMARK.json at the
// repository root names its workloads and metrics. It measures the
// simulator two ways: the host time and memory the simulator takes (wall
// clock), and the simulated time the modelled hardware takes (what the
// paper reports). A separate traced run splits both by layer.
//
// Run it from the repository root; run.sh builds it under .bench_build/:
//
//	bash perfbench/run.sh -workload all -seed 42            # every workload, end-to-end metrics
//	bash perfbench/run.sh -workload node-large -seed 7 -seconds 30
//	bash perfbench/run.sh -workload cluster-scale -trace 1  # per-layer metrics, trace in .bench_build/trace
//	bash perfbench/run.sh -workload all -write-expected     # re-record testdata/expected.json
//	(cd perfbench && go test ./...)                         # the benchmark's own tests
//
// The package is a module of its own (yhccl/perfbench, building the yhccl
// module next to it), so the repository's "go test ./..." does not run its
// tests; the last command above does. The yhccl facade finds the committed
// tuned plans under the directory of the nearest go.mod above the working
// directory, so the binary must run from the repository root, as run.sh
// runs it. Started elsewhere, plan.Load fails in every node pass and the
// run exits non-zero.
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}; the human-readable report goes to
// standard error. The exit code is non-zero when any operation failed.
//
// # Passes
//
// A run builds its inputs from -seed, runs one discarded warm-up pass per
// workload, then timed passes for about -seconds each (at least 3). With
// -workload all the passes go round-robin across the workloads, so drift
// on the host reaches each of them alike. Everything runs in one process
// with GOMAXPROCS 1: the simulator is single-threaded.
//
// A pass attempts operations: a steady-state collective, a program run, a
// supervised chaos case, a served job. An operation fails on an error; on
// a real-data validation failure; on an event/coroutine parity mismatch; on
// an UNDIAGNOSED outcome or a chaos or churn case the recovery gates reject;
// on an admitted job missing its deadline (a shed job is admission policy,
// not a failure); and when any output differs from the warm-up pass, or,
// at seed 42, from testdata/expected.json. That file records, per workload,
// every per-point simulated makespan and memmodel counter, cluster
// makespans and event counts, serve event-log digests and chaos and churn
// outcomes; only -write-expected changes it.
//
// # Workloads
//
// node-small: five paper collectives through yhccl.Exec on NodeA p=64 and
// NodeB p=48 at 8 KB, 64 KB and 256 KB, each by the default algorithm and
// by tuned dispatch, plus the all-reduce baselines dpml, ring, rg and, on
// NodeA only (on p=48 it falls back to ring), rabenseifner, each run
// steady-state (one warm-up run, one measured run).
// Allgather and reduce-scatter take the size as their total, so working
// sets match. Points up to 64 KB carry real data and validate every rank's
// output. This is the latency regime: the working set fits NodeA's LLC,
// sync count and the DPML/MA switch set the makespan, the committed plans
// are loaded and dispatched. The coroutine engine and memmodel do the
// work; cluster and serve do nothing.
//
// node-large: the same steady-state measurements at 64 MB: the five
// collectives on NodeA p=64, dpml and ring all-reduce, and NodeB p=48
// all-reduce. This is the bandwidth regime, far past the modelled LLC:
// DRAM, NT-store and cross-socket traffic set the makespan and residency
// eviction is hot.
//
// cluster-scale: compiled 64 MB all-reduce programs (RingSteps 128) on the
// event engine: the hierarchical composition and both leader compositions
// at 256x64 and 1024x64 ranks, and the leader tree at 4096x64 (262144
// ranks); each pass also checks event-vs-coroutine parity on the 16x64
// 2 MB crossover program. This is the make-scale path: cluster compile
// plus the event calendar. Memmodel, coll and the coroutine engine are
// bypassed, so a gain in one of them must show no change here.
//
// recover-serve: the cluster chaos cases (chaos.DefaultClusterCases(true))
// and 4 seeded crash->heal->rejoin cycles at 4096 ranks under
// resilient.SuperviseCluster; then the serving gates in virtual time: the
// default mix plus a chaos tenant at 100, 400 and 1600 jobs/s, a rate
// ladder from 400 to 2400 jobs/s, the 2400 jobs/s overload point with queue
// budget 16, and 8 capacity shrink/grow cycles at 1920 jobs/s. This uses
// the cluster and event layers unlike cluster-scale (many recompiles and
// armed runs, no huge healthy run) and exercises resilient, fault and
// serve. The arrival streams are the serving gates' (seed 42) whatever
// -seed says: near saturation the scheduler is chaotic, and another stream
// changes a pass's work by up to 2x.
//
// The seed moves every message size of 32 KB or more by less than 0.05%
// (node-*, cluster-scale, the supervised jobs of recover-serve), picks the
// fill values of validated runs and the churn crash plans: seeds differ,
// yet every point stays in the regime it was chosen for.
//
// # End-to-end metrics
//
// An untraced run reports, for each workload (bound = how much worse the
// median may get before a change counts as a regression):
//
//	wall_s       s   host seconds per pass, median over passes      +25%
//	setup_s      s   seconds per pass in set-up calls: NewMachine,  +25%
//	                 plan.Load, cluster.New and Compile, stream and
//	                 plan generation; median over passes
//	alloc_mb     MB  heap allocated per pass (TotalAlloc delta)     +5%
//	sim_time_us  us  geometric mean of the simulated time of the    +0.1%
//	                 library's own operations in a pass: the default
//	                 and tuned collectives (node-*), the hierarchical
//	                 composition (cluster-scale), the serve p99 at 100
//	                 and 400 jobs/s and each supervised case's virtual
//	                 time to its outcome (recover-serve)
//
// An untraced run of any one workload must report every end-to-end metric,
// and none may read 0, so only metrics that every workload defines are
// end-to-end. Metrics specific to one workload (speed-up against the best
// baseline, B/rank of a program run, the serving and recovery numbers) are
// per-layer metrics of the traced run, listed below; failures are the
// result's "failed" of "attempted" rather than a metric that reads 0. The
// simulated metric repeats exactly for a seed, so any change in it is a
// change to the modelled behaviour, never noise; across seeds it spreads by
// a few hundredths of a percent. The wall-clock bound is wide because the
// 2-vCPU shared host these bounds were set on has slow periods of a minute
// or more in which every pass runs about 30% slower (a fixed integer loop
// slows too); the quartile spread of wall_s over 10 seeded runs of 25 s
// measured 5% to 20% depending on how many runs such a period covered.
//
// # Traced run and per-layer metrics
//
// -trace 1 (or -trace DIR) runs each workload in turn: a warm-up pass,
// untraced passes for half of -seconds, then traced passes under the CPU
// profiler for the other half. The benchmark records a span around each
// call it makes into a layer's public function (yhccl.NewMachine,
// Machine.Run, plan.Load, cluster.New, Compile*, RunArmed, sim.RunProgram,
// chaos.RunCluster, serve.RunLoad and RunWithEvents, and the generators),
// with name, start, end and parent, and writes them to DIR/trace.json in
// Chrome trace-event format; the profile goes to DIR/<workload>.cpu.pprof.
// A layer's self time is its span time minus the time its child spans
// cover. CPU samples go to the innermost yhccl/internal/<pkg> frame; under
// sim, frames of the event calendar and program interpreter count as
// sim.event and the rest (Proc, Engine, coroutine switches) as
// sim.coroutine; samples with no yhccl frame count as runtime, and other
// yhccl packages, the facade and this benchmark as other. The shares sum
// to 100%. trace.overhead_frac is the traced passes' median wall time over
// the untraced passes' minus 1.
//
// The table below says which end-to-end metric each per-layer metric
// should move, and on which workload:
//
//	sim.coroutine.cpu_share                    wall_s      node-small, node-large
//	                                                       (no effect on cluster-scale)
//	sim.event.cpu_share, sim.run_program_s,    wall_s      cluster-scale, recover-serve
//	  sim.events, sim.events_per_s                         (no effect on node-*)
//	memmodel.cpu_share                         wall_s      node-large, then node-small
//	memmodel.dram_bytes, .cross_socket_bytes,  sim_time_us node-large
//	  .nt_store_bytes, .rfo_bytes, .dav_bytes,
//	  .copy_volume_bytes
//	memmodel.sync_count                        sim_time_us node-small
//	mpi.new_machine_s, plan.load_s             setup_s     node-*
//	mpi.run_s, mpi.runs, mpi.cpu_share,        wall_s      node-*
//	  coll.cpu_share, coll.exec_calls
//	plan.tuned_hit_frac, plan.cpu_share        sim_time_us, wall_s  node-small
//	coll.speedup_vs_best                       sim_time_us node-*
//	cluster.new_s, cluster.compile_s           setup_s     cluster-scale, recover-serve
//	cluster.run_armed_s, cluster.cpu_share     wall_s      recover-serve
//	cluster.allocs_per_rank,                   alloc_mb    cluster-scale
//	  cluster.bytes_per_rank_run
//	cluster.speedup_vs_best                    sim_time_us cluster-scale
//	resilient.supervise_s, resilient.attempts, sim_time_us, wall_s  recover-serve
//	  .recompiles, .retries, .rejoins,
//	  .recovered_frac, .recovery_virtual_ms,
//	  resilient.cpu_share, fault.fired, fault.cpu_share
//	serve.run_s, serve.cpu_share               wall_s      recover-serve
//	serve.admitted, .shed, .deadline_violations, sim_time_us  recover-serve
//	  .wait_p99_ms, .capacity_epochs, .p99_ms,
//	  .max_rate_jps, .goodput_jps
//	runtime.cpu_share, runtime.gc_cpu_share,   wall_s, alloc_mb  all
//	  runtime.gc_cycles, other.cpu_share
//	trace.overhead_frac                        (tracing cost)  all
//
// Serving metrics: serve.p99_ms is the virtual p99 job latency at 1600
// jobs/s; serve.max_rate_jps the highest ladder rate with p99 within 10 ms,
// nothing shed and the last completion within 1.1x the nominal arrival
// span (jobs / rate);
// serve.goodput_jps the admitted jobs meeting their deadline per virtual
// second at the overload point; serve.wait_p99_ms the p99 queueing wait
// under capacity churn. resilient.recovered_frac is (clean + recovered)
// over all chaos and churn cases, and resilient.recovery_virtual_ms the
// median virtual time to a case's final outcome.
//
// Reading the layer table: a change to one layer should move that layer's
// CPU share and self time on the workloads the table names, and the
// end-to-end metric beside it; on a workload that bypasses the layer
// (sim.event on node-*, memmodel and sim.coroutine on cluster-scale) its
// share stays near zero and nothing should move.
//
// # Out of scope
//
// The simulator's micro-benchmarks stay in cmd/simbench, their one home;
// this package does not repeat them. Left for later changes: sampling
// those micro-benchmarks k times with an IQR-aware -compare and merging
// their duplicates (epoch_check_overhead into cluster_fault_overhead,
// cluster_rejoin into cluster_recompile), running this benchmark from make
// ci, retiring BENCH_sim.json and the fig11a timing, and pprof.Do labels
// inside the program so that spans and samples come from the layers
// themselves.
package main
