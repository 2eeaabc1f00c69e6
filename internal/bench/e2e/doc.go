// Package e2e is the repository's end-to-end benchmark, driven by
// cmd/lsperf. It runs the real lsserved and lsrouter binaries as child
// processes, drives them from one load-generator process, checks that the
// outputs are correct, and reports every metric by name and unit. The
// workloads and metrics, with the end-to-end metrics' regression bounds,
// are listed in the repository's BENCHMARK.json; a test keeps that file
// and this package in step.
//
// # Workloads
//
// Every workload uses the paper's defaults (Jaccard τ=0.9, seq 16, K 3)
// and lsserved's default worker count (GOMAXPROCS per dataset), with a
// durable job store. The competitions come from internal/corpusgen at row
// scale 0.02. The run's seed drives the data values, the served job
// order, the arrival times and the corpus churn; the corpora and the job
// scripts (corpusgen.GenerateScaled, one script per job) come from fixed
// seeds, because the work a job does depends far more on its corpus and
// script than on the data, and a bound has to absorb what varies between
// seeds.
// The servers see only the generated CSV files, .ls corpora and HTTP
// requests. Job counts scale with the run length (-seconds).
//
//   - batch: closed loop in process. Each competition's jobs run through
//     one System.StandardizeBatch call (BatchWorkers = GOMAXPROCS) in a
//     fixed order, since where the few second-long Sales jobs fall sets
//     how long a worker idles at the batch's end; the Systems are built
//     from CSV and .ls files as lsstd builds them. It is the
//     search, interpreter and frame throughput with no HTTP, log, queue,
//     hash or router on the path, so a change to any of those must
//     predict "no change" here. Sales takes most of the time.
//   - serve-small: open loop, 15 jobs/s with Poisson arrival times, one
//     lsserved hosting Titanic, House, NLP, Spaceship and Medical, jobs
//     round-robin over them. Clients poll each outstanding job every
//     50 ms. Searches are short (minimal and impute-and-split scripts), so
//     HTTP, write-ahead log, queue and compaction time is the largest
//     share of latency and the output hash the smallest.
//   - serve-sales: closed loop of two clients (submit, wait, next) against
//     one lsserved hosting Sales, whose 15k-row table makes re-executing
//     the script for the output hash a large share of each job (the
//     service tax ROADMAP item 2 targets); serve-small and batch should
//     not move when that is fixed.
//   - cluster-reload: the serve-small open loop through lsrouter fronting
//     two lsserved replicas. The replica names are chosen so the ring
//     splits the five datasets 3/2, and the harness asserts the split.
//     Both replicas warm-boot from one registry directory the harness
//     curates first, each corpus the paper corpus plus 2,000 generated
//     scripts. Every 2 s the harness applies a 1% churn to the next
//     dataset's registry (Apply and Publish) and POSTs
//     /v1/corpus/{dataset}/reload to both replicas, so corpus writes run
//     beside job reads and each reload empties that dataset's session
//     cache. Submits that race a swap get a retryable 503 and are retried
//     under serve.RetryPolicy; the retry counts toward latency, not
//     errors. lsrouter runs with -rise 1 -probe-interval 100ms, so set-up
//     time measures work rather than probe hysteresis.
//
// Each workload sets itself up several times — 20 times for batch, 16 for
// the single lsserved, 5 for the cluster, the cheaper the more often since
// short set-ups are noisy — each time after collecting lsperf's own
// garbage and returning it to the operating system, and reports the
// median. batch and the single lsserved set up half their times before
// the measured window, the last of those serving it, and half after it,
// so that one slow stretch of the host does not set the median; the
// cluster's last set-up serves the window. Before the measured
// window the served workloads run six warm-up jobs per dataset (scripts
// disjoint from the measured ones), so the window sees a server past its
// first heap growth and with warm session caches. Job counts are sized so
// that the measured window lasts about -seconds on two processors.
//
// # End-to-end metrics
//
// Every workload reports all of them from an untraced run:
//
//	metric              unit   what
//	setup_s             s      median time until the first job can be served: CSV load and curation
//	                           (batch; lsserved from process start to /readyz 200), or registry
//	                           creation and router ready (cluster-reload)
//	jobs_per_s          1/s    finished jobs over the window (first job's start to last finish);
//	                           for the open loops this stays at the offered rate unless a backlog grows
//	slo_ok_ratio        ratio  share of attempted jobs finished within 250 ms, a limit that lies in
//	                           every workload's latency tail
//	peak_rss_mb         MB     VmHWM of lsperf itself (batch) or the sum over the server processes
//	re_improvement_pct  %      mean RE improvement, the paper's quality metric
//
// Open-loop latency runs from a job's due time to the server-stamped
// finished_at; closed-loop latency from the submit to finished_at; batch
// latency is the job's own standardization time. A percentile with fewer
// than ten samples beyond it is refused, so p99 would need 1,000 jobs;
// every workload runs at least 100, enough for p90. The latency
// percentiles themselves are per-layer metrics: on a two-processor
// virtual machine their spread over ten runs reached 28–33% on the open
// loops (the machine's own speed, measured with a fixed allocation-heavy
// loop, varies by about 10% between 10-second windows), wider than any
// regression bound, while slo_ok_ratio stays within 5%. An untraced run
// still writes them to its -json file, and prints them after the
// end-to-end metrics. Failures are counted against the jobs attempted in
// the result line's failed and attempted; a traced run also prints
// error_ratio. setup_s is the metric that shows work moved into set-up,
// so it stays end to end although its spread between runs can exceed its
// bound; a regression in it is read from the median of several runs.
//
// # Per-layer metrics
//
// A traced run (-trace 1) reports the job latency and the layers every
// workload passes through, measured from outside: result.timings and the
// /metrics deltas of the servers (or Options.Metrics for batch), lsperf's
// own timed reads, a post-pass over the run's outputs, and /proc. The
// third column names what each should move. A layer reaches the
// open-loop workloads' end-to-end numbers through job latency: faster
// jobs raise slo_ok_ratio, and on the closed loops jobs_per_s.
//
//	latency_p50_ms, latency_p90_ms      generator and result    slo_ok_ratio @ serve-small, cluster-reload;
//	                                                            jobs_per_s @ serve-sales
//	core.search_ms_p50, _p90            result timings          latency on every workload; jobs_per_s @ batch
//	core.get_steps_ms_mean              result timings          latency @ cluster-reload (large vocabularies)
//	core.top_k_beams_ms_mean,
//	core.check_executes_ms_mean,
//	core.verify_constraints_ms_mean     result timings          jobs_per_s @ batch
//	core.curate_ms                      result timings          setup_s @ batch, serve-small, serve-sales
//	core.exec_checks_per_job,
//	core.verifications_per_job,
//	core.admit_ratio                    search counters         jobs_per_s @ batch
//	interp.stmts_executed_per_job,
//	interp.stmts_skipped_per_job,
//	interp.cache_hit_ratio              search counters         jobs_per_s @ batch; latency @ cluster-reload (a
//	                                                            reload drops the session cache); peak_rss_mb
//	frame.csv_read_ms                   timed ReadCSVFile       setup_s @ batch
//	hash.ms_p50, hash.exec_ms_p50,
//	hash.csv_ms_p50, hash.bytes_per_job post-pass OutputHash    jobs_per_s @ serve-sales; ~0 @ serve-small;
//	                                                            nothing @ batch, which never hashes
//	proc.cpu_ms_per_job                 /proc or getrusage      jobs_per_s, latency
//
// The hash metrics split the serve finalizer, System.OutputHash, into the
// interpreter run over the full sources (exec) and the CSV serialization
// plus SHA-256 (csv), timed on every fourth finished job with an
// identically built System; the split digest must equal OutputHash's.
// Counters repeat exactly between runs of one seed: they are the tight
// per-layer signal, where times carry the machine's noise.
//
// Layers that not every workload has are reported after those, in the
// traced run only (Details):
//
//	serve.submit_ms_p50, serve.poll_ms_p50,
//	serve.polls_per_job                  generator round trips   latency @ serve-small
//	serve.nonsearch_ms_p50, _p90         finished_at − submitted_at − timings.total_ms
//	                                                            jobs_per_s @ serve-sales (hash); latency_p90_ms @
//	                                                            serve-small (queue)
//	store.append_ms_p50, _p90,
//	store.compact_ms, store.snapshot_bytes,
//	store.wal_bytes_per_job              the run's records replayed through store.Append* and one Compact
//	                                     on a scratch directory  latency_p90_ms @ serve-small, cluster-reload
//	store.compactions                    /healthz store section
//	queue.depth_mean, queue.utilization  /healthz sampled at 10 Hz
//	queue.wait_ms_mean                   Little's law: depth / throughput
//	queue.rejected                       /healthz                latency_p90_ms, slo_ok_ratio @ serve-small; failed
//	loadgen.late_p50_ms, _p90, retries   generator clock         validity; failed, slo_ok_ratio @ cluster-reload
//	router.submit_self_ms_p50,
//	router.poll_self_ms_p50              routed call minus the proxied replica call
//	proc.router_cpu_ms_per_job           /proc                   latency @ cluster-reload
//	registry.create_ms, registry.open_ms,
//	registry.apply_ms_mean, .reload_rpc_ms_mean,
//	registry.reload_ms_mean, registry.reloads
//	                                     timed registry calls and reload POSTs (reload_ms runs from the start of
//	                                     Apply to the last replica's answer)   setup_s, latency_p90_ms @ cluster-reload
//	runtime.alloc_mb_per_job, .mallocs_per_job,
//	runtime.gc_cycles, runtime.gc_pause_ms   runtime.ReadMemStats (batch)   jobs_per_s, peak_rss_mb @ batch
//	error_ratio                          failed / attempted      every workload
//
// How they interact: the output hash sits on each served job's blocking
// path after the search, so on serve-sales it adds to latency one for one
// and takes throughput with it. Queue wait and compaction stalls grow with
// utilization and show in p90 before p50; compaction holds the server
// mutex, so submits queue behind it. A reload empties a dataset's session
// cache, so the jobs after it pay in core.search_ms and
// interp.cache_hit_ratio.
//
// # Tracing
//
// A traced run records spans from lsperf's own code around each call it
// makes into a layer — the generator's submits and polls (serve.* or
// router.*), each job from its origin to its observed finish (loadgen),
// the batch calls (core.batch), registry applies and reload calls — and,
// for cluster-reload, a timing reverse proxy that lsperf puts in front of
// each replica records the router's calls into it (replica.*). Spans have
// a name, start, end and parent, are kept in memory, and with -spans are
// written as JSON lines together with a per-job timeline taken from
// JobStatus. Self time is a span's duration minus the part its children
// cover; lsperf prints the per-layer table of self time per job on
// standard error. The cluster's proxies exist only in traced runs, so
// they never touch the end-to-end numbers. What tracing costs is the
// difference between an untraced and a traced run: lsperf -compare of
// untraced runs against traced runs of the same workloads prints
// trace.overhead_pct, the traced median latency_p50_ms against the
// untraced one, which counts the span recording, the proxies' extra hop
// and their share of lsperf's processors alike. Tracing inside the
// program is ROADMAP item 5.
//
// # Running
//
//	bash cmd/lsperf/run.sh -workload all -seed 1 -json out.json          # untraced, every workload
//	bash cmd/lsperf/run.sh -workload serve-sales -trace 1 -spans s.jsonl  # traced, per-layer metrics
//	bash cmd/lsperf/run.sh -compare a1.json a2.json vs b1.json b2.json    # two sets of runs
//
// -seconds must be at least 7 (MinSeconds), so that every workload runs
// the 100 jobs p90 needs. -workload all runs each workload in a fresh
// lsperf process, so peak memory and the heap are per workload. The last
// line of standard output is a JSON object with correct, attempted,
// failed and the metrics.
// -compare prints, per workload and metric, each side's median and
// quartiles, the share of position-paired runs B wins, and a verdict:
// better (B wins at least nine pairs in ten and its median beats A's by
// more than A's quartile spread), unresolved (A's spread as a share of its
// median exceeds the bound, unless every B run beats every A run), worse
// (B's median is worse by more than the bound), or same. -compare refuses
// a result file holding an invalid run.
//
// The harness and lsperf are Go modules of their own (the go.mod here and
// in cmd/lsperf, each with a replace onto the repository root), so the
// benchmark builds from its own directories and leaves the repository's
// build untouched. The repository's go test ./... therefore skips them;
// test them with go test ./... in each of the two directories.
//
// # Validity and correctness
//
// A run is invalid, and lsperf exits 1 after printing its result, when
// the open-loop generator ran more than 5 ms late at p50, a job failed
// (throughput and latency count finished jobs only, so a run that loses
// jobs could read faster than a sound one), or the correctness check
// failed. The check recomputes every 10th job after the
// window through the library, with a System built exactly as lsserved
// builds it (for cluster-reload, opened from the registry at the job's
// reported corpus_version): the script text and the OutputHash must equal
// the served result.script and result.output_hash. The output_digest
// lsperf prints hashes every finished job's output hash, for humans
// comparing runs.
//
// The legacy experiments (lsbench -exp regress and the other -exp
// tables) and the committed BENCH_*.json files are unchanged and still
// checked by benchgate; ROADMAP item 1 folds them into one record later.
package e2e
