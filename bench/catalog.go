package main

// metricDef declares one metric: the single list BENCHMARK.json, the printed
// report and -compare all follow. TestCatalogMatchesBenchmarkJSON keeps the
// JSON file in step with it.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Exact  bool    // per-layer count that must repeat exactly for a fixed seed
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them, each under the one definition given in README.md.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "eval_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "predict_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "factor_mb", Unit: "MiB", Better: "lower", Bound: 0.05},
	{Name: "predict_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, reported by the traced pass. A
// workload on which a layer does no work reports that layer's metrics as 0.
var perLayer = []metricDef{
	// End-to-end quantities that exist on some workloads only, or that cannot
	// repeat within a bound across seeds and runs on a shared machine:
	// reported, not gated.
	{Name: "predict_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "sustained_rps", Unit: "req/s", Better: "higher"},
	{Name: "fit_s", Unit: "s", Better: "lower"},
	{Name: "eval_ooc_p50_s", Unit: "s", Better: "lower"},
	{Name: "eval_dist_p50_s", Unit: "s", Better: "lower"},
	{Name: "ingest_s", Unit: "s", Better: "lower"},
	{Name: "loglik_rel_err", Unit: "ratio", Better: "lower"},
	{Name: "pred_mse", Unit: "z2", Better: "lower", Exact: true},
	{Name: "failed_frac", Unit: "ratio", Better: "lower", Exact: true},

	{Name: "geom.order_s", Unit: "s", Better: "lower"},
	{Name: "dataio.read_csv_s", Unit: "s", Better: "lower"},

	{Name: "cov.dcmg_bessel_s", Unit: "s", Better: "lower"},
	{Name: "cov.ns_per_entry_bessel", Unit: "ns", Better: "lower"},
	{Name: "cov.dcmg_exp_s", Unit: "s", Better: "lower"},
	{Name: "cov.ns_per_entry_exp", Unit: "ns", Better: "lower"},
	{Name: "cov.entries", Unit: "count", Better: "lower", Exact: true},

	{Name: "la.gemm_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "la.potrf_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "la.trsm_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "la.syrk_gflops", Unit: "GFLOP/s", Better: "higher"},
	{Name: "la.gemm.calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "la.potrf.calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "la.trsm.calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "la.syrk.calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "la.svd.calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "la.qr.calls", Unit: "count", Better: "lower", Exact: true},

	{Name: "runtime.tasks", Unit: "count", Better: "lower", Exact: true},
	{Name: "runtime.makespan_s", Unit: "s", Better: "lower"},
	{Name: "runtime.busy_s", Unit: "s", Better: "lower"},
	{Name: "runtime.crit_path_s", Unit: "s", Better: "lower"},
	{Name: "runtime.utilization", Unit: "ratio", Better: "higher"},
	{Name: "runtime.dispatch_us", Unit: "us", Better: "lower"},

	{Name: "tile.gencholesky_s", Unit: "s", Better: "lower"},
	{Name: "tile.gencholesky_w1_s", Unit: "s", Better: "lower"},
	{Name: "tile.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "tile.cholesky_s", Unit: "s", Better: "lower"},
	{Name: "tile.solve_s", Unit: "s", Better: "lower"},
	{Name: "tile.gflops", Unit: "GFLOP/s", Better: "higher"},

	{Name: "tlr.assemble_compress_s", Unit: "s", Better: "lower"},
	{Name: "tlr.compress_us_per_tile", Unit: "us", Better: "lower"},
	{Name: "tlr.cholesky_s", Unit: "s", Better: "lower"},
	{Name: "tlr.gencholesky_s", Unit: "s", Better: "lower"},
	{Name: "tlr.gencholesky_w1_s", Unit: "s", Better: "lower"},
	{Name: "tlr.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "tlr.solve_s", Unit: "s", Better: "lower"},
	{Name: "tlr.gemmll_us", Unit: "us", Better: "lower"},
	{Name: "tlr.compress.calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "tlr.recompress.calls", Unit: "count", Better: "lower", Exact: true},
	{Name: "tlr.mean_rank", Unit: "rank", Better: "lower", Exact: true},
	{Name: "tlr.max_rank", Unit: "rank", Better: "lower", Exact: true},
	{Name: "tlr.eval_s.tol1e-5", Unit: "s", Better: "lower"},
	{Name: "tlr.eval_s.tol1e-9", Unit: "s", Better: "lower"},
	{Name: "tlr.vs_tile_ratio", Unit: "ratio", Better: "lower"},

	{Name: "store.hit", Unit: "count", Better: "higher", Exact: true},
	{Name: "store.miss", Unit: "count", Better: "lower", Exact: true},
	{Name: "store.evict", Unit: "count", Better: "lower", Exact: true},
	{Name: "store.spill_mb", Unit: "MiB", Better: "lower", Exact: true},
	{Name: "store.high_water_mb", Unit: "MiB", Better: "lower"},
	{Name: "store.overhead_ratio", Unit: "ratio", Better: "lower"},

	{Name: "mpi.msgs", Unit: "count", Better: "lower", Exact: true},
	{Name: "mpi.bytes_mb", Unit: "MiB", Better: "lower", Exact: true},
	{Name: "mpi.rank_imbalance", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "mpi.pingpong_us", Unit: "us", Better: "lower"},
	{Name: "mpi.allreduce_us", Unit: "us", Better: "lower"},
	{Name: "mpi.overhead_ratio", Unit: "ratio", Better: "lower"},

	{Name: "optimize.evals", Unit: "count", Better: "lower", Exact: true},
	{Name: "optimize.converged", Unit: "bool", Better: "higher", Exact: true},
	{Name: "optimize.nm_overhead_us", Unit: "us", Better: "lower"},

	{Name: "core.first_eval_s", Unit: "s", Better: "lower"},
	{Name: "core.eval_mean_s", Unit: "s", Better: "lower"},
	{Name: "core.parts_over_whole", Unit: "ratio", Better: "lower"},
	{Name: "core.predict_cached_us", Unit: "us", Better: "lower"},
	{Name: "core.factor.runs", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.cache.hit", Unit: "count", Better: "higher", Exact: true},
	{Name: "core.cache.miss", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.alloc_mb_per_eval", Unit: "MiB", Better: "lower"},

	{Name: "serve.sent", Unit: "count", Better: "higher"},
	{Name: "serve.ok", Unit: "count", Better: "higher"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "serve.failed", Unit: "count", Better: "lower"},
	{Name: "serve.mean_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.mean_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.var_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.var_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.p99_ms.whole", Unit: "ms", Better: "lower"},
	{Name: "serve.closed_mean_rps", Unit: "req/s", Better: "higher"},
	{Name: "serve.p99_ms.r80", Unit: "ms", Better: "lower"},
	{Name: "serve.p99_ms.r240", Unit: "ms", Better: "lower"},
	{Name: "serve.backlog_end", Unit: "count", Better: "lower"},
	{Name: "serve.gen_lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.server_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.direct_mean_us", Unit: "us", Better: "lower"},
	{Name: "serve.direct_var_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.overhead_ms", Unit: "ms", Better: "lower"},

	{Name: "proc.peak_rss_mb", Unit: "MiB", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "ratio", Better: "lower"},
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	Name string
	Why  string
}

var workloads = []workloadDef{
	{"fit_dense", "Exact full-tile fit and predict at general smoothness: two thirds covariance and Bessel generation, one third tile Cholesky; tlr, store, mpi and serve do nothing here."},
	{"fit_tlr", "The same fit through TLR at 1e-7: compression and low-rank GEMM dominate; the paper's claim is this beating fit_dense, and today it is several times slower."},
	{"lik_scale", "One n=2400 closed-form-kernel path evaluated in core, out of core and over ranks: the same tlr kernels used three ways, factorization-bound; the only work for store and mpi."},
	{"serve_mixed", "Served predicts over HTTP, 90% small mean-only and 10% variance batches, with ingests running beside them: the client-observed latency behind the per-model serializing worker."},
}
