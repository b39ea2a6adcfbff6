//! The traced run: per-crate metrics, measured from outside each crate.
//!
//! Observability is on (`ObsMode::Trace`).  The benchmark times its own
//! calls into each crate's public functions and records them as spans with
//! `fml_obs::record_span`; it reads `FitObserver`/`ScoreObserver` events,
//! `Trained.io`/`Scores.io`, and `fml_obs` registry deltas around each call.
//! The registry is process-global, so exactly one call runs at a time.  At
//! exit the spans are written as one Chrome trace, read back, and reduced
//! with the registry deltas to the per-layer table.

use crate::ops::{check_agreement, compare_bits, score_bits, Family, GmmFamily, NnFamily, Ops};
use crate::stats::{median, RoundClock, Samples};
use crate::workloads::{WorkloadDef, GMM_ITERS};
use fml_core::fml_data::Workload;
use fml_core::fml_gmm::MaterializedGmm;
use fml_core::fml_store::factorized_scan::{GroupScan, StarScan};
use fml_core::fml_store::join::materialize_join;
use fml_core::fml_store::StoreResult;
use fml_core::prelude::*;
use fml_core::{GmmIoCostModel, SavingRateModel};
use fml_obs::{counter_handle, histogram_handle, record_span, ObsMode, TraceEvent};
use fml_serve::{ScoreTrace, Scoring, SessionScoring};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Name of the scratch join table the materialization pass writes.
const MATERIALIZE_TABLE: &str = "__fitbench_T";

/// Span names the benchmark records for one family.
struct FamilySpans {
    /// Traced fit, in `Algorithm::all()` order.
    fit: [&'static str; 3],
    /// The F fit repeated with observability off.
    f_fit_untraced: &'static str,
    f_score: &'static str,
    m_score: &'static str,
}

fn spans(family: &str) -> FamilySpans {
    if family == "gmm" {
        FamilySpans {
            fit: ["bench.gmm_m_fit", "bench.gmm_s_fit", "bench.gmm_f_fit"],
            f_fit_untraced: "bench.gmm_f_fit_untraced",
            f_score: "bench.gmm_f_score",
            m_score: "bench.gmm_m_score",
        }
    } else {
        FamilySpans {
            fit: ["bench.nn_m_fit", "bench.nn_s_fit", "bench.nn_f_fit"],
            f_fit_untraced: "bench.nn_f_fit_untraced",
            f_score: "bench.nn_f_score",
            m_score: "bench.nn_m_score",
        }
    }
}

/// The crate each family's trainer lives in.
fn trainer_crate(family: &str) -> &'static str {
    if family == "gmm" {
        "fml-gmm"
    } else {
        "fml-nn"
    }
}

/// One per-layer metric of the output table.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Every per-layer metric name, in output order.
pub fn metric_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "fml-store.fact_scan_ms",
        "fml-store.join_scan_ms",
        "fml-store.join_scan_pages_read",
        "fml-store.materialize_ms",
        "fml-store.materialize_pages_written",
    ]
    .map(String::from)
    .to_vec();
    for fam in ["gmm", "nn"] {
        for st in ["m", "s", "f"] {
            names.push(format!("fml-store.{fam}_{st}_pages_read"));
            names.push(format!("fml-store.{fam}_{st}_fields_read"));
        }
        names.push(format!("fml-store.{fam}_m_pages_written"));
    }
    for fam in ["gmm", "nn"] {
        for st in ["m", "f"] {
            for k in KERNEL_METRICS {
                names.push(format!("fml-linalg.{fam}_{st}_{k}"));
            }
        }
    }
    for p in [
        "pool_dispatches",
        "pool_dispatch_us_p50",
        "pool_dispatch_us_p90",
        "pool_worker_tasks",
        "pool_inline_steals",
    ] {
        names.push(format!("fml-linalg.{p}"));
    }
    for fam in ["gmm", "nn"] {
        for st in ["m", "s", "f"] {
            for phase in ["prologue_ms", "first_iter_ms", "steady_iter_ms"] {
                names.push(format!("{}.{st}_{phase}", trainer_crate(fam)));
            }
        }
    }
    for fam in ["gmm", "nn"] {
        for m in [
            "f_score_ms",
            "m_score_ms",
            "f_batches",
            "f_pages_read",
            "f_fields_read",
        ] {
            names.push(format!("fml-serve.{fam}_{m}"));
        }
    }
    for m in [
        "io_model_m_pages",
        "io_model_s_pages",
        "saving_rate_speedup_pred",
        "gmm_speedup_f_vs_m",
    ] {
        names.push(format!("fml-core.{m}"));
    }
    for fam in ["gmm", "nn"] {
        names.push(format!("fml-obs.{fam}_f_overhead_ratio"));
    }
    names
}

/// The unit of a per-layer metric, from its name.
pub fn unit_of(name: &str) -> &'static str {
    let suffix = |s: &str| name.ends_with(s);
    if suffix("_ms") {
        "ms"
    } else if suffix("_us_p50") || suffix("_us_p90") {
        "us"
    } else if suffix("_pages_read") || suffix("_pages_written") || suffix("_pages") {
        "pages"
    } else if suffix("_fields_read") {
        "fields"
    } else if suffix("_gflop") {
        "GFLOP"
    } else if suffix("_ratio") || suffix("_pred") || suffix("_f_vs_m") {
        "x"
    } else {
        "count"
    }
}

/// Registry counters read around each M and F fit, by metric suffix.
const KERNEL_METRICS: [&str; 7] = [
    "gemm_calls",
    "gemv_calls",
    "ger_calls",
    "kernel_gflop",
    "onehot_calls",
    "csr_calls",
    "detect_calls",
];

/// Kernel counter values, in `KERNEL_METRICS` order.
struct KernelCounters([u64; 7]);

impl KernelCounters {
    fn read() -> Self {
        KernelCounters([
            counter_handle("fml_gemm_calls_total").get(),
            counter_handle("fml_gemv_calls_total").get(),
            counter_handle("fml_ger_calls_total").get(),
            counter_handle("fml_kernel_flops_total").get(),
            counter_handle("fml_sparse_onehot_kernel_calls_total").get(),
            counter_handle("fml_sparse_csr_kernel_calls_total").get(),
            counter_handle("fml_sparse_detect_calls_total").get(),
        ])
    }

    /// Records the deltas since `before` under `prefix`.
    fn push_since(&self, before: &KernelCounters, prefix: &str, samples: &mut Samples) {
        for (i, k) in KERNEL_METRICS.iter().enumerate() {
            let delta = self.0[i].saturating_sub(before.0[i]) as f64;
            let value = if *k == "kernel_gflop" {
                delta / 1e9
            } else {
                delta
            };
            samples.push(&format!("{prefix}_{k}"), value);
        }
    }
}

/// Pool counters and the dispatch-latency histogram (per-bucket counts
/// keyed by the bucket's upper bound in ns).
struct PoolCounters {
    worker_tasks: u64,
    inline_steals: u64,
    dispatch_ns: BTreeMap<u64, u64>,
}

impl PoolCounters {
    fn read() -> Self {
        let mut dispatch_ns = BTreeMap::new();
        let mut below = 0;
        for (upper, cumulative) in histogram_handle("fml_pool_dispatch_ns").cumulative_buckets() {
            dispatch_ns.insert(upper, cumulative - below);
            below = cumulative;
        }
        PoolCounters {
            worker_tasks: counter_handle("fml_pool_worker_tasks_total").get(),
            inline_steals: counter_handle("fml_pool_inline_steals_total").get(),
            dispatch_ns,
        }
    }

    /// Records the round's pool deltas since `before`.  A dispatch is a task
    /// handed to the pool queue: run by a worker or stolen back inline.
    fn push_since(&self, before: &PoolCounters, samples: &mut Samples) {
        let worker_tasks = self.worker_tasks - before.worker_tasks;
        let inline_steals = self.inline_steals - before.inline_steals;
        let delta: Vec<(u64, u64)> = self
            .dispatch_ns
            .iter()
            .map(|(&upper, &n)| {
                (
                    upper,
                    n - before.dispatch_ns.get(&upper).copied().unwrap_or(0),
                )
            })
            .collect();
        let quantile_us = |q: f64| {
            let total: u64 = delta.iter().map(|(_, n)| n).sum();
            let mut seen = 0;
            for &(upper, n) in &delta {
                seen += n;
                if total > 0 && seen as f64 >= q * total as f64 {
                    return upper as f64 / 1e3;
                }
            }
            0.0
        };
        samples.push(
            "fml-linalg.pool_dispatches",
            (worker_tasks + inline_steals) as f64,
        );
        samples.push("fml-linalg.pool_dispatch_us_p50", quantile_us(0.5));
        samples.push("fml-linalg.pool_dispatch_us_p90", quantile_us(0.9));
        samples.push("fml-linalg.pool_worker_tasks", worker_tasks as f64);
        samples.push("fml-linalg.pool_inline_steals", inline_steals as f64);
    }
}

/// Runs traced rounds for `seconds` (at least one), writes the Chrome trace
/// to `trace_path`, and reduces it to the per-layer table.
pub fn run(
    def: &WorkloadDef,
    w: &Workload,
    seconds: Duration,
    trace_path: &Path,
    ops: &mut Ops,
) -> Result<Vec<Metric>, String> {
    fml_obs::set_mode(ObsMode::Trace);
    fml_obs::clear_spans();
    let traced = def.exec.clone().obs(ObsMode::Trace);
    let untraced = def.exec.clone().obs(ObsMode::Off);
    let block_pages = traced.resolve().block_pages;
    let mut samples = Samples::default();
    let mut events: Vec<TraceEvent> = Vec::new();
    let mut clock = RoundClock::new(seconds);
    while clock.next_round() {
        store_passes(w, block_pages, &mut samples, ops);
        let pool_before = PoolCounters::read();
        family::<GmmFamily>(w, &traced, &untraced, &mut samples, ops);
        if clock.rounds() == 1 {
            cost_models(w, block_pages, &mut samples).map_err(|e| e.to_string())?;
        }
        family::<NnFamily>(w, &traced, &untraced, &mut samples, ops);
        PoolCounters::read().push_since(&pool_before, &mut samples);
        events.extend(fml_obs::parse_chrome_trace(&fml_obs::chrome_trace_json())?);
        fml_obs::clear_spans();
    }
    fml_obs::set_mode(ObsMode::Off);
    if fml_obs::dropped_spans() > 0 {
        return Err(format!(
            "{} spans were evicted from the trace rings",
            fml_obs::dropped_spans()
        ));
    }
    write_trace(trace_path, &events)?;
    let text = std::fs::read_to_string(trace_path).map_err(|e| e.to_string())?;
    let events = fml_obs::parse_chrome_trace(&text)?;
    Ok(reduce(&events, &samples, ops))
}

/// Passes through the storage crate with no model work: a page-by-page fact
/// scan, one join pass on the workload's access path, and a join
/// materialization (dropped afterwards).
fn store_passes(w: &Workload, block_pages: usize, samples: &mut Samples, ops: &mut Ops) {
    let n_fact = w.n_fact().unwrap_or(0);
    let stats = w.db.stats();

    let start = Instant::now();
    let scanned = ops.run("fact scan", || -> StoreResult<u64> {
        let fact = w.spec.fact_relation(&w.db)?;
        let pages = fact.lock().num_pages();
        let mut tuples = 0;
        for page in 0..pages {
            tuples += fact.lock().read_page_tuples(page)?.len() as u64;
        }
        Ok(tuples)
    });
    record_span("bench.fact_scan", start, Instant::now());
    if scanned.is_some_and(|n| n != n_fact) {
        ops.fail(
            "fact scan",
            &format!("read {scanned:?} tuples, expected {n_fact}"),
        );
    }

    let before = stats.snapshot();
    let start = Instant::now();
    let joined = ops.run("join scan", || join_pass(w, block_pages));
    record_span("bench.join_scan", start, Instant::now());
    let io = stats.snapshot().delta_since(&before);
    samples.push("fml-store.join_scan_pages_read", io.pages_read as f64);
    if joined.is_some_and(|n| n != n_fact) {
        ops.fail(
            "join scan",
            &format!("joined {joined:?} facts, expected {n_fact}"),
        );
    }

    let before = stats.snapshot();
    let start = Instant::now();
    let written = ops.run("materialize", || {
        let t = materialize_join(&w.db, &w.spec, MATERIALIZE_TABLE, block_pages)?;
        let rows = t.lock().num_tuples();
        w.db.drop_relation(MATERIALIZE_TABLE)?;
        Ok(rows)
    });
    record_span("bench.materialize", start, Instant::now());
    let io = stats.snapshot().delta_since(&before);
    samples.push(
        "fml-store.materialize_pages_written",
        io.pages_written as f64,
    );
    if written.is_some_and(|n| n != n_fact) {
        ops.fail(
            "materialize",
            &format!("wrote {written:?} rows, expected {n_fact}"),
        );
    }
}

/// One pass over the join on the access path the trainers use: `GroupScan`
/// for a binary join, `StarScan` for a star.  Returns the facts joined.
fn join_pass(w: &Workload, block_pages: usize) -> StoreResult<u64> {
    let mut facts = 0;
    if w.spec.num_dimensions() == 1 {
        for groups in GroupScan::from_spec(&w.db, &w.spec, block_pages)? {
            facts += groups?.iter().map(|g| g.len() as u64).sum::<u64>();
        }
    } else {
        let scan = StarScan::new(&w.db, &w.spec, block_pages)?;
        for block in scan.blocks() {
            for fact in block? {
                scan.cache().resolve(&fact)?;
                facts += 1;
            }
        }
    }
    Ok(facts)
}

/// Traced M, S and F fits of one family, an untraced F fit for the overhead
/// ratio, and factorized scoring checked against the materialized oracle.
fn family<F: Family>(
    w: &Workload,
    traced: &ExecPolicy,
    untraced: &ExecPolicy,
    samples: &mut Samples,
    ops: &mut Ops,
) {
    let fam = F::NAME;
    let names = spans(fam);
    let mut fits: [Option<Trained<F::Fit>>; 3] = [None, None, None];
    for (i, alg) in Algorithm::all().into_iter().enumerate() {
        let st = alg.label().to_ascii_lowercase();
        let observer = TraceObserver::new();
        let session = Session::new(&w.db)
            .join(&w.spec)
            .exec(traced.clone().observe(observer.clone()));
        let kernels = KernelCounters::read();
        let start = Instant::now();
        let fit = ops.run(&format!("{fam}-{} fit", alg.label()), || {
            F::fit(&session, alg)
        });
        record_span(names.fit[i], start, Instant::now());
        let Some(t) = &fit else { continue };
        if alg != Algorithm::Streaming {
            KernelCounters::read().push_since(&kernels, &format!("fml-linalg.{fam}_{st}"), samples);
        }
        samples.push(
            &format!("fml-store.{fam}_{st}_pages_read"),
            t.io.pages_read as f64,
        );
        samples.push(
            &format!("fml-store.{fam}_{st}_fields_read"),
            t.io.fields_read as f64,
        );
        if alg == Algorithm::Materialized {
            samples.push(
                &format!("fml-store.{fam}_m_pages_written"),
                t.io.pages_written as f64,
            );
        }
        trainer_phases(
            &observer.events(),
            t.elapsed,
            &format!("{}.{st}", trainer_crate(fam)),
            samples,
        );
        fits[i] = fit;
    }
    check_agreement::<F>(ops, &fits);

    {
        let _off = fml_obs::apply_mode(ObsMode::Off);
        let session = Session::new(&w.db).join(&w.spec).exec(untraced.clone());
        let start = Instant::now();
        let fit = ops.run(&format!("{fam}-F fit (untraced)"), || {
            F::fit(&session, Algorithm::Factorized)
        });
        let end = Instant::now();
        drop(_off);
        if fit.is_some() {
            record_span(names.f_fit_untraced, start, end);
        }
    }

    let Some(model) = &fits[2] else { return };
    let session = Session::new(&w.db).join(&w.spec).exec(traced.clone());
    let batches = ScoreTrace::new();
    let opts = Scoring::new().observe(batches.clone());
    let start = Instant::now();
    let factorized = ops.run(&format!("{fam}-F score"), || {
        session.score_with(model, &opts)
    });
    record_span(names.f_score, start, Instant::now());
    let Some(factorized) = factorized else { return };
    samples.push(
        &format!("fml-serve.{fam}_f_batches"),
        batches.events().len() as f64,
    );
    samples.push(
        &format!("fml-serve.{fam}_f_pages_read"),
        factorized.io.pages_read as f64,
    );
    samples.push(
        &format!("fml-serve.{fam}_f_fields_read"),
        factorized.io.fields_read as f64,
    );

    let opts = Scoring::new().algorithm(Algorithm::Materialized);
    let start = Instant::now();
    let oracle = ops.run(&format!("{fam}-M score (oracle)"), || {
        session.score_with(model, &opts)
    });
    record_span(names.m_score, start, Instant::now());
    if let Some(oracle) = oracle {
        compare_bits::<F>(ops, &score_bits::<F>(oracle), &score_bits::<F>(factorized));
    }
}

/// Splits a fit into its prologue (init scans, plus M's materialization),
/// first iteration, and median steady iteration, from the observer events.
fn trainer_phases(events: &[FitEvent], wall: Duration, prefix: &str, samples: &mut Samples) {
    let (Some(first), Some(last)) = (events.first(), events.last()) else {
        return;
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    samples.push(
        &format!("{prefix}_prologue_ms"),
        ms(wall.saturating_sub(last.elapsed)),
    );
    samples.push(&format!("{prefix}_first_iter_ms"), ms(first.elapsed));
    let steady: Vec<f64> = events
        .windows(2)
        .map(|p| ms(p[1].elapsed.saturating_sub(p[0].elapsed)))
        .collect();
    samples.push(
        &format!("{prefix}_steady_iter_ms"),
        median(&steady).unwrap_or(0.0),
    );
}

/// The paper's Section V analytic models, computed after the first M-GMM
/// fit has left its join table `T` behind.  A star join's dimension tables
/// are cached in memory by `StarScan`, so the I/O model treats them as one
/// `R` read in a single block; the saving-rate model takes `n_R` of the
/// first dimension and the summed dimension widths as `d_R`.
fn cost_models(w: &Workload, block_pages: usize, samples: &mut Samples) -> StoreResult<()> {
    let pages =
        |name: &str| -> StoreResult<u64> { Ok(w.db.relation(name)?.lock().num_pages() as u64) };
    let s_pages = pages(&w.spec.fact)?;
    let mut r_pages = 0;
    for dim in &w.spec.dimensions {
        r_pages += pages(dim)?;
    }
    let t_pages = pages(&MaterializedGmm::temp_table_name(&w.spec))?;
    let block_pages = if w.spec.num_dimensions() == 1 {
        block_pages as u64
    } else {
        r_pages.max(1)
    };
    let io = GmmIoCostModel {
        s_pages,
        r_pages,
        t_pages,
        block_pages,
        iterations: GMM_ITERS as u64,
    };
    samples.push("fml-core.io_model_m_pages", io.materialized_io() as f64);
    samples.push("fml-core.io_model_s_pages", io.streaming_io() as f64);
    let widths = w.feature_partition()?;
    let saving = SavingRateModel::unit_costs(
        w.n_fact()?,
        w.n_dim(0)?,
        widths[0],
        widths[1..].iter().sum(),
    );
    samples.push(
        "fml-core.saving_rate_speedup_pred",
        saving.predicted_speedup(),
    );
    Ok(())
}

/// Writes the spans as one Chrome `trace_event` document.
fn write_trace(path: &Path, events: &[TraceEvent]) -> Result<(), String> {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}}}",
            e.name, e.ts, e.dur, e.tid
        );
    }
    out.push_str("],\"displayTimeUnit\":\"ns\"}");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("{}: {e}", path.display()))
}

/// Reduces the trace and the per-round samples to the per-layer table:
/// span durations become medians in ms, counters become per-round medians.
fn reduce(events: &[TraceEvent], samples: &Samples, ops: &mut Ops) -> Vec<Metric> {
    let span_ms = |name: &str| {
        let durs: Vec<f64> = events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.dur / 1e3)
            .collect();
        median(&durs)
    };
    let ratio = |a: Option<f64>, b: Option<f64>| Some(a? / b?);
    let mut from_spans: BTreeMap<String, Option<f64>> = BTreeMap::new();
    from_spans.insert("fml-store.fact_scan_ms".into(), span_ms("bench.fact_scan"));
    from_spans.insert("fml-store.join_scan_ms".into(), span_ms("bench.join_scan"));
    from_spans.insert(
        "fml-store.materialize_ms".into(),
        span_ms("bench.materialize"),
    );
    for fam in ["gmm", "nn"] {
        let names = spans(fam);
        from_spans.insert(
            format!("fml-serve.{fam}_f_score_ms"),
            span_ms(names.f_score),
        );
        from_spans.insert(
            format!("fml-serve.{fam}_m_score_ms"),
            span_ms(names.m_score),
        );
        from_spans.insert(
            format!("fml-obs.{fam}_f_overhead_ratio"),
            ratio(span_ms(names.fit[2]), span_ms(names.f_fit_untraced)),
        );
    }
    let gmm = spans("gmm");
    from_spans.insert(
        "fml-core.gmm_speedup_f_vs_m".into(),
        ratio(span_ms(gmm.fit[0]), span_ms(gmm.fit[2])),
    );

    let mut table = Vec::new();
    for name in metric_names() {
        let value = match from_spans.get(&name) {
            Some(v) => *v,
            None => samples.median(&name),
        };
        match value {
            Some(value) if value.is_finite() => table.push(Metric {
                unit: unit_of(&name),
                name,
                value,
            }),
            _ => ops.fail("per-layer table", &format!("no value for {name}")),
        }
    }
    table
}
