//! Batch-scoring throughput: the factorized scorer vs the streaming and
//! materialized-join strategies, for both model families, on the emulated
//! sparse workload (WalmartSparse — the one-hot layout where factorized
//! reuse and the sparse gathers both engage).
//!
//! The run emits **`BENCH_serve.json`** at the workspace root with per-row
//! `speedup_vs_materialized`, plus a `parallel_scaling` sweep: factorized
//! scoring under the parallel kernel policy at 1/2/4 workers with
//! `speedup_vs_1worker` rows/s ratios, plus an `obs_overhead` pair timing
//! factorized GMM scoring with the `fml-obs` registry off vs recording
//! (`ratio_vs_off`).  CI's serve guards assert factorized scoring beats
//! materialized scoring for both families, that the 4-worker fan-out
//! reaches ≥ 1.8× the single-worker throughput, and that metrics-on
//! scoring stays within 3% of metrics-off (in-run relative ratios —
//! robust to absolute host speed).  Set
//! `FML_BENCH_SMOKE=1` for a single-shot smoke run that still exercises
//! every family × strategy × worker-count case and emits the JSON.
//!
//! Timing uses the shared min-of-windows estimator
//! ([`fml_bench::timing::measure_ms`]) — the same noise model as the kernel
//! benches, replacing this harness's old ad-hoc mean-of-3 loop.

use fml_bench::timing::{measure_ms, smoke};
use fml_core::prelude::*;
use fml_core::Session;
use fml_data::EmulatedDataset;
use fml_obs::ObsMode;
use fml_serve::prelude::*;
use std::fmt::Write as _;
use std::path::PathBuf;

struct BenchRow {
    family: &'static str,
    strategy: String,
    rows: usize,
    mean_ms: f64,
    rows_per_s: f64,
}

/// One point of the worker sweep: factorized scoring under the parallel
/// kernel policy at an explicit worker count.
struct ScalingRow {
    family: &'static str,
    workers: usize,
    rows: usize,
    mean_ms: f64,
    rows_per_s: f64,
}

/// One point of the observability-overhead pair: factorized GMM scoring with
/// the `fml-obs` registry off vs recording.
struct ObsRow {
    mode: &'static str,
    rows: usize,
    mean_ms: f64,
    rows_per_s: f64,
}

fn ratio_vs_off(rows: &[ObsRow], r: &ObsRow) -> Option<f64> {
    if r.mode == "off" {
        return None;
    }
    rows.iter()
        .find(|o| o.mode == "off")
        .map(|o| r.mean_ms / o.mean_ms)
}

fn speedup_vs_1worker(rows: &[ScalingRow], r: &ScalingRow) -> Option<f64> {
    if r.workers == 1 {
        return None;
    }
    rows.iter()
        .find(|o| o.family == r.family && o.workers == 1)
        .map(|o| r.rows_per_s / o.rows_per_s)
}

fn speedup_vs_materialized(rows: &[BenchRow], r: &BenchRow) -> Option<f64> {
    if r.strategy == "materialized" {
        return None;
    }
    rows.iter()
        .find(|o| o.family == r.family && o.strategy == "materialized")
        .map(|o| o.mean_ms / r.mean_ms)
}

fn emit_json(
    workload: &str,
    n_rows: u64,
    rows: &[BenchRow],
    scaling: &[ScalingRow],
    obs: &[ObsRow],
) -> std::io::Result<PathBuf> {
    // Emit at the workspace root regardless of the bench's working
    // directory (same idiom as the other BENCH_*.json emitters).
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| PathBuf::from("."));
    let path = root.join("BENCH_serve.json");
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"serve_scoring\",\n");
    let _ = writeln!(out, "  \"workload\": \"{workload}\",");
    let _ = writeln!(out, "  \"n_rows\": {n_rows},");
    out.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let sep = if i + 1 == rows.len() { "" } else { "," };
        let speedup = speedup_vs_materialized(rows, r)
            .map(|s| format!("{s:.3}"))
            .unwrap_or_else(|| "null".into());
        let _ = writeln!(
            out,
            "    {{\"family\": \"{}\", \"strategy\": \"{}\", \"rows\": {}, \"mean_ms\": {:.3}, \"rows_per_s\": {:.1}, \"speedup_vs_materialized\": {}}}{}",
            r.family, r.strategy, r.rows, r.mean_ms, r.rows_per_s, speedup, sep
        );
    }
    out.push_str("  ],\n  \"parallel_scaling\": [\n");
    for (i, r) in scaling.iter().enumerate() {
        let sep = if i + 1 == scaling.len() { "" } else { "," };
        let speedup = speedup_vs_1worker(scaling, r)
            .map(|s| format!("{s:.3}"))
            .unwrap_or_else(|| "null".into());
        let _ = writeln!(
            out,
            "    {{\"family\": \"{}\", \"workers\": {}, \"rows\": {}, \"mean_ms\": {:.3}, \"rows_per_s\": {:.1}, \"speedup_vs_1worker\": {}}}{}",
            r.family, r.workers, r.rows, r.mean_ms, r.rows_per_s, speedup, sep
        );
    }
    out.push_str("  ],\n  \"obs_overhead\": [\n");
    for (i, r) in obs.iter().enumerate() {
        let sep = if i + 1 == obs.len() { "" } else { "," };
        let ratio = ratio_vs_off(obs, r)
            .map(|s| format!("{s:.3}"))
            .unwrap_or_else(|| "null".into());
        let _ = writeln!(
            out,
            "    {{\"mode\": \"{}\", \"rows\": {}, \"mean_ms\": {:.3}, \"rows_per_s\": {:.1}, \"ratio_vs_off\": {}}}{}",
            r.mode, r.rows, r.mean_ms, r.rows_per_s, ratio, sep
        );
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

fn main() {
    // The emulated WalmartSparse join: one-hot fact block (d_S = 126) and
    // one-hot dimension block — the layout where both factorized reuse and
    // the sparse kernels pay off.  Scale keeps the bench laptop-friendly.
    let scale = if smoke() { 0.002 } else { 0.02 };
    let workload = EmulatedDataset::WalmartSparse
        .generate(scale, 7)
        .expect("generate WalmartSparse");
    let n_rows = workload.n_fact().expect("fact cardinality");
    println!(
        "workload: {} (n_S = {n_rows}, feature split {:?})",
        workload.name,
        workload.feature_partition().unwrap()
    );

    let session = Session::new(&workload.db).join(&workload.spec);
    let gmm = session
        .fit(Gmm::with_k(3).iterations(2))
        .expect("train F-GMM");
    let nn = session
        .fit(Nn::with_hidden(16).epochs(2))
        .expect("train F-NN");

    let mut rows: Vec<BenchRow> = Vec::new();
    for strategy in [
        Algorithm::Materialized,
        Algorithm::Streaming,
        Algorithm::Factorized,
    ] {
        let opts = Scoring::new().algorithm(strategy);
        let mut scored = 0usize;
        let mean_ms = measure_ms(|| {
            scored = session.score_with(&gmm, &opts).expect("score gmm").len();
        });
        rows.push(BenchRow {
            family: "gmm",
            // Algorithm's Display form is the canonical strategy name the
            // CI guard greps for — never duplicate the mapping here.
            strategy: strategy.to_string(),
            rows: scored,
            mean_ms,
            rows_per_s: scored as f64 / (mean_ms / 1e3),
        });
        let mut scored = 0usize;
        let mean_ms = measure_ms(|| {
            scored = session.score_with(&nn, &opts).expect("score nn").len();
        });
        rows.push(BenchRow {
            family: "nn",
            strategy: strategy.to_string(),
            rows: scored,
            mean_ms,
            rows_per_s: scored as f64 / (mean_ms / 1e3),
        });
    }

    // Multi-worker sweep: factorized scoring under the parallel kernel
    // policy at explicit worker counts.  `.threads(w)` resolves into the
    // chunk fan-out (and, via the kernel thread scope, any parallel kernels);
    // 1 worker scores each scan block as one chunk — the baseline the in-run
    // `speedup_vs_1worker` ratios (and CI's ≥ 1.8× guard at 4 workers)
    // compare against.  Results are bit-identical at every point (pinned by
    // the scoring_equivalence suite), so this sweep is purely a throughput
    // trajectory.
    let mut scaling: Vec<ScalingRow> = Vec::new();
    for workers in [1usize, 2, 4] {
        let session_w = Session::new(&workload.db).join(&workload.spec).exec(
            ExecPolicy::new()
                .kernel_policy(KernelPolicy::BlockedParallel)
                .threads(workers),
        );
        // Report the worker count the run actually resolved to — the same
        // settings the scorers read.
        let resolved = session_w.exec_settings().threads;
        let mut scored = 0usize;
        let mean_ms = measure_ms(|| {
            scored = session_w.score(&gmm).expect("score gmm parallel").len();
        });
        scaling.push(ScalingRow {
            family: "gmm",
            workers: resolved,
            rows: scored,
            mean_ms,
            rows_per_s: scored as f64 / (mean_ms / 1e3),
        });
        let mut scored = 0usize;
        let mean_ms = measure_ms(|| {
            scored = session_w.score(&nn).expect("score nn parallel").len();
        });
        scaling.push(ScalingRow {
            family: "nn",
            workers: resolved,
            rows: scored,
            mean_ms,
            rows_per_s: scored as f64 / (mean_ms / 1e3),
        });
    }

    // Observability-overhead pair: factorized GMM scoring with the fml-obs
    // registry off vs recording (counters + histograms, no spans).  CI's
    // guard asserts the metrics run stays within 3% of the off run — the
    // in-run ratio is robust to absolute host speed.
    let mut obs_rows: Vec<ObsRow> = Vec::new();
    for (label, obs) in [("off", ObsMode::Off), ("metrics", ObsMode::Metrics)] {
        let session_o = Session::new(&workload.db)
            .join(&workload.spec)
            .exec(ExecPolicy::new().obs(obs));
        let opts = Scoring::new().algorithm(Algorithm::Factorized);
        let mut scored = 0usize;
        let mean_ms = measure_ms(|| {
            scored = session_o
                .score_with(&gmm, &opts)
                .expect("score gmm under obs mode")
                .len();
        });
        obs_rows.push(ObsRow {
            mode: label,
            rows: scored,
            mean_ms,
            rows_per_s: scored as f64 / (mean_ms / 1e3),
        });
    }

    println!(
        "\n{:<6} {:>13} {:>8} {:>11} {:>12} {:>16}",
        "family", "strategy", "rows", "mean", "rows/s", "vs materialized"
    );
    for r in &rows {
        let speedup = speedup_vs_materialized(&rows, r)
            .map(|s| format!("{s:.2}x"))
            .unwrap_or_default();
        println!(
            "{:<6} {:>13} {:>8} {:>8.1} ms {:>12.0} {:>16}",
            r.family, r.strategy, r.rows, r.mean_ms, r.rows_per_s, speedup
        );
    }

    println!(
        "\n{:<6} {:>8} {:>8} {:>11} {:>12} {:>13}",
        "family", "workers", "rows", "mean", "rows/s", "vs 1 worker"
    );
    for r in &scaling {
        let speedup = speedup_vs_1worker(&scaling, r)
            .map(|s| format!("{s:.2}x"))
            .unwrap_or_default();
        println!(
            "{:<6} {:>8} {:>8} {:>8.1} ms {:>12.0} {:>13}",
            r.family, r.workers, r.rows, r.mean_ms, r.rows_per_s, speedup
        );
    }

    println!(
        "\n{:<8} {:>8} {:>11} {:>12} {:>10}",
        "obs", "rows", "mean", "rows/s", "vs off"
    );
    for r in &obs_rows {
        let ratio = ratio_vs_off(&obs_rows, r)
            .map(|s| format!("{s:.3}x"))
            .unwrap_or_default();
        println!(
            "{:<8} {:>8} {:>8.1} ms {:>12.0} {:>10}",
            r.mode, r.rows, r.mean_ms, r.rows_per_s, ratio
        );
    }

    match emit_json(&workload.name, n_rows, &rows, &scaling, &obs_rows) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write BENCH_serve.json: {e}"),
    }

    // Acceptance-criterion ratios (enforced in CI): factorized beats the
    // materialized-join scorer, and the 4-worker fan-out beats the
    // single-worker factorized baseline.  Locally informational only.
    for family in ["gmm", "nn"] {
        if let Some(r) = rows
            .iter()
            .find(|r| r.family == family && r.strategy == "factorized")
        {
            let speedup = speedup_vs_materialized(&rows, r).unwrap_or(0.0);
            println!("{family} factorized speedup over materialized scoring: {speedup:.2}x");
        }
        if let Some(r) = scaling
            .iter()
            .find(|r| r.family == family && r.workers == 4)
        {
            let speedup = speedup_vs_1worker(&scaling, r).unwrap_or(0.0);
            println!("{family} parallel factorized speedup at 4 workers vs 1: {speedup:.2}x");
        }
    }
}
