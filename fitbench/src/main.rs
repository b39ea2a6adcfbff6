//! `fitbench` — the repository's end-to-end and per-crate benchmark.
//!
//! Each workload trains a GMM (`K = 5`) and an NN (`n_h = 50`) with the
//! paper's three strategies M, S and F at a fixed iteration/epoch count and
//! `tol = 0`, scores the F model with the factorized scorer, and checks the
//! results: M, S and F must reach the same objective and factorized scores
//! must equal the materialized oracle bit for bit.
//!
//! ```text
//! cargo run --release --manifest-path fitbench/Cargo.toml -- \
//!     --workload binary-dense --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with observability off;
//! `--trace 1` is the traced run that reports the per-crate metrics and
//! writes its Chrome trace under `fitbench/out/`.  Either way one process
//! runs one workload, so its peak memory belongs to that workload.  The last
//! line of standard output is one JSON object: `correct`, `attempted`,
//! `failed`, `metrics`.

mod calib;
mod e2e;
mod layers;
mod ops;
mod stats;
mod workloads;

use calib::{Calibration, NOMINAL_S};
use ops::Ops;
use stats::{range, Samples};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workloads::WorkloadDef;

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("a seed"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("whole seconds"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// End-to-end metrics, in output order, with their units.
const E2E_METRICS: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("gmm_fit_m_s", "s"),
    ("gmm_fit_s_s", "s"),
    ("gmm_fit_f_s", "s"),
    ("nn_fit_m_s", "s"),
    ("nn_fit_s_s", "s"),
    ("nn_fit_f_s", "s"),
    ("gmm_score_f_rows_per_s", "rows/s"),
    ("nn_score_f_rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
];

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fitbench: {e}");
            eprintln!(
                "usage: fitbench --workload <binary-dense|binary-onehot|star-3way> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let Some(def) = WorkloadDef::by_name(&args.workload) else {
        eprintln!("fitbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let seconds = Duration::from_secs(args.seconds);
    let mut ops = Ops::default();
    let mut samples = Samples::default();
    let mut raw = Samples::default();
    let cal = Calibration::new();
    let mut stretch = e2e::Stretch::new(&cal);
    let w = match e2e::timed_setup(&def, args.seed, &mut stretch) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("fitbench: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    stretch.finish(&mut samples, &mut raw);

    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let trace_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.json", def.name, args.seed));
        match layers::run(&def, &w, seconds, &trace_path, &mut ops) {
            Ok(table) => {
                println!("trace: {}", trace_path.display());
                for m in table {
                    println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
                    metrics.push((m.name, m.value, m.unit));
                }
            }
            Err(e) => {
                eprintln!("fitbench: traced run failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        e2e::run(&def, &w, seconds, &cal, &mut samples, &mut raw, &mut ops);
        match e2e::peak_rss_mb() {
            Some(mb) => samples.push("peak_rss_mb", mb),
            None => ops.fail("peak_rss_mb", "VmHWM is not readable"),
        }
        if let Some(pass) = raw.median("calibration_pass_s") {
            println!(
                "calibration pass median {:.3} ms (nominal {:.3} ms): times rescaled by {:.4}",
                pass * 1e3,
                NOMINAL_S * 1e3,
                NOMINAL_S / pass
            );
        }
        for (name, unit) in E2E_METRICS {
            let values = samples.get(name);
            let (Some(median), Some((lo, hi))) = (samples.median(name), range(values)) else {
                ops.fail(name, "no sample");
                continue;
            };
            let measured = match raw.median(name) {
                Some(m) => format!("  as measured {m:.6}"),
                None => String::new(),
            };
            println!(
                "{name:<24} median {median:>14.6} {unit:<6} n={:<3} min {lo:.6} max {hi:.6}{measured}",
                values.len()
            );
            metrics.push((name.to_string(), median, unit));
        }
    }
    println!(
        "{} seed {}: {} operations, {} failed",
        def.name, args.seed, ops.attempted, ops.failed
    );
    println!("{}", result_json(&ops, &metrics));
    ExitCode::SUCCESS
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_json(ops: &Ops, metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.failed == 0,
        ops.attempted,
        ops.failed,
        body.join(", ")
    )
}
