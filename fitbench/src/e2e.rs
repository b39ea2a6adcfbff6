//! The end-to-end run: set-up time, one `Session::fit` per family × strategy,
//! factorized scoring throughput, and peak memory — all with observability
//! off.  Timings are rescaled to the nominal host speed (`calib`).

use crate::calib::{Calibration, NOMINAL_S};
use crate::ops::{
    check_agreement, check_scores, score_bits, Family, GmmFamily, NnFamily, Ops, Oracle,
};
use crate::stats::{median, RoundClock, Samples};
use crate::workloads::WorkloadDef;
use fml_core::fml_data::Workload;
use fml_core::prelude::*;
use fml_obs::ObsMode;
use fml_serve::{Scoring, SessionScoring};
use std::time::{Duration, Instant};

/// Times the workload is built from the seed; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Each round scores the F model repeatedly for at least this long and
/// records one throughput sample over all of its calls: a single call can
/// take 20 ms, too short to time steadily on a shared machine.
const SCORE_WINDOW: Duration = Duration::from_millis(300);
/// Calibration passes taken before each timed operation.
const CAL_PASSES: usize = 5;

/// Timings of one stretch of the run — the set-up, or one round — as
/// measured, with the calibration passes taken next to them.  The host's
/// speed drifts over tens of seconds, so each stretch is rescaled by its own
/// passes.
pub struct Stretch<'c> {
    cal: &'c Calibration,
    passes: Vec<f64>,
    /// `(metric, value, is_rate)`: a rate is per second, anything else
    /// seconds.
    values: Vec<(String, f64, bool)>,
}

impl<'c> Stretch<'c> {
    /// Starts an empty stretch.
    pub fn new(cal: &'c Calibration) -> Self {
        Stretch {
            cal,
            passes: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Takes calibration passes; called right before each timed operation.
    fn calibrate(&mut self) {
        for _ in 0..CAL_PASSES {
            let pass = self.cal.pass();
            self.passes.push(pass);
        }
    }

    /// Records a duration in seconds.
    fn time(&mut self, metric: &str, secs: f64) {
        self.values.push((metric.to_string(), secs, false));
    }

    /// Records a rate per second.
    fn rate(&mut self, metric: &str, per_s: f64) {
        self.values.push((metric.to_string(), per_s, true));
    }

    /// Rescales the stretch's timings by the median calibration pass and
    /// records them in `samples`, and as measured in `raw`.
    pub fn finish(self, samples: &mut Samples, raw: &mut Samples) {
        let Some(pass) = median(&self.passes) else {
            return;
        };
        let slowdown = pass / NOMINAL_S;
        raw.push("calibration_pass_s", pass);
        for (metric, value, is_rate) in self.values {
            raw.push(&metric, value);
            let scaled = if is_rate {
                value * slowdown
            } else {
                value / slowdown
            };
            samples.push(&metric, scaled);
        }
    }
}

/// Builds the workload `SETUP_REPS` times, recording each build's seconds,
/// and returns the last build.
pub fn timed_setup(
    def: &WorkloadDef,
    seed: u64,
    stretch: &mut Stretch<'_>,
) -> Result<Workload, String> {
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        stretch.calibrate();
        let start = Instant::now();
        let w = def.build(seed)?;
        stretch.time("setup_s", start.elapsed().as_secs_f64());
        last = Some(w);
    }
    Ok(last.expect("SETUP_REPS > 0"))
}

/// Runs end-to-end rounds for `seconds` (at least one round).
pub fn run(
    def: &WorkloadDef,
    w: &Workload,
    seconds: Duration,
    cal: &Calibration,
    samples: &mut Samples,
    raw: &mut Samples,
    ops: &mut Ops,
) {
    fml_obs::set_mode(ObsMode::Off);
    let session = Session::new(&w.db)
        .join(&w.spec)
        .exec(def.exec.clone().obs(ObsMode::Off));
    let mut gmm_oracle = None;
    let mut nn_oracle = None;
    let mut clock = RoundClock::new(seconds);
    while clock.next_round() {
        let mut stretch = Stretch::new(cal);
        round::<GmmFamily>(&session, &mut stretch, ops, &mut gmm_oracle);
        round::<NnFamily>(&session, &mut stretch, ops, &mut nn_oracle);
        stretch.finish(samples, raw);
    }
}

/// Fits one family with M, S and F, checks that they agree, then scores the
/// F model with the factorized scorer and checks it against the oracle.
fn round<F: Family>(
    session: &Session<'_>,
    stretch: &mut Stretch<'_>,
    ops: &mut Ops,
    oracle: &mut Option<Oracle<F>>,
) where
    F::Fit: Clone,
{
    let mut fits: [Option<Trained<F::Fit>>; 3] = [None, None, None];
    for (slot, alg) in fits.iter_mut().zip(Algorithm::all()) {
        let name = format!("{}_fit_{}_s", F::NAME, alg.label().to_ascii_lowercase());
        stretch.calibrate();
        let start = Instant::now();
        let fit = ops.run(&format!("{}-{} fit", F::NAME, alg.label()), || {
            F::fit(session, alg)
        });
        let secs = start.elapsed().as_secs_f64();
        if fit.is_some() {
            stretch.time(&name, secs);
        }
        *slot = fit;
    }
    check_agreement::<F>(ops, &fits);

    let Some(model) = &fits[2] else { return };
    stretch.calibrate();
    let (mut rows, mut busy) = (0, Duration::ZERO);
    while busy < SCORE_WINDOW {
        let start = Instant::now();
        let scores = ops.run(&format!("{}-F score", F::NAME), || {
            session.score_with(model, &Scoring::new())
        });
        busy += start.elapsed();
        let Some(scores) = scores else { return };
        rows += scores.len();
        check_scores::<F>(ops, session, oracle, model, score_bits::<F>(scores));
    }
    stretch.rate(
        &format!("{}_score_f_rows_per_s", F::NAME),
        rows as f64 / busy.as_secs_f64(),
    );
}

/// The process's peak resident set (`VmHWM`) in MB of 2^20 bytes.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
