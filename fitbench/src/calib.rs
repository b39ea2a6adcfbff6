//! Host-speed calibration for the end-to-end timings.
//!
//! On a shared virtual machine the same fit runs up to 1.7× slower for tens
//! of seconds at a time while other tenants load the host, and the guest
//! sees no steal time to correct for.  So the end-to-end run also times a
//! fixed kernel of the benchmark's own, using no code of the program under
//! test, right before every timed build, fit and scoring window, and
//! rescales each timing to a host on which one pass of that kernel takes
//! [`NOMINAL_S`].
//!
//! The kernel has the shape of a GMM E-step over rows: copy a 20-wide row
//! into a fresh buffer, then five squared distances and an `exp`.  Of the
//! kernels tried (a dense matrix product, memory streams, random reads, a
//! pointer chase, hash-map lookups), it left the smallest worst-case
//! run-to-run spread in the rescaled fit and scoring times of the binary
//! workloads; `fitbench/METRICS.md` has the measurements.

use std::hint::black_box;
use std::time::Instant;

/// Width of a row.
const D: usize = 20;
/// Components, as in the benchmark's GMM.
const K: usize = 5;
/// Rows per pass (960 KB, resident in L2).
const ROWS: usize = 6_000;
/// Seconds of one pass at the nominal host speed: about the median pass on
/// the 2-vCPU Intel Xeon (2.0 GHz) virtual machine the baseline was measured
/// on.  Rescaled timings read as seconds on a host this fast.
pub const NOMINAL_S: f64 = 0.001;

/// The calibration kernel's fixed operands.
pub struct Calibration {
    rows: Vec<f64>,
    means: [[f64; D]; K],
}

impl Calibration {
    /// Fills the operands with fixed values.
    pub fn new() -> Self {
        let rows = (0..ROWS * D)
            .map(|i| ((i * 7919) % 1000) as f64 * 1e-3)
            .collect();
        let mut means = [[0.0; D]; K];
        for (k, mean) in means.iter_mut().enumerate() {
            for (j, m) in mean.iter_mut().enumerate() {
                *m = (k * D + j) as f64 * 0.01;
            }
        }
        Calibration { rows, means }
    }

    /// Seconds of one pass of the kernel.
    pub fn pass(&self) -> f64 {
        let start = Instant::now();
        let mut total = 0.0;
        for row in self.rows.chunks_exact(D) {
            let x: Vec<f64> = black_box(row.to_vec());
            for mean in &self.means {
                let dist: f64 = x.iter().zip(mean).map(|(a, m)| (a - m) * (a - m)).sum();
                total += (-0.5 * dist).exp();
            }
        }
        black_box(total);
        start.elapsed().as_secs_f64()
    }
}
