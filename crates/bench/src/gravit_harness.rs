//! Figure 12 & the abstract's summary numbers: end-to-end Gravit frame time.
//!
//! The paper measures "from copying the data to the device, through the
//! kernel invocation till after copying the results back", for problem sizes
//! 40,000 … 1,000,000 and every optimization level. Our frame model is the
//! same pipeline:
//!
//! * **upload** — the layout's buffers (PCIe model, one copy per buffer);
//! * **kernel** — full-grid cycles estimated from cycle-level simulation of
//!   one SM's resident wave at two reduced tile counts, linearly extrapolated
//!   to the real particle count (DESIGN.md §6), scaled by the number of
//!   waves;
//! * **download** — one float4 acceleration per particle.
//!
//! The CPU baseline is the *actual* serial Rust implementation, measured at a
//! calibration size and extrapolated with the O(n²) law.

use gpu_kernels::force::OptLevel;
use gpu_sim::DriverModel;
use nbody::direct::accelerations;
use nbody::model::ForceParams;
use nbody::spawn;
use std::hint::black_box;
use std::time::Instant;

pub use gravit_app::model::{model_frame, FramePoint};

/// The problem sizes of Fig. 12.
pub const FIG12_SIZES: [u32; 6] = [40_000, 100_000, 200_000, 400_000, 700_000, 1_000_000];

/// The full Fig. 12 sweep: every optimization level × every problem size.
pub fn fig12_sweep(driver: DriverModel) -> Vec<FramePoint> {
    let mut out = Vec::new();
    for level in OptLevel::ALL {
        for n in FIG12_SIZES {
            out.push(model_frame(level, n, driver));
        }
    }
    out
}

/// Measured serial-CPU seconds per frame at any body count: calibrated
/// once at `calib_n` bodies, on the fastest of as many runs as fill 50 ms
/// (at least one), and extrapolated O(n²). A small calibration lasts only
/// milliseconds, so one run the host preempted would otherwise set the
/// number.
pub fn cpu_frame_seconds(calib_n: u32) -> impl Fn(u32) -> f64 {
    let bodies = spawn::uniform_ball(calib_n as usize, 10.0, 1.0, 123);
    let fp = ForceParams::default();
    // Warm-up, then timed runs.
    let _ = accelerations(&bodies, &fp);
    let (mut fastest, mut spent) = (f64::INFINITY, 0.0);
    while spent < 0.05 {
        let t0 = Instant::now();
        let acc = black_box(accelerations(black_box(&bodies), &fp));
        let dt = t0.elapsed().as_secs_f64();
        assert!(acc.len() == calib_n as usize);
        (fastest, spent) = (fastest.min(dt), spent + dt);
    }
    move |n| fastest * (n as f64 / calib_n as f64).powi(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_times_scale_quadratically() {
        let a = model_frame(OptLevel::SoAoaS, 50_000, DriverModel::Cuda10);
        let b = model_frame(OptLevel::SoAoaS, 100_000, DriverModel::Cuda10);
        let ratio = b.kernel_s / a.kernel_s;
        assert!(
            (3.0..5.0).contains(&ratio),
            "doubling n should ~quadruple kernel time, got {ratio:.2}"
        );
    }

    #[test]
    fn full_opt_beats_baseline() {
        let base = model_frame(OptLevel::Baseline, 100_000, DriverModel::Cuda10);
        let full = model_frame(OptLevel::Full, 100_000, DriverModel::Cuda10);
        assert!(full.total_s() < base.total_s());
        assert!(full.regs < base.regs);
        assert!(full.occupancy.fraction() > base.occupancy.fraction());
    }

    #[test]
    fn cpu_extrapolation_is_quadratic() {
        let cpu = cpu_frame_seconds(1_000);
        let (a, b) = (cpu(10_000), cpu(20_000));
        assert!(a > 0.0 && a.is_finite());
        assert!(
            (b / a - 4.0).abs() < 1e-12,
            "quadratic extrapolation, got {}",
            b / a
        );
    }
}
