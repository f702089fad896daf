//! Steady-state extrapolation for the timed engine.
//!
//! The timed engine simulates *one SM's resident blocks*. For kernels whose
//! per-thread work scales with a parameter (the O(n²) force kernel's tile
//! loop), the frame model simulates two smaller configurations and
//! extrapolates the steady state with a linear fit ([`extrapolate_linear`]).
//! Scaling that wave to the full grid is the frame model's job
//! (`gravit_app::model`), not this module's.

use crate::fault::{DeviceError, DeviceResult, FaultKind};
use simcore::linear_fit;

/// Extrapolate a cost that is affine in a size parameter: measure at two (or
/// more) sizes, fit `cycles ≈ a + b·size`, and evaluate at `target`.
///
/// A negative fitted slope (a sign the measurements are not in the
/// steady-state regime) is a [`FaultKind::BadConfig`] error.
pub fn extrapolate_linear(measured: &[(u64, u64)], target: u64) -> DeviceResult<u64> {
    let pts: Vec<(f64, f64)> = measured
        .iter()
        .map(|&(x, y)| (x as f64, y as f64))
        .collect();
    let (a, b) = linear_fit(&pts);
    if b < 0.0 {
        return Err(DeviceError::new(FaultKind::BadConfig {
            reason: format!("negative marginal cost ({b}) — measurements not in steady state"),
        }));
    }
    let v = a + b * target as f64;
    Ok(v.max(0.0).round() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extrapolation_recovers_affine_cost() {
        let measured = vec![(4u64, 1000u64), (8, 1800), (16, 3400)];
        assert_eq!(extrapolate_linear(&measured, 32).unwrap(), 6600);
    }

    #[test]
    fn extrapolation_rejects_negative_slope() {
        let err = extrapolate_linear(&[(4, 1000), (8, 500)], 100).unwrap_err();
        assert!(matches!(
            err.kind,
            crate::fault::FaultKind::BadConfig { .. }
        ));
    }
}
