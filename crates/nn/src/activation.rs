//! Activations: ELU (the paper's choice), ReLU, tanh, sigmoid, linear,
//! plus a numerically-stable row-wise softmax.

use serde::{Deserialize, Serialize};

use crate::tensor::Matrix;

/// Fast branch-free `expf`: Cephes-style range reduction plus a degree-5
/// polynomial, accurate to ~1 ulp over the activation range (pinned
/// against `f64` exp in tests). Branch-free — clamping, magic-number
/// rounding, exponent-bit assembly — so activation loops autovectorise;
/// the sigmoid/ELU gate evaluations this feeds are a measurable slice of
/// LSTM training time under libm's scalar `expf`.
#[inline(always)]
pub(crate) fn fast_exp(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    // 355/512 — exactly representable; clippy misreads the precision.
    #[allow(clippy::excessive_precision)]
    const C1: f32 = 0.693_359_375; // ln2 split: C1 + C2 = ln 2
    const C2: f32 = -2.121_944_4e-4;
    // Clamp keeps the assembled exponent in the normal range; saturates
    // to ~1.6e-38 / ~1.7e38 outside, which the activations never exceed.
    let x = x.clamp(-87.0, 88.0);
    // Round-to-nearest via the 1.5·2^23 magic constant (SSE2-friendly).
    let t = x * LOG2E + 12_582_912.0;
    let n = t - 12_582_912.0;
    let r = x - n * C1 - n * C2;
    // exp(r) ≈ 1 + r + r²·P(r) on [−½ln2, ½ln2] (Cephes expf).
    let p = 1.987_569_2e-4_f32;
    let p = p * r + 1.398_199_9e-3;
    let p = p * r + 8.333_452e-3;
    let p = p * r + 4.166_579_6e-2;
    let p = p * r + 1.666_666_5e-1;
    let p = p * r + 0.5;
    let e = 1.0 + r + r * r * p;
    // The integer n sits in t's mantissa (ulp at 1.5·2^23 is exactly 1),
    // so the 2^n scale assembles from t's bits with integer ops only — a
    // saturating float→int cast here would block autovectorisation.
    let n_i = (t.to_bits() as i32).wrapping_sub(0x4B40_0000);
    let bits = ((n_i + 127) << 23) as u32;
    e * f32::from_bits(bits)
}

/// Runs `$body` with `$f` bound to a closure that applies `$act`,
/// resolved once: one `match` per call and a loop specialised per
/// activation, instead of a runtime `match` per element (which also
/// stops `fast_exp` from vectorising). Every element still goes through
/// [`Activation::apply`], so the bits do not change.
macro_rules! with_activation {
    ($act:expr, $f:ident => $body:expr) => {
        match $act {
            Activation::Elu => {
                let $f = |x: f32| Activation::Elu.apply(x);
                $body
            }
            Activation::Relu => {
                let $f = |x: f32| Activation::Relu.apply(x);
                $body
            }
            Activation::Tanh => {
                let $f = |x: f32| Activation::Tanh.apply(x);
                $body
            }
            Activation::Sigmoid => {
                let $f = |x: f32| Activation::Sigmoid.apply(x);
                $body
            }
            Activation::Linear => {
                let $f = |x: f32| Activation::Linear.apply(x);
                $body
            }
        }
    };
}
pub(crate) use with_activation;

/// Pointwise activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Exponential linear unit, α = 1 (used by both paper models).
    Elu,
    /// Rectified linear unit (the paper's MLP final dense stack).
    Relu,
    /// Hyperbolic tangent (classic LSTM cell activation).
    Tanh,
    /// Logistic sigmoid (LSTM gates).
    Sigmoid,
    /// Identity.
    Linear,
}

impl Activation {
    /// Applies the activation.
    #[inline]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Elu => {
                // Unconditional fast_exp + select (instead of a branch)
                // keeps activation loops if-convertible and vectorised.
                let e = fast_exp(x) - 1.0;
                if x >= 0.0 {
                    x
                } else {
                    e
                }
            }
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Sigmoid => 1.0 / (1.0 + fast_exp(-x)),
            Activation::Linear => x,
        }
    }

    /// Derivative expressed in terms of the *pre-activation* input `x`.
    #[inline]
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            Activation::Elu => {
                if x >= 0.0 {
                    1.0
                } else {
                    fast_exp(x)
                }
            }
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
            Activation::Sigmoid => {
                let s = 1.0 / (1.0 + fast_exp(-x));
                s * (1.0 - s)
            }
            Activation::Linear => 1.0,
        }
    }

    /// Derivative expressed in terms of the *activation output* `y`
    /// (plus the pre-activation `x` where only its sign is needed).
    /// Mathematically identical to [`Activation::derivative`] but free of
    /// transcendentals — σ' = σ(1−σ), tanh' = 1−tanh², elu' = elu+1 —
    /// which is what lets the backward pass reuse cached forward
    /// activations instead of re-evaluating `exp`.
    #[inline]
    pub fn derivative_from_output(self, y: f32, x: f32) -> f32 {
        match self {
            Activation::Elu => {
                if x >= 0.0 {
                    1.0
                } else {
                    y + 1.0
                }
            }
            Activation::Relu => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Sigmoid => y * (1.0 - y),
            Activation::Linear => 1.0,
        }
    }
}

/// Row-wise softmax with the max-subtraction trick.
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(0, 0);
    softmax_rows_into(logits, &mut out);
    out
}

/// Row-wise softmax into a caller-provided buffer (no allocation when
/// `out` has capacity).
pub fn softmax_rows_into(logits: &Matrix, out: &mut Matrix) {
    out.copy_from(logits);
    let cols = out.cols();
    if cols == 0 {
        return;
    }
    for row in out.data_mut().chunks_mut(cols) {
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let mut sum = 0.0;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fast_exp_tracks_f64_exp() {
        // 1e-6 relative over the whole clamped range; the activations
        // never leave it.
        let mut worst = 0.0f64;
        let mut x = -87.0f32;
        while x <= 88.0 {
            let got = fast_exp(x) as f64;
            let want = (x as f64).exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
            x += 0.037;
        }
        assert!(worst < 1e-6, "worst relative error {worst}");
        assert_eq!(fast_exp(0.0), 1.0);
        // Saturation outside the clamp stays finite and monotone-sane.
        assert!(fast_exp(-1000.0) > 0.0 && fast_exp(-1000.0) < 1e-37);
        assert!(fast_exp(1000.0).is_finite());
    }

    const ACTS: [Activation; 5] = [
        Activation::Elu,
        Activation::Relu,
        Activation::Tanh,
        Activation::Sigmoid,
        Activation::Linear,
    ];

    #[test]
    fn elu_values() {
        assert_eq!(Activation::Elu.apply(2.0), 2.0);
        assert!((Activation::Elu.apply(-1.0) - ((-1.0f32).exp() - 1.0)).abs() < 1e-7);
        assert!(Activation::Elu.apply(-10.0) > -1.0);
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let eps = 1e-3f32;
        for act in ACTS {
            for &x in &[-2.0f32, -0.5, 0.3, 1.7] {
                let fd = (act.apply(x + eps) - act.apply(x - eps)) / (2.0 * eps);
                let an = act.derivative(x);
                assert!(
                    (fd - an).abs() < 5e-3,
                    "{act:?} at {x}: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn derivative_from_output_matches_derivative() {
        for act in ACTS {
            for &x in &[-3.0f32, -1.0, -0.2, 0.0, 0.4, 2.5] {
                let y = act.apply(x);
                let from_x = act.derivative(x);
                let from_y = act.derivative_from_output(y, x);
                assert!(
                    (from_x - from_y).abs() < 1e-6,
                    "{act:?} at {x}: from-x {from_x} vs from-y {from_y}"
                );
            }
        }
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![-5.0, 0.0, 5.0]]);
        let s = softmax_rows(&m);
        for r in 0..2 {
            let row = s.row(r);
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-6);
            assert!(row.windows(2).all(|w| w[0] < w[1]), "monotone in logits");
        }
    }

    #[test]
    fn softmax_is_stable_for_huge_logits() {
        let m = Matrix::from_rows(&[vec![1000.0, 1000.0, 999.0]]);
        let s = softmax_rows(&m);
        assert!(s.data().iter().all(|v| v.is_finite()));
        assert!((s.row(0).iter().sum::<f32>() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn sigmoid_is_bounded() {
        for &x in &[-50.0f32, -1.0, 0.0, 1.0, 50.0] {
            let s = Activation::Sigmoid.apply(x);
            assert!((0.0..=1.0).contains(&s));
        }
        assert!((Activation::Sigmoid.apply(0.0) - 0.5).abs() < 1e-7);
    }
}
