//! The ingress-vs-redirect cost model (`α_F2R`, Eqs. 3–4 of the paper).
//!
//! A server's preference between cache-filling and redirecting is captured
//! by a cost `C_F` per cache-filled byte and `C_R` per redirected byte.
//! Only their ratio `α_F2R = C_F / C_R` matters, so the pair is normalised
//! to `C_F + C_R = 2` (Eq. 3), giving (Eq. 4):
//!
//! ```text
//! C_F = 2·α / (α + 1),      C_R = 2 / (α + 1).
//! ```

use std::fmt;

/// Errors constructing a [`CostModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CostError {
    /// `α_F2R` must be finite and strictly positive.
    InvalidAlpha(f64),
}

impl fmt::Display for CostError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CostError::InvalidAlpha(a) => {
                write!(f, "alpha_f2r must be finite and > 0, got {a}")
            }
        }
    }
}

impl std::error::Error for CostError {}

/// Normalised fill/redirect costs for one cache server.
///
/// * `α > 1` — ingress-constrained server: fetch new content only when it is
///   sufficiently more popular than what is cached (paper's default for
///   constrained servers is `α = 2`).
/// * `α = 1` — fill and redirect are equally costly (the common case).
/// * `α < 1` — cheap/spare ingress (e.g. `0.5–0.75`).
///
/// # Examples
///
/// ```
/// use vcdn_types::CostModel;
///
/// let m = CostModel::from_alpha(1.0).unwrap();
/// assert_eq!((m.c_f(), m.c_r()), (1.0, 1.0));
///
/// let m = CostModel::from_alpha(4.0).unwrap();
/// assert!((m.c_f() + m.c_r() - 2.0).abs() < 1e-12);
/// assert!((m.c_f() / m.c_r() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    alpha: f64,
    c_f: f64,
    c_r: f64,
}

impl CostModel {
    /// Builds the model from the fill-to-redirect ratio `α_F2R`.
    ///
    /// Fails if `alpha` is not finite and strictly positive.
    pub fn from_alpha(alpha: f64) -> Result<Self, CostError> {
        if !alpha.is_finite() || alpha <= 0.0 {
            return Err(CostError::InvalidAlpha(alpha));
        }
        Ok(CostModel {
            alpha,
            c_f: 2.0 * alpha / (alpha + 1.0),
            c_r: 2.0 / (alpha + 1.0),
        })
    }

    /// The balanced model `α = 1` (`C_F = C_R = 1`).
    pub fn balanced() -> Self {
        CostModel {
            alpha: 1.0,
            c_f: 1.0,
            c_r: 1.0,
        }
    }

    /// The configured `α_F2R` ratio.
    pub fn alpha(self) -> f64 {
        self.alpha
    }

    /// Cost per cache-filled byte, `C_F = 2α/(α+1)`.
    pub fn c_f(self) -> f64 {
        self.c_f
    }

    /// Cost per redirected byte, `C_R = 2/(α+1)`.
    pub fn c_r(self) -> f64 {
        self.c_r
    }

    /// `min(C_F, C_R)` — the paper's estimate for the cost of an *expected
    /// future* fill-or-redirect (Eqs. 6–7 and 13–14).
    pub fn min_cost(self) -> f64 {
        self.c_f.min(self.c_r)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::balanced()
    }
}

impl fmt::Display for CostModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "alpha={:.3} (C_F={:.4}, C_R={:.4})",
            self.alpha, self.c_f, self.c_r
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalisation_holds_for_paper_alphas() {
        for alpha in [0.5, 0.75, 1.0, 2.0, 4.0] {
            let m = CostModel::from_alpha(alpha).unwrap();
            assert!((m.c_f() + m.c_r() - 2.0).abs() < 1e-12, "alpha={alpha}");
            assert!((m.c_f() / m.c_r() - alpha).abs() < 1e-12, "alpha={alpha}");
        }
    }

    #[test]
    fn alpha_two_matches_closed_form() {
        let m = CostModel::from_alpha(2.0).unwrap();
        assert!((m.c_f() - 4.0 / 3.0).abs() < 1e-12);
        assert!((m.c_r() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_alphas_rejected() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(CostModel::from_alpha(bad).is_err(), "alpha={bad}");
        }
    }

    #[test]
    fn min_cost_picks_cheaper_side() {
        assert_eq!(CostModel::balanced().min_cost(), 1.0);
        let constrained = CostModel::from_alpha(2.0).unwrap();
        assert!((constrained.min_cost() - constrained.c_r()).abs() < 1e-12);
        let cheap = CostModel::from_alpha(0.5).unwrap();
        assert!((cheap.min_cost() - cheap.c_f()).abs() < 1e-12);
    }

    #[test]
    fn default_is_balanced() {
        let m = CostModel::default();
        assert_eq!((m.alpha(), m.c_f(), m.c_r()), (1.0, 1.0, 1.0));
    }
}
