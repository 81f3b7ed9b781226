//! Solver parameter sets with the paper's defaults.

/// Parameters for the power-method solvers (forward and PMPN).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RwrParams {
    /// Restart probability `α` (paper default 0.15).
    pub alpha: f64,
    /// L1 convergence tolerance `ε` between successive iterates
    /// (paper default 1e-10, §5.2).
    pub epsilon: f64,
    /// Hard iteration cap (safety net; Thm. 2(c) bounds the needed count by
    /// `log(ε/α)/log(1−α)` ≈ 130 for the defaults).
    pub max_iterations: u32,
    /// Worker threads for each sparse matrix–vector product of a
    /// single-source solve (`0` = all cores). Results are bitwise identical
    /// for any value; default 1 so embedded solves do not oversubscribe.
    /// Not read by [`crate::power::proximity_from_many`] — and so not for
    /// hub-matrix columns, which it solves — whose parallelism is across
    /// sources instead.
    pub threads: usize,
}

impl Default for RwrParams {
    fn default() -> Self {
        Self { alpha: 0.15, epsilon: 1e-10, max_iterations: 1_000, threads: 1 }
    }
}

impl RwrParams {
    /// Creates parameters with a custom restart probability.
    pub fn with_alpha(alpha: f64) -> Self {
        Self { alpha, ..Self::default() }
    }

    /// Returns a copy with the SpMV thread count set (`0` = all cores).
    pub fn with_threads(self, threads: usize) -> Self {
        Self { threads, ..self }
    }

    /// Panics unless `0 < α < 1`, `ε > 0` and at least one iteration is
    /// allowed. Called by every solver entry point.
    pub fn validate(&self) {
        assert!(
            self.alpha > 0.0 && self.alpha < 1.0,
            "RwrParams: alpha must lie in (0,1), got {}",
            self.alpha
        );
        assert!(self.epsilon > 0.0, "RwrParams: epsilon must be positive");
        assert!(self.max_iterations >= 1, "RwrParams: max_iterations must be ≥ 1");
    }

    /// Theorem 2(c): iterations needed for `‖x_{i+1} − x_i‖₁ < ε`.
    pub fn iteration_bound(&self) -> u32 {
        ((self.epsilon / self.alpha).ln() / (1.0 - self.alpha).ln()).ceil().max(1.0) as u32
    }
}

/// Parameters for the Bookmark Coloring Algorithm (index construction and
/// query-time refinement).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BcaParams {
    /// Restart probability `α`.
    pub alpha: f64,
    /// Propagation threshold `η`: only nodes with residue `≥ η` join a batch
    /// iteration's frontier `L_t` (paper default 1e-4).
    pub propagation_threshold: f64,
    /// Residue threshold `δ`: BCA stops once `‖r‖₁ ≤ δ` (paper default 0.1
    /// for index construction; use a tiny value for near-exact vectors).
    pub residue_threshold: f64,
    /// Hard iteration cap.
    pub max_iterations: u32,
}

impl Default for BcaParams {
    fn default() -> Self {
        Self {
            alpha: 0.15,
            propagation_threshold: 1e-4,
            residue_threshold: 0.1,
            max_iterations: 10_000,
        }
    }
}

impl BcaParams {
    /// Parameters that drive BCA to (numerically) full convergence — used
    /// for computing hub vectors without the power method.
    pub fn exhaustive(alpha: f64) -> Self {
        Self {
            alpha,
            propagation_threshold: 1e-12,
            residue_threshold: 1e-9,
            max_iterations: 1_000_000,
        }
    }

    /// Panics on out-of-range parameters; see [`RwrParams::validate`].
    pub fn validate(&self) {
        assert!(
            self.alpha > 0.0 && self.alpha < 1.0,
            "BcaParams: alpha must lie in (0,1), got {}",
            self.alpha
        );
        assert!(
            self.propagation_threshold > 0.0,
            "BcaParams: propagation_threshold must be positive"
        );
        assert!(self.residue_threshold >= 0.0, "BcaParams: residue_threshold must be non-negative");
        assert!(self.max_iterations >= 1, "BcaParams: max_iterations must be ≥ 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let p = RwrParams::default();
        assert_eq!(p.alpha, 0.15);
        assert_eq!(p.epsilon, 1e-10);
        let b = BcaParams::default();
        assert_eq!(b.propagation_threshold, 1e-4);
        assert_eq!(b.residue_threshold, 0.1);
    }

    #[test]
    fn iteration_bound_matches_theorem() {
        let p = RwrParams::default();
        // log(1e-10/0.15)/log(0.85) ≈ 129.9
        let bound = p.iteration_bound();
        assert!((129..=131).contains(&bound), "bound {bound}");
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_alpha_one() {
        RwrParams { alpha: 1.0, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_alpha_zero() {
        BcaParams { alpha: 0.0, ..Default::default() }.validate();
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_zero_epsilon() {
        RwrParams { epsilon: 0.0, ..Default::default() }.validate();
    }
}
