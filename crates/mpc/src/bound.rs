//! The bound-provider contract: how an algorithm tells the metrics
//! layer what load the paper predicts for the run it is about to do.
//!
//! Each algorithm computes its closed-form bound from the quantities
//! the tutorial uses — τ\* (fractional edge quasi-packing), ρ\*
//! (fractional edge cover / AGM), ψ\* (the skew exponent), or the
//! explicit per-round formulas of the sorting and matrix chapters —
//! and announces it via [`crate::announce`] right before running. The
//! registry then reports `measured_L / predicted_L` as the run's
//! *bound-adherence ratio*: a value in `[1, 1 + ε]` means the
//! implementation runs as close to the bound as the input's balance
//! allows, while a drifting ratio flags a regression.

/// The unit a predicted load is stated in.
///
/// Join and sort bounds count *tuples* (the tutorial's `L` is tuples
/// per server per round); the matrix-multiplication bounds count
/// *words* (matrix entries), matching how the simulator weighs block
/// messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadUnit {
    /// Load measured in tuples received per server per round.
    #[default]
    Tuples,
    /// Load measured in words received per server per round.
    Words,
}

impl LoadUnit {
    /// Stable lowercase name (`"tuples"` / `"words"`).
    pub fn name(self) -> &'static str {
        match self {
            LoadUnit::Tuples => "tuples",
            LoadUnit::Words => "words",
        }
    }
}

/// A source of paper-predicted cost for one algorithm run.
///
/// The contract: `predicted_load` is the per-server per-round load the
/// analysis promises (up to constant factors the implementation is
/// expected to keep ≤ 1.5 on the calibrated experiments), stated in
/// [`unit`](BoundProvider::unit); `predicted_rounds` is the round
/// count the paper charges the algorithm. Implementations must be
/// deterministic and side-effect free — announcing happens on the hot
/// path, gated only by [`crate::metrics::is_enabled`].
pub trait BoundProvider {
    /// Stable algorithm name (`"hash_join"`, `"hypercube"`, …), used
    /// as the summary-table row label.
    fn algorithm(&self) -> &'static str;
    /// The load the paper predicts for this run, in [`unit`](Self::unit).
    fn predicted_load(&self) -> f64;
    /// The round count the paper charges this run.
    fn predicted_rounds(&self) -> usize;
    /// The unit `predicted_load` is stated in.
    fn unit(&self) -> LoadUnit {
        LoadUnit::Tuples
    }
}

/// The ready-made [`BoundProvider`]: a closed-form bound computed at
/// the announce site.
#[derive(Debug, Clone, PartialEq)]
pub struct PaperBound {
    /// Stable algorithm name.
    pub algorithm: &'static str,
    /// Predicted per-server per-round load in `unit`.
    pub load: f64,
    /// Predicted round count.
    pub rounds: usize,
    /// Unit of `load`.
    pub unit: LoadUnit,
}

impl PaperBound {
    /// A tuple-denominated bound (the common case).
    pub fn tuples(algorithm: &'static str, load: f64, rounds: usize) -> Self {
        PaperBound {
            algorithm,
            load,
            rounds,
            unit: LoadUnit::Tuples,
        }
    }

    /// A word-denominated bound (matrix multiplication).
    pub fn words(algorithm: &'static str, load: f64, rounds: usize) -> Self {
        PaperBound {
            algorithm,
            load,
            rounds,
            unit: LoadUnit::Words,
        }
    }
}

impl BoundProvider for PaperBound {
    fn algorithm(&self) -> &'static str {
        self.algorithm
    }

    fn predicted_load(&self) -> f64 {
        self.load
    }

    fn predicted_rounds(&self) -> usize {
        self.rounds
    }

    fn unit(&self) -> LoadUnit {
        self.unit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_fix_the_unit() {
        let t = PaperBound::tuples("hash_join", 125.0, 1);
        assert_eq!(t.unit(), LoadUnit::Tuples);
        assert_eq!(t.algorithm(), "hash_join");
        assert_eq!(t.predicted_load(), 125.0);
        assert_eq!(t.predicted_rounds(), 1);
        let w = PaperBound::words("matmul_square", 72.0, 9);
        assert_eq!(w.unit(), LoadUnit::Words);
        assert_eq!(w.unit().name(), "words");
    }
}
