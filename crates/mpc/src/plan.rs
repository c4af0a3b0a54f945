//! Deterministic fault schedules: [`FaultKind`], [`FaultSpec`], and
//! [`FaultPlan`].
//!
//! A plan is a map from `(round, server)` slots to the single fault
//! that fires there. Slots are ordered (a `BTreeMap`), so iterating a
//! plan — and therefore everything the runtime and the simulator do
//! with it — is deterministic regardless of how it was built.
//! [`FaultPlan::random`] derives a schedule from a seed with the same
//! SplitMix64 generator `parqp-testkit` uses, so equal seeds always
//! yield byte-identical schedules.

use std::collections::BTreeMap;
use std::fmt;

// The schedule generator draws through the testkit's SplitMix64 — a
// single shared source instead of a bit-identical inline copy (the
// `generator_matches_testkit_splitmix64` property test pins the
// schedule to the testkit's first draws). The runtime dependency is
// sanctioned by the lint's testkit whitelist.
use parqp_testkit::splitmix64;

/// One scheduled fault at a `(round, server)` slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The server loses its in-memory partition state at the end of
    /// the round. Recovery is governed by the installed
    /// [`RecoveryStrategy`](crate::faults::RecoveryStrategy).
    Crash,
    /// The last `msgs` messages delivered to the server this round are
    /// lost in transit; the senders retransmit them in one extra
    /// recovery round.
    Drop {
        /// Number of messages lost (capped at the inbox size).
        msgs: u64,
    },
    /// The first `msgs` messages delivered to the server this round
    /// arrive twice. The duplicate copies are charged to the round's
    /// load, then deduplicated locally at zero communication cost.
    Duplicate {
        /// Number of messages duplicated (capped at the inbox size).
        msgs: u64,
    },
    /// The server straggles this round; a backup server speculatively
    /// re-executes its work, receiving a copy of its inbound load in
    /// the same round.
    Straggle,
}

impl FaultKind {
    /// Stable lowercase name used in trace events and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Crash => "crash",
            FaultKind::Drop { .. } => "drop",
            FaultKind::Duplicate { .. } => "duplicate",
            FaultKind::Straggle => "straggle",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Drop { msgs } => write!(f, "drop({msgs})"),
            FaultKind::Duplicate { msgs } => write!(f, "duplicate({msgs})"),
            other => f.write_str(other.name()),
        }
    }
}

/// How many faults of each kind [`FaultPlan::random`] schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Server crashes to schedule.
    pub crashes: usize,
    /// Message-drop faults to schedule.
    pub drops: usize,
    /// Message-duplication faults to schedule.
    pub duplicates: usize,
    /// Straggler slowdowns to schedule.
    pub stragglers: usize,
    /// Upper bound on the batch size of each drop/duplicate fault
    /// (the drawn size is in `1..=max_batch`).
    pub max_batch: u64,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            crashes: 1,
            drops: 1,
            duplicates: 1,
            stragglers: 1,
            max_batch: 8,
        }
    }
}

impl FaultSpec {
    /// Total number of faults the spec asks for.
    pub fn total(&self) -> usize {
        self.crashes + self.drops + self.duplicates + self.stragglers
    }
}

/// A deterministic schedule of faults keyed by `(round, server)`.
///
/// Rounds are counted on the runtime's logical clock: one tick per
/// *algorithm* round (ledger rounds appended by recovery do not tick,
/// so injected recovery overhead never shifts the schedule).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<(usize, usize), FaultKind>,
}

/// Draw a value in `0..n` via the multiply-shift reduction (tiny,
/// deterministic bias — fine for scheduling).
fn draw_below(state: &mut u64, n: u64) -> u64 {
    ((u128::from(splitmix64(state)) * u128::from(n)) >> 64) as u64
}

impl FaultPlan {
    /// An empty (fault-free) plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builder: schedule `kind` at `(round, server)`, replacing any
    /// fault already at that slot.
    pub fn with_fault(mut self, round: usize, server: usize, kind: FaultKind) -> Self {
        self.faults.insert((round, server), kind);
        self
    }

    /// Derive a schedule from `seed` over a `rounds × p` slot grid.
    ///
    /// Faults are placed kind by kind (crashes, then drops, duplicates,
    /// stragglers), each into a uniformly drawn free slot. If the grid
    /// is too small to hold every requested fault the surplus is
    /// dropped deterministically.
    pub fn random(seed: u64, p: usize, rounds: usize, spec: &FaultSpec) -> Self {
        let mut plan = Self::new();
        if p == 0 || rounds == 0 {
            return plan;
        }
        let mut state = seed;
        let max_batch = spec.max_batch.max(1);
        let kinds = [
            (spec.crashes, 0u8),
            (spec.drops, 1),
            (spec.duplicates, 2),
            (spec.stragglers, 3),
        ];
        for (count, tag) in kinds {
            for _ in 0..count {
                if plan.faults.len() >= p * rounds {
                    break;
                }
                // Bounded rejection sampling keeps placement uniform
                // over the free slots while staying deterministic.
                let slot = (0..64)
                    .map(|_| {
                        let round = draw_below(&mut state, rounds as u64) as usize;
                        let server = draw_below(&mut state, p as u64) as usize;
                        (round, server)
                    })
                    .find(|slot| !plan.faults.contains_key(slot));
                let Some(slot) = slot else { continue };
                let kind = match tag {
                    0 => FaultKind::Crash,
                    1 => FaultKind::Drop {
                        msgs: 1 + draw_below(&mut state, max_batch),
                    },
                    2 => FaultKind::Duplicate {
                        msgs: 1 + draw_below(&mut state, max_batch),
                    },
                    _ => FaultKind::Straggle,
                };
                plan.faults.insert(slot, kind);
            }
        }
        plan
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled crashes.
    pub fn crashes(&self) -> usize {
        self.faults
            .values()
            .filter(|k| matches!(k, FaultKind::Crash))
            .count()
    }

    /// All scheduled faults in `(round, server)` order.
    pub fn schedule(&self) -> impl Iterator<Item = (usize, usize, FaultKind)> + '_ {
        self.faults.iter().map(|(&(r, s), &k)| (r, s, k))
    }

    /// Faults scheduled for `round`, in ascending server order.
    pub fn faults_at(&self, round: usize) -> Vec<(usize, FaultKind)> {
        self.faults
            .range((round, 0)..=(round, usize::MAX))
            .map(|(&(_, s), &k)| (s, k))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_orders_and_replaces() {
        let plan = FaultPlan::new()
            .with_fault(2, 1, FaultKind::Crash)
            .with_fault(0, 3, FaultKind::Straggle)
            .with_fault(2, 1, FaultKind::Drop { msgs: 2 });
        assert_eq!(plan.len(), 2);
        let sched: Vec<_> = plan.schedule().collect();
        assert_eq!(sched[0], (0, 3, FaultKind::Straggle));
        assert_eq!(sched[1], (2, 1, FaultKind::Drop { msgs: 2 }));
        assert_eq!(plan.crashes(), 0);
    }

    #[test]
    fn faults_at_filters_by_round() {
        let plan = FaultPlan::new()
            .with_fault(1, 0, FaultKind::Crash)
            .with_fault(1, 4, FaultKind::Straggle)
            .with_fault(3, 2, FaultKind::Crash);
        assert_eq!(
            plan.faults_at(1),
            vec![(0, FaultKind::Crash), (4, FaultKind::Straggle)]
        );
        assert!(plan.faults_at(0).is_empty());
        assert_eq!(plan.faults_at(3).len(), 1);
    }

    #[test]
    fn random_respects_spec_counts() {
        let spec = FaultSpec {
            crashes: 2,
            drops: 3,
            duplicates: 1,
            stragglers: 2,
            max_batch: 4,
        };
        let plan = FaultPlan::random(7, 16, 8, &spec);
        assert_eq!(plan.len(), spec.total());
        assert_eq!(plan.crashes(), 2);
        for (round, server, kind) in plan.schedule() {
            assert!(round < 8 && server < 16);
            if let FaultKind::Drop { msgs } | FaultKind::Duplicate { msgs } = kind {
                assert!((1..=4).contains(&msgs));
            }
        }
    }

    #[test]
    fn random_saturates_small_grids() {
        let spec = FaultSpec {
            crashes: 10,
            drops: 10,
            duplicates: 0,
            stragglers: 0,
            max_batch: 1,
        };
        let plan = FaultPlan::random(1, 2, 2, &spec);
        assert!(plan.len() <= 4);
        assert!(FaultPlan::random(1, 0, 4, &spec).is_empty());
    }

    #[test]
    fn display_names() {
        assert_eq!(FaultKind::Crash.to_string(), "crash");
        assert_eq!(FaultKind::Drop { msgs: 3 }.to_string(), "drop(3)");
        assert_eq!(FaultKind::Duplicate { msgs: 1 }.to_string(), "duplicate(1)");
        assert_eq!(FaultKind::Straggle.name(), "straggle");
    }
}
