//! Recovery strategies and their cost models.
//!
//! The simulator charges recovery *honestly*: every extra round and
//! every extra tuple a strategy needs after a fault lands in the same
//! `LoadReport` ledger the fault-free algorithm is measured by, so
//! fault-tolerance overhead is directly comparable against the paper's
//! fault-free `(L, r, C)` bounds. Steady-state costs (writing
//! checkpoints, keeping replicas warm) are *not* charged — only the
//! recovery path is; see DESIGN.md's "Fault tolerance" section.

/// How the cluster recovers from a [`Crash`](crate::faults::FaultKind::Crash).
///
/// Drops and stragglers have fixed recovery mechanisms (retransmission
/// and speculative re-execution); the strategy only governs crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStrategy {
    /// Checkpoint-and-restart: every server snapshots its partition
    /// state every `every` rounds; on a crash the whole cluster rolls
    /// back to the last checkpoint and replays the rounds since. Costs
    /// up to `every` replayed rounds at their original loads.
    Checkpoint {
        /// Checkpoint interval in rounds (≥ 1; 0 is treated as 1).
        every: usize,
    },
    /// r-way replication: each partition is mirrored on `replicas`
    /// consecutive servers; a crash costs one redistribution round in
    /// which the replacement server re-fetches the replica group's
    /// cumulative partitions (load ≈ `replicas × IN/p`).
    Replication {
        /// Replication factor r (≥ 1; 0 is treated as 1).
        replicas: usize,
    },
}

impl Default for RecoveryStrategy {
    fn default() -> Self {
        RecoveryStrategy::Checkpoint { every: 4 }
    }
}

impl RecoveryStrategy {
    /// Stable lowercase name used in trace events and CLI output.
    pub fn name(&self) -> &'static str {
        match self {
            RecoveryStrategy::Checkpoint { .. } => "checkpoint",
            RecoveryStrategy::Replication { .. } => "replication",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_checkpoint_every_4() {
        assert_eq!(
            RecoveryStrategy::default(),
            RecoveryStrategy::Checkpoint { every: 4 }
        );
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            RecoveryStrategy::Checkpoint { every: 2 }.name(),
            "checkpoint"
        );
        assert_eq!(
            RecoveryStrategy::Replication { replicas: 3 }.name(),
            "replication"
        );
    }
}
