//! Per-round communication statistics and the final load report.
//!
//! The MPC cost of an algorithm is the pair `(L, r)` — maximum per-server
//! per-round communication, and number of rounds (slides 12–20). The
//! cluster records a [`RoundStats`] for every exchange; [`LoadReport`]
//! summarizes a full run.
//!
//! Both types are `#[non_exhaustive]`, so only this crate builds them:
//! a round enters the ledger when [`Exchange::finish`] or
//! [`RowExchange::finish`] delivers it (with the recovery rounds a
//! fault plan appends), and code outside the crate reads the fields
//! and composes whole reports with [`LoadReport::empty`],
//! [`LoadReport::idle`], [`LoadReport::padded`], [`LoadReport::folded`],
//! [`LoadReport::parallel`] and [`LoadReport::sequential`]. A load no
//! message carried has no way in.
//!
//! ```compile_fail
//! // A report literal outside `parqp-mpc` does not compile …
//! let r = parqp_mpc::LoadReport { servers: 2, rounds: Vec::new() };
//! ```
//!
//! ```compile_fail
//! // … nor does a round literal …
//! let r = parqp_mpc::RoundStats { tuples: vec![1], words: vec![1] };
//! ```
//!
//! ```compile_fail
//! // … nor an empty round to fill in.
//! let r = parqp_mpc::RoundStats::zero(2);
//! ```
//!
//! [`Exchange::finish`]: crate::Exchange::finish
//! [`RowExchange::finish`]: crate::RowExchange::finish

/// Communication received in one round, per server.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct RoundStats {
    /// Tuples (messages) received by each server this round.
    pub tuples: Vec<u64>,
    /// Words received by each server this round (see [`crate::Weight`]).
    pub words: Vec<u64>,
}

impl RoundStats {
    /// A round in which no server received anything, on `p` servers.
    pub(crate) fn zero(p: usize) -> Self {
        Self {
            tuples: vec![0; p],
            words: vec![0; p],
        }
    }

    /// Maximum number of tuples received by any single server.
    pub fn max_tuples(&self) -> u64 {
        self.tuples.iter().copied().max().unwrap_or(0)
    }

    /// Maximum number of words received by any single server.
    pub fn max_words(&self) -> u64 {
        self.words.iter().copied().max().unwrap_or(0)
    }

    /// Total tuples communicated this round.
    pub fn total_tuples(&self) -> u64 {
        self.tuples.iter().sum()
    }

    /// Total words communicated this round.
    pub fn total_words(&self) -> u64 {
        self.words.iter().sum()
    }
}

/// Summary of a complete MPC run: the quantities the paper's theorems bound.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct LoadReport {
    /// Number of servers `p`.
    pub servers: usize,
    /// One entry per communication round.
    pub rounds: Vec<RoundStats>,
}

impl LoadReport {
    /// A report of zero rounds on `servers` servers: the cost of an
    /// algorithm that never communicated (e.g. a join with an empty
    /// input).
    #[must_use]
    pub fn empty(servers: usize) -> LoadReport {
        LoadReport {
            servers,
            rounds: Vec::new(),
        }
    }

    /// A report of `rounds` rounds in which nobody received anything:
    /// the cost of servers that sat out phases other groups spent
    /// communicating (round synchronization is global in the MPC model).
    #[must_use]
    pub fn idle(servers: usize, rounds: usize) -> LoadReport {
        LoadReport {
            servers,
            rounds: vec![RoundStats::zero(servers); rounds],
        }
    }

    /// Re-shape this report onto a cluster of `p ≥ servers` servers: the
    /// extra servers received nothing in every round. Used when a phase
    /// ran on a sub-cluster (e.g. the light half of a skew join) and its
    /// cost must be composed with full-cluster phases.
    ///
    /// # Panics
    /// Panics if `p` is smaller than the report's server count —
    /// shrinking a report would silently drop recorded load.
    #[must_use = "padded consumes the report and returns the re-shaped one"]
    pub fn padded(mut self, p: usize) -> LoadReport {
        assert!(
            p >= self.servers,
            "cannot pad a report of {} servers down to {p}",
            self.servers
        );
        for round in &mut self.rounds {
            round.tuples.resize(p, 0);
            round.words.resize(p, 0);
        }
        self.servers = p;
        self
    }

    /// Re-shape this report onto a cluster of exactly `p` servers by
    /// assigning virtual server `i` to physical server `i % p`. Used when
    /// parallel sub-cluster blocks are laid out over the real cluster:
    /// with more blocks than servers the blocks time-share, and a
    /// physical server's load in a round is the sum of its virtual
    /// servers' loads. Total load `C` is preserved; when `p >= servers`
    /// this is exactly [`LoadReport::padded`].
    ///
    /// # Panics
    /// Panics if `p` is zero.
    #[must_use = "folded consumes the report and returns the re-shaped one"]
    pub fn folded(self, p: usize) -> LoadReport {
        assert!(p > 0, "cluster must have at least one server");
        if p >= self.servers {
            return self.padded(p);
        }
        let rounds = self
            .rounds
            .into_iter()
            .map(|rs| {
                let mut tuples = vec![0; p];
                let mut words = vec![0; p];
                for (i, t) in rs.tuples.into_iter().enumerate() {
                    tuples[i % p] += t;
                }
                for (i, w) in rs.words.into_iter().enumerate() {
                    words[i % p] += w;
                }
                RoundStats { tuples, words }
            })
            .collect();
        LoadReport { servers: p, rounds }
    }

    /// Number of communication rounds `r`.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The load `L` in tuples: max over servers and rounds of tuples received.
    pub fn max_load_tuples(&self) -> u64 {
        self.rounds
            .iter()
            .map(RoundStats::max_tuples)
            .max()
            .unwrap_or(0)
    }

    /// The load `L` in words: max over servers and rounds of words received.
    pub fn max_load_words(&self) -> u64 {
        self.rounds
            .iter()
            .map(RoundStats::max_words)
            .max()
            .unwrap_or(0)
    }

    /// Total communication `C` in tuples, summed over all rounds and servers.
    pub fn total_tuples(&self) -> u64 {
        self.rounds.iter().map(RoundStats::total_tuples).sum()
    }

    /// Total communication `C` in words.
    pub fn total_words(&self) -> u64 {
        self.rounds.iter().map(RoundStats::total_words).sum()
    }

    /// Per-round maximum tuple loads, one entry per round.
    pub fn round_max_tuples(&self) -> Vec<u64> {
        self.rounds.iter().map(RoundStats::max_tuples).collect()
    }

    /// Compose reports of algorithms that ran **side by side on disjoint
    /// server groups** in the same global rounds (e.g. the per-heavy-hitter
    /// Cartesian grids of the skew join, or SkewHC's residual queries).
    ///
    /// Round `i` of the result contains the concatenation of every group's
    /// round `i` (groups that finished early contribute zero); the total
    /// server count is the sum of group sizes.
    pub fn parallel(reports: &[LoadReport]) -> LoadReport {
        let servers = reports.iter().map(|r| r.servers).sum();
        let rounds = reports
            .iter()
            .map(LoadReport::num_rounds)
            .max()
            .unwrap_or(0);
        let mut out = Vec::with_capacity(rounds);
        for i in 0..rounds {
            let mut tuples = Vec::with_capacity(servers);
            let mut words = Vec::with_capacity(servers);
            for r in reports {
                match r.rounds.get(i) {
                    Some(rs) => {
                        tuples.extend_from_slice(&rs.tuples);
                        words.extend_from_slice(&rs.words);
                    }
                    None => {
                        tuples.resize(tuples.len() + r.servers, 0);
                        words.resize(words.len() + r.servers, 0);
                    }
                }
            }
            out.push(RoundStats { tuples, words });
        }
        LoadReport {
            servers,
            rounds: out,
        }
    }

    /// Compose reports of algorithm phases that ran **one after another on
    /// the same servers**: rounds are concatenated.
    ///
    /// # Panics
    /// Panics if the reports disagree on the server count.
    pub fn sequential(reports: &[LoadReport]) -> LoadReport {
        let servers = reports.first().map_or(0, |r| r.servers);
        let mut rounds = Vec::new();
        for r in reports {
            assert_eq!(
                r.servers, servers,
                "sequential phases must share the cluster"
            );
            rounds.extend(r.rounds.iter().cloned());
        }
        LoadReport { servers, rounds }
    }
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p={} r={} L={} tuples ({} words) C={} tuples",
            self.servers,
            self.num_rounds(),
            self.max_load_tuples(),
            self.max_load_words(),
            self.total_tuples()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LoadReport {
        LoadReport {
            servers: 3,
            rounds: vec![
                RoundStats {
                    tuples: vec![5, 2, 1],
                    words: vec![10, 4, 2],
                },
                RoundStats {
                    tuples: vec![0, 7, 3],
                    words: vec![0, 14, 6],
                },
            ],
        }
    }

    #[test]
    fn max_load() {
        let r = sample();
        assert_eq!(r.max_load_tuples(), 7);
        assert_eq!(r.max_load_words(), 14);
    }

    #[test]
    fn totals() {
        let r = sample();
        assert_eq!(r.total_tuples(), 18);
        assert_eq!(r.total_words(), 36);
        assert_eq!(r.num_rounds(), 2);
        assert_eq!(r.round_max_tuples(), vec![5, 7]);
    }

    #[test]
    fn empty_report() {
        let r = LoadReport {
            servers: 4,
            rounds: vec![],
        };
        assert_eq!(r.max_load_tuples(), 0);
        assert_eq!(r.total_tuples(), 0);
        assert_eq!(r.num_rounds(), 0);
    }

    #[test]
    fn zero_round() {
        let z = RoundStats::zero(3);
        assert_eq!(z.max_tuples(), 0);
        assert_eq!(z.total_words(), 0);
        assert_eq!(z.tuples.len(), 3);
    }

    #[test]
    fn parallel_composition_pads_and_concats() {
        let a = LoadReport {
            servers: 2,
            rounds: vec![
                RoundStats {
                    tuples: vec![1, 2],
                    words: vec![1, 2],
                },
                RoundStats {
                    tuples: vec![3, 0],
                    words: vec![3, 0],
                },
            ],
        };
        let b = LoadReport {
            servers: 1,
            rounds: vec![RoundStats {
                tuples: vec![9],
                words: vec![9],
            }],
        };
        let m = LoadReport::parallel(&[a, b]);
        assert_eq!(m.servers, 3);
        assert_eq!(m.num_rounds(), 2);
        assert_eq!(m.rounds[0].tuples, vec![1, 2, 9]);
        assert_eq!(m.rounds[1].tuples, vec![3, 0, 0]);
        assert_eq!(m.max_load_tuples(), 9);
    }

    #[test]
    fn folded_time_shares_virtual_servers() {
        let r = LoadReport {
            servers: 5,
            rounds: vec![RoundStats {
                tuples: vec![1, 2, 3, 4, 5],
                words: vec![1, 2, 3, 4, 5],
            }],
        };
        let total = r.total_tuples();
        let f = r.folded(2);
        assert_eq!(f.servers, 2);
        // Virtual servers 0,2,4 → physical 0; 1,3 → physical 1.
        assert_eq!(f.rounds[0].tuples, vec![1 + 3 + 5, 2 + 4]);
        assert_eq!(f.total_tuples(), total, "folding preserves C");
    }

    #[test]
    fn folded_up_equals_padded() {
        let r = LoadReport {
            servers: 2,
            rounds: vec![RoundStats {
                tuples: vec![7, 8],
                words: vec![7, 8],
            }],
        };
        let f = r.folded(4);
        assert_eq!(f.servers, 4);
        assert_eq!(f.rounds[0].tuples, vec![7, 8, 0, 0]);
    }

    #[test]
    fn sequential_composition_concats_rounds() {
        let a = LoadReport {
            servers: 2,
            rounds: vec![RoundStats {
                tuples: vec![1, 2],
                words: vec![1, 2],
            }],
        };
        let b = LoadReport {
            servers: 2,
            rounds: vec![RoundStats {
                tuples: vec![5, 0],
                words: vec![5, 0],
            }],
        };
        let s = LoadReport::sequential(&[a, b]);
        assert_eq!(s.num_rounds(), 2);
        assert_eq!(s.max_load_tuples(), 5);
        assert_eq!(s.total_tuples(), 8);
    }

    #[test]
    fn empty_and_idle_reports() {
        let e = LoadReport::empty(4);
        assert_eq!(e.servers, 4);
        assert_eq!(e.num_rounds(), 0);
        let i = LoadReport::idle(3, 2);
        assert_eq!(i.num_rounds(), 2);
        assert_eq!(i.max_load_tuples(), 0);
        assert_eq!(i.rounds[0].tuples.len(), 3);
    }

    #[test]
    fn padded_extends_every_round() {
        let p = sample().padded(5);
        assert_eq!(p.servers, 5);
        assert_eq!(p.rounds[0].tuples, vec![5, 2, 1, 0, 0]);
        assert_eq!(p.rounds[1].words, vec![0, 14, 6, 0, 0]);
        // Padding preserves the measured cost.
        assert_eq!(p.max_load_tuples(), sample().max_load_tuples());
        assert_eq!(p.total_words(), sample().total_words());
    }

    #[test]
    #[should_panic(expected = "cannot pad")]
    fn padding_down_rejected() {
        let _ = sample().padded(2);
    }

    #[test]
    fn parallel_of_nothing_is_empty() {
        let m = LoadReport::parallel(&[]);
        assert_eq!(m.servers, 0);
        assert_eq!(m.num_rounds(), 0);
    }

    #[test]
    fn display_mentions_everything() {
        let s = sample().to_string();
        assert!(s.contains("p=3"));
        assert!(s.contains("r=2"));
        assert!(s.contains("L=7"));
    }
}
