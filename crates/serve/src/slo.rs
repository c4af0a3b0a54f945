//! Declarative SLO rules with multi-window burn-rate alerting.
//!
//! A rule is a threshold on one per-window series; a window *burns*
//! when it is eligible (has the signal the rule reads) and violates
//! the threshold. Burns alone never fail a gate — alerting is
//! burn-rate-based on the tick clock, the way production SLO monitors
//! alert on error budgets:
//!
//! * **fast burn** — at least `fast_burn_windows` *consecutive*
//!   burning windows (a sustained episode, e.g. a skew spike that does
//!   not clear);
//! * **slow burn** — more than `slow_burn_fraction` of eligible
//!   windows burned over the whole run (chronic budget exhaustion).
//!
//! A single cold-start window (empty cache → hit rate 0) therefore
//! cannot trip the gate, while a regression that keeps the cache cold
//! all run (`tests/obs_invariants.rs` slashes the cache budget) must.
//!
//! Rules parse from a `key = value` text (the committed
//! `slo/serve_steady.slo` the CI gate runs) — the parser lives here,
//! file IO stays in `parqp` (this crate is PQ103 side-channel scoped).

use std::fmt::Write as _;

use crate::series::{SeriesReport, WindowStats};

/// Thresholds on the window series; `None` disables a rule.
#[derive(Debug, Clone, PartialEq)]
pub struct SloRules {
    /// p99 per-query load budget (tuples) per window.
    pub p99_l_budget: Option<u64>,
    /// Minimum cache hit rate per window with lookups.
    pub hit_rate_floor: Option<f64>,
    /// Maximum per-window bound ratio (worst `L / predicted_L`).
    pub bound_ratio_ceiling: Option<f64>,
    /// Maximum per-window `recovery_rounds / expected_rounds`.
    pub recovery_overhead_cap: Option<f64>,
    /// Consecutive burning windows that raise a fast-burn alert.
    pub fast_burn_windows: usize,
    /// Fraction of eligible windows burned that raises a slow-burn
    /// alert.
    pub slow_burn_fraction: f64,
}

impl Default for SloRules {
    fn default() -> Self {
        Self {
            p99_l_budget: None,
            hit_rate_floor: None,
            bound_ratio_ceiling: None,
            recovery_overhead_cap: None,
            fast_burn_windows: 2,
            slow_burn_fraction: 0.5,
        }
    }
}

impl SloRules {
    /// The committed objectives for the steady serve preset:
    /// `slo/serve_steady.slo` itself, which the CI gate replays
    /// (`parqp serve --obs --slo slo/serve_steady.slo`) and the BENCH
    /// `slo` section is measured against. The file is compiled in, so
    /// it is the only place the thresholds are written;
    /// `tests/obs_invariants.rs` parses the same file from disk and
    /// fails on one that does not parse, which is what keeps the
    /// fallback below unreachable.
    pub fn serve_steady() -> Self {
        Self::parse(include_str!("../../../slo/serve_steady.slo")).unwrap_or_default()
    }

    /// Parse rules from `key = value` lines (`#` comments and blank
    /// lines skipped). Unknown keys and malformed values are errors —
    /// a typo in an SLO file must not silently disable a gate.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut rules = Self::default();
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("slo: line {}: expected `key = value`", idx + 1));
            };
            let (key, value) = (key.trim(), value.trim());
            let bad = |what: &str| format!("slo: line {}: bad {what} `{value}`", idx + 1);
            match key {
                "p99_l_budget" => {
                    rules.p99_l_budget = Some(value.parse().map_err(|_| bad("integer"))?);
                }
                "hit_rate_floor" => {
                    rules.hit_rate_floor = Some(parse_fraction(value).ok_or_else(|| bad("rate"))?);
                }
                "bound_ratio_ceiling" => {
                    rules.bound_ratio_ceiling =
                        Some(parse_ratio(value).ok_or_else(|| bad("ratio"))?);
                }
                "recovery_overhead_cap" => {
                    rules.recovery_overhead_cap =
                        Some(parse_ratio(value).ok_or_else(|| bad("ratio"))?);
                }
                "fast_burn_windows" => {
                    let n: usize = value.parse().map_err(|_| bad("integer"))?;
                    if n == 0 {
                        return Err(bad("integer (must be >= 1)"));
                    }
                    rules.fast_burn_windows = n;
                }
                "slow_burn_fraction" => {
                    rules.slow_burn_fraction = parse_fraction(value).ok_or_else(|| bad("rate"))?;
                }
                _ => return Err(format!("slo: line {}: unknown rule `{key}`", idx + 1)),
            }
        }
        Ok(rules)
    }

    /// Render rules back to the parseable `key = value` form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if let Some(v) = self.p99_l_budget {
            let _ = writeln!(out, "p99_l_budget = {v}");
        }
        if let Some(v) = self.hit_rate_floor {
            let _ = writeln!(out, "hit_rate_floor = {v:.4}");
        }
        if let Some(v) = self.bound_ratio_ceiling {
            let _ = writeln!(out, "bound_ratio_ceiling = {v:.4}");
        }
        if let Some(v) = self.recovery_overhead_cap {
            let _ = writeln!(out, "recovery_overhead_cap = {v:.4}");
        }
        let _ = writeln!(out, "fast_burn_windows = {}", self.fast_burn_windows);
        let _ = writeln!(out, "slow_burn_fraction = {:.4}", self.slow_burn_fraction);
        out
    }
}

fn parse_ratio(value: &str) -> Option<f64> {
    let v: f64 = value.parse().ok()?;
    (v.is_finite() && v >= 0.0).then_some(v)
}

fn parse_fraction(value: &str) -> Option<f64> {
    parse_ratio(value).filter(|v| *v <= 1.0)
}

/// Why an alert fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AlertKind {
    /// `len` consecutive windows burned, starting at window `start`.
    FastBurn {
        /// First window of the episode.
        start: usize,
        /// Length of the episode in windows.
        len: usize,
    },
    /// `burned` of `eligible` windows burned across the run.
    SlowBurn {
        /// Burning windows over the whole run.
        burned: usize,
        /// Windows that carried the rule's signal.
        eligible: usize,
    },
}

/// One burn-rate alert.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SloAlert {
    /// The rule that alerted.
    pub rule: &'static str,
    /// What kind of burn raised it.
    pub kind: AlertKind,
}

/// How one rule fared across the series.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleOutcome {
    /// Rule name (the `key` in the rules file).
    pub rule: &'static str,
    /// Rendered threshold.
    pub threshold: String,
    /// Indices of burning windows.
    pub burned: Vec<usize>,
    /// Windows that carried the rule's signal.
    pub eligible: usize,
    /// Alerts this rule raised.
    pub alerts: Vec<SloAlert>,
}

/// The typed result of evaluating rules against a series.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// One outcome per enabled rule, in declaration order.
    pub outcomes: Vec<RuleOutcome>,
    /// Windows in the evaluated series.
    pub windows: usize,
}

impl SloReport {
    /// All alerts across rules.
    pub fn alerts(&self) -> Vec<&SloAlert> {
        self.outcomes.iter().flat_map(|o| o.alerts.iter()).collect()
    }

    /// Whether no rule alerted.
    pub fn pass(&self) -> bool {
        self.outcomes.iter().all(|o| o.alerts.is_empty())
    }

    /// CI entry point: `Err` describing every alert when any rule
    /// burned through its budget.
    pub fn gate(&self) -> Result<(), String> {
        if self.pass() {
            return Ok(());
        }
        let mut msg = String::from("slo: burn-rate gate failed:");
        for a in self.alerts() {
            match &a.kind {
                AlertKind::FastBurn { start, len } => {
                    let _ = write!(
                        msg,
                        "\n  {}: fast burn, {len} consecutive windows from window {start}",
                        a.rule
                    );
                }
                AlertKind::SlowBurn { burned, eligible } => {
                    let _ = write!(
                        msg,
                        "\n  {}: slow burn, {burned}/{eligible} windows over budget",
                        a.rule
                    );
                }
            }
        }
        Err(msg)
    }

    /// Human-readable summary (one line per rule plus a verdict).
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "slo: {} windows", self.windows);
        for o in &self.outcomes {
            let _ = writeln!(
                out,
                "  {:<22} {:<12} burned={}/{} alerts={}",
                o.rule,
                o.threshold,
                o.burned.len(),
                o.eligible,
                o.alerts.len(),
            );
        }
        let _ = writeln!(
            out,
            "verdict: {}",
            if self.pass() { "PASS" } else { "BURN" }
        );
        out
    }
}

impl SloRules {
    /// Evaluate these rules against a series.
    ///
    /// (A method rather than a free `evaluate` so the name cannot be
    /// confused with the query oracle's `evaluate` — by readers or by
    /// the lint call-graph's name-scoped resolution.)
    pub fn evaluate(&self, series: &SeriesReport) -> SloReport {
        let mut outcomes = Vec::new();
        if let Some(budget) = self.p99_l_budget {
            outcomes.push(run_rule(
                self,
                series,
                "p99_l_budget",
                format!("<= {budget}"),
                |w| (w.served > 0).then(|| w.l_percentile(99) > budget),
            ));
        }
        if let Some(floor) = self.hit_rate_floor {
            outcomes.push(run_rule(
                self,
                series,
                "hit_rate_floor",
                format!(">= {floor:.4}"),
                |w| (w.hits + w.misses > 0).then(|| w.hit_rate() < floor),
            ));
        }
        if let Some(ceiling) = self.bound_ratio_ceiling {
            outcomes.push(run_rule(
                self,
                series,
                "bound_ratio_ceiling",
                format!("<= {ceiling:.4}"),
                |w| (w.served > 0).then(|| w.bound_ratio() > ceiling),
            ));
        }
        if let Some(cap) = self.recovery_overhead_cap {
            outcomes.push(run_rule(
                self,
                series,
                "recovery_overhead_cap",
                format!("<= {cap:.4}"),
                |w| (w.served > 0).then(|| w.recovery_overhead() > cap),
            ));
        }
        SloReport {
            outcomes,
            windows: series.windows.len(),
        }
    }
}

/// Evaluate one rule: `check` returns `None` for ineligible windows
/// (no signal — they break fast-burn streaks without burning),
/// `Some(true)` for a burn.
fn run_rule(
    rules: &SloRules,
    series: &SeriesReport,
    name: &'static str,
    threshold: String,
    check: impl Fn(&WindowStats) -> Option<bool>,
) -> RuleOutcome {
    let mut burned = Vec::new();
    let mut eligible = 0usize;
    let mut alerts = Vec::new();
    let mut streak = 0usize;
    let mut streak_start = 0usize;
    let mut fast: Option<(usize, usize)> = None;
    for w in &series.windows {
        match check(w) {
            None => streak = 0,
            Some(false) => {
                eligible += 1;
                streak = 0;
            }
            Some(true) => {
                eligible += 1;
                if streak == 0 {
                    streak_start = w.index;
                }
                streak += 1;
                burned.push(w.index);
                if streak >= rules.fast_burn_windows {
                    // Keep the longest episode; extend in place.
                    fast = Some(match fast {
                        Some((start, len)) if start == streak_start => (start, len.max(streak)),
                        Some((start, len)) if len >= streak => (start, len),
                        _ => (streak_start, streak),
                    });
                }
            }
        }
    }
    if let Some((start, len)) = fast {
        alerts.push(SloAlert {
            rule: name,
            kind: AlertKind::FastBurn { start, len },
        });
    }
    if eligible > 0 && burned.len() as f64 > rules.slow_burn_fraction * eligible as f64 {
        alerts.push(SloAlert {
            rule: name,
            kind: AlertKind::SlowBurn {
                burned: burned.len(),
                eligible,
            },
        });
    }
    RuleOutcome {
        rule: name,
        threshold,
        burned,
        eligible,
        alerts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::QueryRecord;
    use crate::series::ObsConfig;

    /// One-tick windows over `records`, two servers wide.
    fn one_tick_windows(records: &[QueryRecord]) -> SeriesReport {
        let shape = ObsConfig {
            window_ticks: 1,
            ticks: records.len() as u64,
            servers: 2,
        };
        SeriesReport::fold(shape, records)
    }

    /// A series of one query per tick with the given loads; hit flags
    /// alternate by `hit_every`.
    fn series(loads: &[u64], hit_every: usize) -> SeriesReport {
        let records: Vec<QueryRecord> = loads
            .iter()
            .enumerate()
            .map(|(tick, &l)| {
                let hit = hit_every > 0 && tick % hit_every == 0;
                QueryRecord::synthetic(tick as u64, l, if hit { "hit" } else { "miss" })
            })
            .collect();
        one_tick_windows(&records)
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let rules = SloRules::serve_steady();
        let parsed = SloRules::parse(&rules.render()).expect("render must parse");
        assert_eq!(parsed, rules);
        let commented = "# steady objectives\np99_l_budget = 10\n\nhit_rate_floor = 0.5\n";
        let r = SloRules::parse(commented).expect("valid");
        assert_eq!(r.p99_l_budget, Some(10));
        assert_eq!(r.hit_rate_floor, Some(0.5));
        for bad in [
            "p99_l_budget = soon",
            "hit_rate_floor = 1.5",
            "bound_ratio_ceiling = -1",
            "fast_burn_windows = 0",
            "latency_budget = 9",
            "no equals sign",
        ] {
            assert!(SloRules::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn single_burning_window_does_not_alert() {
        // One p99 spike among healthy windows: burn recorded, no alert.
        let s = series(&[10, 10, 500, 10, 10, 10], 2);
        let rules = SloRules {
            p99_l_budget: Some(100),
            ..SloRules::default()
        };
        let report = rules.evaluate(&s);
        assert_eq!(report.outcomes[0].burned, vec![2]);
        assert!(report.pass(), "{report:?}");
        report.gate().expect("no alert, gate must pass");
    }

    #[test]
    fn consecutive_burns_raise_fast_burn() {
        let s = series(&[10, 500, 600, 700, 10, 10], 2);
        let rules = SloRules {
            p99_l_budget: Some(100),
            ..SloRules::default()
        };
        let report = rules.evaluate(&s);
        assert!(!report.pass());
        let alerts = report.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(
            alerts[0].kind,
            AlertKind::FastBurn { start: 1, len: 3 },
            "{report:?}"
        );
        assert!(report.gate().expect_err("must fail").contains("fast burn"));
    }

    #[test]
    fn chronic_burns_raise_slow_burn() {
        // Burn every other window: never 2 consecutive, but 3/6 > 0.4.
        let s = series(&[500, 10, 500, 10, 500, 10], 2);
        let rules = SloRules {
            p99_l_budget: Some(100),
            slow_burn_fraction: 0.4,
            ..SloRules::default()
        };
        let report = rules.evaluate(&s);
        let alerts = report.alerts();
        assert_eq!(alerts.len(), 1);
        assert_eq!(
            alerts[0].kind,
            AlertKind::SlowBurn {
                burned: 3,
                eligible: 6
            }
        );
    }

    #[test]
    fn hit_rate_floor_ignores_lookupless_windows() {
        // Only tick 1 sees a (missing) lookup; ticks 0/2 are cache-off.
        let records: Vec<QueryRecord> = (0..3u64)
            .map(|tick| QueryRecord::synthetic(tick, 1, if tick == 1 { "miss" } else { "off" }))
            .collect();
        let rules = SloRules {
            hit_rate_floor: Some(0.9),
            slow_burn_fraction: 1.0,
            ..SloRules::default()
        };
        let report = rules.evaluate(&one_tick_windows(&records));
        assert_eq!(report.outcomes[0].eligible, 1);
        assert_eq!(report.outcomes[0].burned, vec![1]);
        assert!(
            report.pass(),
            "a lone burn cannot fast-burn, and 1/1 is not > 1.0: {report:?}"
        );
    }

    #[test]
    fn slow_burn_counts_only_eligible_windows() {
        // All three windows eligible and burning → slow burn at 0.5.
        let s = series(&[500, 500, 10], 0);
        let rules = SloRules {
            p99_l_budget: Some(100),
            fast_burn_windows: 5,
            slow_burn_fraction: 0.5,
            ..SloRules::default()
        };
        let report = rules.evaluate(&s);
        assert_eq!(
            report.alerts()[0].kind,
            AlertKind::SlowBurn {
                burned: 2,
                eligible: 3
            }
        );
    }

    #[test]
    fn recovery_overhead_rule_reads_excess_rounds() {
        let mut records = [
            QueryRecord::synthetic(0, 1, "off"),
            QueryRecord::synthetic(1, 1, "off"),
        ];
        records[1].rounds = 6;
        let rules = SloRules {
            recovery_overhead_cap: Some(1.0),
            fast_burn_windows: 1,
            ..SloRules::default()
        };
        let report = rules.evaluate(&one_tick_windows(&records));
        // Window 1: expected 2, got 6 → overhead 2.0 > 1.0 → burn, and
        // fast_burn_windows=1 promotes it to an alert.
        assert_eq!(report.outcomes[0].burned, vec![1]);
        assert!(!report.pass());
    }

    #[test]
    fn table_is_deterministic_and_labelled() {
        let s = series(&[10, 10], 2);
        let report = SloRules::serve_steady().evaluate(&s);
        let t = report.table();
        assert_eq!(t, SloRules::serve_steady().evaluate(&s).table());
        assert!(t.contains("p99_l_budget"));
        assert!(t.contains("verdict:"));
    }
}
