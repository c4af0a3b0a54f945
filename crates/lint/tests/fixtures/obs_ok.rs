//! Fixture: observation-clean code — replays an observed stream and
//! reads the resulting series; window recording stays inside
//! parqp-serve / parqp-obs.

use parqp_obs::SloRules;
use parqp_serve::{replay_observed, ServeConfig};

pub fn series_summary(cfg: &ServeConfig) -> Result<(u64, String), String> {
    let (report, series) = replay_observed(cfg, 8)?;
    let _ = report.served();
    Ok((series.p99_l_worst(), series.dashboard()))
}

pub fn slo_verdict(cfg: &ServeConfig, rules_text: &str) -> Result<bool, String> {
    let rules = SloRules::parse(rules_text)?;
    let (_, series) = replay_observed(cfg, 8)?;
    Ok(rules.evaluate(&series).pass())
}
