//! The query templates tenants draw from.
//!
//! A template is a two-way equi-join shape: a *base* relation (the big,
//! cacheable side — hash-partitioned once per `(template, group)` pair
//! and reused across queries) probed by a small per-query relation.
//! The `group` index selects which slice of the key space a query
//! touches, so two queries on the same `(template, group)` share their
//! partitioned base exactly; different groups generate disjoint seeded
//! inputs and therefore distinct cache entries.
//!
//! Base relations span the input classes the tutorial's analyses
//! distinguish: uniform (no skew), mild and heavy Zipf, graph edges,
//! and a wide-domain uniform — so a served mix exercises both the
//! skew-free `IN/p` regime and the heavy-hitter regime.

use parqp_data::zipf::Zipf;
use parqp_data::{generate, Relation};

/// One query template: the shape of its base relation and probes.
#[derive(Debug, Clone, Copy)]
pub struct Template {
    /// Stable CLI/report name.
    pub name: &'static str,
    /// Rows in the cacheable base relation.
    pub base_rows: usize,
    /// Join-key domain (values in `0..domain`, or `1..=domain` for
    /// Zipf bases).
    pub domain: u64,
    /// Zipf exponent of the base's join column; `0` means uniform.
    pub alpha: f64,
    /// Rows in each per-query probe relation.
    pub probe_rows: usize,
}

/// The template catalog. `ServeConfig::templates` takes a prefix of
/// this table, so preset streams stay stable when templates are added.
pub const TEMPLATES: &[Template] = &[
    Template {
        name: "uniform-pairs",
        base_rows: 4000,
        domain: 2000,
        alpha: 0.0,
        probe_rows: 64,
    },
    Template {
        name: "zipf-light",
        base_rows: 3000,
        domain: 1500,
        alpha: 0.8,
        probe_rows: 48,
    },
    Template {
        name: "zipf-heavy",
        base_rows: 2400,
        domain: 800,
        alpha: 1.2,
        probe_rows: 32,
    },
    Template {
        name: "graph-edges",
        base_rows: 3200,
        domain: 400,
        alpha: 0.0,
        probe_rows: 64,
    },
    Template {
        name: "wide-domain",
        base_rows: 6000,
        domain: 60_000,
        alpha: 0.0,
        probe_rows: 96,
    },
];

/// Decorrelate a `(seed, template, group, salt)` tuple into one
/// generator seed (a splitmix64 walk, so nearby inputs diverge).
fn derive_seed(seed: u64, template: usize, group: u64, salt: u64) -> u64 {
    let mut state = seed
        ^ (template as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ group.rotate_left(24)
        ^ salt.rotate_left(48);
    parqp_testkit::splitmix64(&mut state)
}

/// The base relation of `(template, group)` — the cacheable side.
/// A pure function of its arguments; column 0 is the join key.
///
/// This one-off form builds the template's Zipf table for the call; a
/// replay draws every base from its [`ZipfTables`] instead, the same
/// rows from tables built once.
///
/// # Panics
/// Panics if `template` is out of catalog range.
pub fn base_relation(template: usize, group: u64, seed: u64) -> Relation {
    ZipfTables::built_for(|t| t == template).base_relation(template, group, seed)
}

/// The Zipf tables a replay draws its skewed bases from, one per
/// template of the replay's catalog prefix whose join column is skewed
/// (`alpha > 0`), built once and owned by the replay. A uniform or
/// graph template needs no table, so none is built: `wide-domain`'s
/// would be a 60,000-entry CDF for nothing.
#[derive(Debug)]
pub struct ZipfTables {
    /// `tables[t]` is template `t`'s table: `None` if it is unskewed or
    /// was not built.
    tables: Vec<Option<Zipf>>,
}

impl ZipfTables {
    /// The tables of the first `templates` catalog entries.
    pub fn new(templates: usize) -> Self {
        Self::built_for(|t| t < templates)
    }

    /// The tables of the skewed templates `keep` selects.
    fn built_for(keep: impl Fn(usize) -> bool) -> Self {
        let table = |(t, spec): (usize, &Template)| {
            (keep(t) && spec.alpha > 0.0).then(|| Zipf::new(spec.domain as usize, spec.alpha))
        };
        Self {
            tables: TEMPLATES.iter().enumerate().map(table).collect(),
        }
    }

    /// [`base_relation`]`(template, group, seed)`, drawn from these
    /// tables: the same rows, without building a table.
    ///
    /// # Panics
    /// Panics if `template` is out of catalog range, or skewed and
    /// outside the templates these tables were built for.
    pub fn base_relation(&self, template: usize, group: u64, seed: u64) -> Relation {
        let t = &TEMPLATES[template];
        let s = derive_seed(seed, template, group, 0x0b5e);
        let zipf = self.tables.get(template).and_then(Option::as_ref);
        assert_eq!(
            zipf.is_some(),
            t.alpha > 0.0,
            "{}: no Zipf table built",
            t.name
        );
        match zipf {
            _ if t.name == "graph-edges" => generate::random_graph(t.domain, t.base_rows, s),
            Some(z) => generate::zipf_pairs_with(z, t.base_rows, 0, s),
            None => generate::uniform(2, t.base_rows, t.domain, s),
        }
    }
}

/// The per-query probe relation: small, uniform over the template's
/// key domain, unique to the query's stream `serial`. Column 0 is the
/// join key.
///
/// # Panics
/// Panics if `template` is out of catalog range.
pub fn probe_relation(template: usize, group: u64, serial: u64, seed: u64) -> Relation {
    let t = &TEMPLATES[template];
    let s = derive_seed(seed, template, group, 0x9120_0000 | serial);
    generate::uniform(2, t.probe_rows, t.domain, s)
}

/// The hash seed partitioning `(template, group)`'s base — probes of
/// the same pair must route with the *same* seed to land on their
/// partition's server.
pub fn partition_seed(template: usize, group: u64, seed: u64) -> u64 {
    derive_seed(seed, template, group, 0x4a5e)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_shapes_are_sane() {
        assert!(TEMPLATES.len() >= 3);
        for t in TEMPLATES {
            assert!(t.base_rows > 0 && t.probe_rows > 0 && t.domain > 1);
            assert!(t.alpha >= 0.0);
            assert!(t.probe_rows < t.base_rows);
        }
    }

    #[test]
    fn base_relations_deterministic_and_group_distinct() {
        for (template, spec) in TEMPLATES.iter().enumerate() {
            let a = base_relation(template, 1, 42);
            let b = base_relation(template, 1, 42);
            assert_eq!(a, b, "{}: base not deterministic", spec.name);
            let other = base_relation(template, 2, 42);
            assert_ne!(a, other, "{}: groups collide", spec.name);
            assert_eq!(a.arity(), 2);
        }
    }

    #[test]
    fn replay_tables_draw_the_one_off_bases() {
        let tables = ZipfTables::new(TEMPLATES.len());
        for (template, spec) in TEMPLATES.iter().enumerate() {
            assert_eq!(
                tables.tables[template].is_some(),
                spec.alpha > 0.0,
                "{}: a table only for a skewed template",
                spec.name
            );
            let one_off = ZipfTables::built_for(|t| t == template);
            assert_eq!(
                one_off.tables.iter().flatten().count(),
                usize::from(spec.alpha > 0.0)
            );
            for seed in [42, 7] {
                for group in 0..16 {
                    assert_eq!(
                        tables.base_relation(template, group, seed),
                        base_relation(template, group, seed),
                        "{} group {group} seed {seed}",
                        spec.name
                    );
                }
            }
        }
    }

    #[test]
    fn probes_distinct_per_serial() {
        let a = probe_relation(0, 1, 10, 42);
        let b = probe_relation(0, 1, 11, 42);
        assert_ne!(a, b);
        assert_eq!(a, probe_relation(0, 1, 10, 42));
    }

    #[test]
    fn partition_seed_is_shared_within_a_pair() {
        assert_eq!(partition_seed(1, 3, 42), partition_seed(1, 3, 42));
        assert_ne!(partition_seed(1, 3, 42), partition_seed(1, 4, 42));
        assert_ne!(partition_seed(1, 3, 42), partition_seed(2, 3, 42));
    }
}
