//! Wall-clock benches (parqp-testkit harness) for the multiway one-round experiments (E05–E10):
//! HyperCube, share planning, and SkewHC — plus the local-join kernel on
//! its own, so a slower HyperCube row can be told apart from a slower
//! `KeyIndex` without the full `perf` run.

use parqp::data::{generate, KeyIndex};
use parqp::join::{multiway, skewhc};
use parqp::prelude::*;
use parqp_testkit::bench::{BenchmarkId, Criterion};
use parqp_testkit::{criterion_group, criterion_main};
use std::hint::black_box;

fn bench_e05_triangle(c: &mut Criterion) {
    let q = Query::triangle();
    let g = generate::uniform(2, 10_000, 1 << 40, 21);
    let rels = vec![g.clone(), g.clone(), g];
    let mut grp = c.benchmark_group("e05_triangle");
    grp.sample_size(10);
    for p in [27usize, 64, 216] {
        grp.bench_with_input(BenchmarkId::new("hypercube", p), &p, |b, &p| {
            b.iter(|| black_box(multiway::hypercube(&q, &rels, p, 5)))
        });
    }
    grp.finish();
}

/// What every server does after the shuffle above, minus the query:
/// index `n` rows, then probe with `n` rows at about one match each.
fn bench_join_kernel(c: &mut Criterion) {
    let mut grp = c.benchmark_group("join_kernel");
    grp.sample_size(10);
    for n in [1_000usize, 100_000] {
        for cols in [&[0usize][..], &[0, 1]] {
            // As many distinct keys as rows, whatever the key width.
            let domain = (n as f64).powf(1.0 / cols.len() as f64).ceil() as u64;
            let build = generate::uniform(2, n, domain, 51);
            let probe = generate::uniform(2, n, domain, 52);
            let shape = format!("{n}rows_{}col", cols.len());
            grp.bench_function(BenchmarkId::new("build", &shape), |b| {
                b.iter(|| black_box(KeyIndex::build(&build, cols)))
            });
            let index = KeyIndex::build(&build, cols);
            grp.bench_function(BenchmarkId::new("probe", &shape), |b| {
                b.iter(|| {
                    let hits: usize = probe.iter().map(|row| index.probe(row, cols).count()).sum();
                    black_box(hits)
                })
            });
        }
    }
    grp.finish();
}

fn bench_e06_e07_share_planning(c: &mut Criterion) {
    let mut grp = c.benchmark_group("e06_e07_shares");
    for (name, h) in [
        ("triangle", parqp::lp::Hypergraph::triangle()),
        ("chain8", parqp::lp::Hypergraph::chain(8)),
        ("cycle6", parqp::lp::Hypergraph::cycle(6)),
    ] {
        let sizes = vec![100_000u64; h.num_edges()];
        grp.bench_function(BenchmarkId::new("plan_shares", name), |b| {
            b.iter(|| black_box(parqp::lp::plan_shares(&h, &sizes, 512)))
        });
        grp.bench_function(BenchmarkId::new("edge_packing_lp", name), |b| {
            b.iter(|| black_box(parqp::lp::fractional_edge_packing(&h)))
        });
    }
    grp.finish();
}

fn bench_e08_skewhc(c: &mut Criterion) {
    let q = Query::triangle();
    let mut g = generate::uniform(2, 8000, 1 << 40, 41);
    for i in 0..1000u64 {
        g.push(&[3, 1_000_000 + i]);
    }
    let rels = vec![g.clone(), g.clone(), g];
    let mut grp = c.benchmark_group("e08_skewhc");
    grp.sample_size(10);
    grp.bench_function("skewhc_triangle_p64", |b| {
        b.iter(|| black_box(skewhc::skewhc(&q, &rels, 64, 5)))
    });
    grp.bench_function("hypercube_triangle_p64", |b| {
        b.iter(|| black_box(multiway::hypercube(&q, &rels, 64, 5)))
    });
    grp.finish();
}

fn bench_e09_e10_residuals(c: &mut Criterion) {
    let mut grp = c.benchmark_group("e09_e10_model");
    grp.bench_function("psi_star_triangle", |b| {
        b.iter(|| black_box(parqp::query::psi_star(&Query::triangle())))
    });
    grp.bench_function("psi_star_chain6", |b| {
        b.iter(|| black_box(parqp::query::psi_star(&Query::chain(6))))
    });
    grp.bench_function("tau_star_chain20", |b| {
        b.iter(|| black_box(parqp::model::tau_star(&Query::chain(20))))
    });
    grp.finish();
}

criterion_group!(
    benches,
    bench_e05_triangle,
    bench_join_kernel,
    bench_e06_e07_share_planning,
    bench_e08_skewhc,
    bench_e09_e10_residuals
);
criterion_main!(benches);
