//! The three local kernels on their own, so a slower `perf` row can be
//! told apart from a slower kernel without the full run. Nothing gates
//! these numbers; each is the fastest of [`RUNS`] calls.
//!
//! * `join_kernel/*` — what every server does after the shuffle, minus
//!   the query: index `n` rows, then probe with `n` rows at about one
//!   match each, and (`probe_miss`) with `n` keys the build side does
//!   not hold — the closing atom of a triangle, where almost every probe
//!   misses. The last rows are the serve shape — a small resident build
//!   side probed by many tiny batches — indexed per batch and indexed
//!   once. `probe_write/*` is the probe's output side: 64 local joins
//!   of 1,250 × 1,250 rows (`join_uniform`'s servers), merged rows
//!   staged in a scratch row and pushed (`staged`, the loop
//!   `probe_rows` ran before), written straight into the output
//!   (`direct`, what `hash_join_rows` runs), or never written: each
//!   match counted and its merged row's digest term hashed from the
//!   two halves (`digest`, what a served query's servers run).
//! * `join_kernel/route/*` — one hash round's routing at p = 64 over
//!   two-column rows, from the input to the delivered buffers: the
//!   input cut into round-robin fragments by `scatter` and each
//!   fragment counted, reserved and sent row by row (`scatter`), or
//!   placed straight from the input by `hash_partition` (`placed`);
//!   and `join_kernel/route/hypercube/*`, `triangle_planned`'s shuffle
//!   (its graph, seed 42, in all three atoms on the 4 × 4 × 4 grid):
//!   the count, reserve and send loop over scattered fragments
//!   (`scatter`), or one `route_input` round per atom (`placed`).
//! * `multiway/triangle_64_fragments` — HyperCube's local phase in
//!   `triangle_planned`: `evaluate` over each of the 64 servers' atom
//!   fragments (seed 42, shares 4 × 4 × 4), placed as the shuffle
//!   places them. `multiway/cycle4_*`, `zipf_triangle_*` and
//!   `agm_triangle_*` are the same local phase on a 4-cycle, on a
//!   triangle over 40 Zipf values, and on an AGM-tight triangle (every
//!   atom a full grid). Each `multiway/*_count` row is the same walk
//!   into a counting sink (`evaluate_each`), with no output relation.
//! * `local_sort/*` — one PSRS server's share of `sort_psrs` (1 M keys
//!   over 64 servers) ordered by `sort_by_key` (what `psrs_by` runs),
//!   by `sort_unstable`, and by the radix kernel `sort_words` (what
//!   `psrs` runs).
//! * `matmul_kernel/*` — the 64 block products of `matmul_parallel`
//!   (`square_block` at n = 216, h = 4: 54 × 54 blocks) through
//!   `gemm_acc`, on blocks copied into buffers of their own and on
//!   views of the 216 × 216 matrices (what `square_block` runs; the
//!   difference is what a row stride of 216 costs the kernel), and
//!   `Matrix::multiply` at n = 216, the same flops as one product.
//! * `zipf/sample/<n>x<α>` — the draws of one skewed serve base
//!   (zipf-heavy: 2400 over 800 values at α = 1.2; zipf-light: 3000
//!   over 1500 at 0.8) from a sampler built once, and
//!   `serve/base/<template>` — `base_relation` whole, sampler build and
//!   draws included: what every `serve_churn` miss generates.
//! * `digest/*` — `digest_relation` over uniform relations of the
//!   shapes it digests: one served query's answer (145 × 3), the
//!   `join_*` oracle (80 k × 3) and the `chain_gym_planned` oracle
//!   (239 k × 4).
//!
//! ```text
//! cargo bench -p parqp-bench --bench kernels
//! ```

use parqp::data::paged::RouteScan;
use parqp::data::zipf::Zipf;
use parqp::data::{generate, KeyIndex, KeyTable, Relation};
use parqp::join::common::{
    hash_join_rows, hash_partition, joined_arity, probe_digest, route_input, scatter,
};
use parqp::lp::plan_shares;
use parqp::matmul::{gemm_acc, Matrix, View};
use parqp::mpc::{Cluster, FanOut, Grid, HashFamily, RowExchange};
use parqp::query::{evaluate, evaluate_each, Query};
use parqp::serve::report::digest_relation;
use parqp::serve::templates::{base_relation, TEMPLATES};
use parqp::sort::sort_words;
use parqp_testkit::bench::time_ns;
use parqp_testkit::Rng;
use std::borrow::Borrow;
use std::hint::black_box;

const RUNS: usize = 30;

/// Fastest of [`RUNS`] calls of `f` after one untimed warm-up, in µs.
fn best_us<O>(mut f: impl FnMut() -> O) -> f64 {
    black_box(f());
    let best = (0..RUNS)
        .map(|_| {
            let start = time_ns();
            black_box(f());
            time_ns().saturating_sub(start)
        })
        .min()
        .unwrap_or(0);
    best as f64 / 1e3
}

/// The serve shape's join column, on both sides.
const KEY: &[usize] = &[0];

/// Matches of `batch`'s rows in `index`, both keyed on [`KEY`].
fn matches<T: Borrow<KeyTable>>(index: &KeyIndex<'_, Relation, T>, batch: &Relation) -> usize {
    batch.iter().map(|row| index.probe(row, KEY).count()).sum()
}

/// One `local_sort/*` row: every part of `parts` cloned and sorted by
/// `sort`. The clone is on the clock for every sort alike. So is the
/// allocator: `sort_words` frees a scratch vector of the part's length
/// every call, and when that block is the top of the heap glibc trims
/// it and the next call page-faults it back (≈ 30 faults, +35 µs at
/// 15,625 keys) — a row can move by that much with no change to the
/// kernel.
fn local_sort_row(shape: &str, name: &str, parts: &[Vec<u64>], sort: impl Fn(&mut Vec<u64>)) {
    let us = best_us(|| {
        parts
            .iter()
            .filter_map(|part| {
                let mut keys = part.clone();
                sort(&mut keys);
                keys.last().copied()
            })
            .fold(0, u64::wrapping_add)
    });
    let row = format!("local_sort/{shape}/{name}");
    println!("{row:<40} {us:>10.1} µs");
}

/// The three ways a server can order its words, on one shape.
fn local_sort_rows(shape: &str, parts: &[Vec<u64>]) {
    local_sort_row(shape, "sort_by_key", parts, |keys| keys.sort_by_key(|&k| k));
    local_sort_row(shape, "sort_unstable", parts, |keys| keys.sort_unstable());
    local_sort_row(shape, "sort_words", parts, sort_words);
}

/// `sort_psrs` keys per server: 1 M over p = 64.
const PART: usize = 15_625;

fn local_sort() {
    let words = |domain: u64, seed: u64| generate::uniform(1, PART, domain, seed).raw().to_vec();
    // Phase 1 of `sort_psrs`: uniform keys below 2³² (4 of 8 passes run).
    let narrow = words(1 << 32, 61);
    local_sort_rows("below_2e32", std::slice::from_ref(&narrow));
    // Phase 2: what a server receives — one sorted run per sender, all
    // inside its splitter interval (a 64th of the range), so the top
    // live byte takes four values and its pass is the slow kind.
    let mut inbox: Vec<u64> = words(1 << 26, 63).iter().map(|k| (37 << 26) + k).collect();
    for run in inbox.chunks_mut(PART.div_ceil(64)) {
        run.sort_unstable();
    }
    local_sort_rows("inbox_64_runs", &[inbox]);
    // The kernel's worst case: every byte differs, all 8 passes run.
    local_sort_rows("full_width", &[words(u64::MAX, 62)]);
    // The same keys in parts of the length at which `sort_words` stops
    // being `sort_unstable` (`radix::SMALL`): radix passes must not lose
    // to it here, and below this length they do.
    let parts: Vec<Vec<u64>> = narrow.chunks(1024).map(<[u64]>::to_vec).collect();
    local_sort_rows("parts_of_1024", &parts);
}

/// `matmul_parallel`'s blocking: h = 4 blocks of side 54.
const H: usize = 4;
const NB: usize = 54;

/// All `H³` block products `C_ik += A_ij · B_jk`, operands from `a_of`
/// and `b_of`, into zeroed accumulators allocated on the clock.
fn block_products<'a>(
    a_of: impl Fn(usize, usize) -> View<'a>,
    b_of: impl Fn(usize, usize) -> View<'a>,
) -> f64 {
    let mut c = vec![0.0; H * H * NB * NB];
    for (at, acc) in c.chunks_exact_mut(NB * NB).enumerate() {
        let (i, k) = (at / H, at % H);
        for j in 0..H {
            gemm_acc(acc, NB, a_of(i, j), b_of(j, k));
        }
    }
    c.iter().sum()
}

/// Block `(bi, bj)` of `m`, read where it lies (row stride 216).
fn in_place(m: &Matrix, bi: usize, bj: usize) -> View<'_> {
    m.block(bi * NB, bj * NB, NB, NB)
}

/// Every block of `m` copied into a matrix of its own, block-row-major.
fn copied_blocks(m: &Matrix) -> Vec<Matrix> {
    (0..H * H)
        .map(|at| {
            let rows = (0..NB).map(|r| m.row(at / H * NB + r));
            let block = rows.flat_map(|row| &row[at % H * NB..][..NB]);
            Matrix::from_data(NB, NB, block.copied().collect())
        })
        .collect()
}

fn matmul_kernel() {
    let a = Matrix::random(H * NB, 71);
    let b = Matrix::random(H * NB, 72);
    let (ac, bc) = (copied_blocks(&a), copied_blocks(&b));
    let contiguous =
        best_us(|| block_products(|i, j| ac[i * H + j].view(), |j, k| bc[j * H + k].view()));
    let strided = best_us(|| block_products(|i, j| in_place(&a, i, j), |j, k| in_place(&b, j, k)));
    let multiply = best_us(|| a.multiply(&b));
    println!("matmul_kernel/64x54x54/contiguous    {contiguous:>10.1} µs");
    println!("matmul_kernel/64x54x54/strided_views {strided:>10.1} µs");
    println!("matmul_kernel/multiply_216           {multiply:>10.1} µs");
}

/// HyperCube's per-server inputs for `rels` at p = 64: every row on each
/// server of the grid at the LP shares that its variables' hashes pick,
/// in the order the shuffle delivers them.
fn fragments(query: &Query, rels: &[Relation], seed: u64) -> Vec<Vec<Relation>> {
    let sizes: Vec<u64> = rels.iter().map(|rel| rel.len() as u64).collect();
    let grid = Grid::new(plan_shares(&query.hypergraph(), &sizes, 64).shares);
    let h = HashFamily::new(seed, query.num_vars());
    let empty: Vec<Relation> = rels.iter().map(|rel| Relation::new(rel.arity())).collect();
    let mut inboxes = vec![empty; grid.len()];
    for (j, (atom, rel)) in query.atoms().iter().zip(rels).enumerate() {
        let fan = grid.fan_out(|v| atom.vars.contains(&v));
        for row in scatter(rel, grid.len()).iter().flat_map(Relation::iter) {
            let base: usize = atom
                .vars
                .iter()
                .zip(row)
                .map(|(&v, &value)| h.hash(v, value, grid.dims()[v]) * fan.strides()[v])
                .sum();
            for dest in fan.ranks(base) {
                inboxes[dest][j].push(row);
            }
        }
    }
    inboxes
}

/// One `multiway/*` row: `evaluate` over every server's fragments, and
/// beside it `multiway/*_count`, the same walk into a counting sink.
fn multiway_row(name: &str, query: &Query, rels: &[Relation], seed: u64) {
    let fragments = fragments(query, rels, seed);
    let mut rows = 0;
    let us = best_us(|| {
        rows = fragments
            .iter()
            .map(|inbox| evaluate(query, inbox).len())
            .sum::<usize>();
        rows
    });
    println!("multiway/{name:<27} {us:>10.1} µs  ({rows} rows)");
    let mut counted = 0;
    let count_us = best_us(|| {
        counted = 0;
        for inbox in &fragments {
            evaluate_each(query, inbox, |_| counted += 1);
        }
        counted
    });
    assert_eq!(counted, rows, "{name}: the count is the rows written");
    let name = format!("{name}_count");
    println!("multiway/{name:<27} {count_us:>10.1} µs  ({counted} rows)");
}

fn multiway() {
    let triangle = Query::triangle();
    // `triangle_planned`'s graph (seed 42) in all three atoms; its shares
    // are 4 × 4 × 4.
    let g = generate::random_symmetric_graph(1500, 20_000, 42);
    let rels = [g.clone(), g.clone(), g];
    multiway_row("triangle_64_fragments", &triangle, &rels, 42);
    // A sparser graph in all four atoms.
    let g = generate::random_symmetric_graph(1000, 8000, 42);
    multiway_row("cycle4_64_fragments", &Query::cycle(4), &vec![g; 4], 42);
    // The Zipf row of the ROADMAP's triangle table: 40 values, so most
    // rows have duplicates and every value is a hub.
    let zipf: Vec<Relation> = (0..3)
        .map(|i| generate::zipf_pairs(1500, 40, 1.1, 0, 7 + i))
        .collect();
    multiway_row("zipf_triangle_64_fragments", &triangle, &zipf, 42);
    // AGM-tight: each atom the full 80 × 80 grid, so OUT = 80³ = N^{3/2}
    // and every 2-path closes.
    let k = 80;
    let full = Relation::from_rows(2, (0..k * k).map(|i| [i / k, i % k]));
    let rels = [full.clone(), full.clone(), full];
    multiway_row("agm_triangle_64_fragments", &triangle, &rels, 42);
}

fn zipf_and_serve_bases() {
    for (n, alpha, draws) in [(800usize, 1.2, 2400), (1500, 0.8, 3000)] {
        let z = Zipf::new(n, alpha);
        let mut rng = Rng::seed_from_u64(61);
        let us = best_us(|| (0..draws).map(|_| z.sample(&mut rng)).sum::<u64>());
        let shape = format!("{n}x{alpha}");
        println!("zipf/sample/{shape:<23} {us:>10.1} µs");
    }
    for (template, spec) in TEMPLATES.iter().enumerate() {
        let us = best_us(|| base_relation(template, 1, 42));
        println!("serve/base/{:<24} {us:>10.1} µs", spec.name);
    }
}

fn digest() {
    for (name, arity, rows) in [
        ("query_145x3", 3, 145),
        ("join_80kx3", 3, 80_000),
        ("chain_239kx4", 4, 239_000),
    ] {
        let rel = generate::uniform(arity, rows, 1 << 20, 71);
        let us = best_us(|| digest_relation(&rel));
        println!("digest/{name:<28} {us:>10.1} µs");
    }
}

/// The hash round before `hash_partition` placed rows: cut `rel` into
/// round-robin fragments, count each destination's rows, reserve them
/// exactly, then send every row as its fragment is scanned.
fn scatter_and_route(ex: &mut RowExchange<'_>, rel: &Relation, h: &HashFamily) {
    let p = ex.p();
    let frags = scatter(rel, p);
    let mut dests = Vec::with_capacity(rel.len());
    let mut counts = vec![0; p];
    for frag in &frags {
        for &key in frag.raw().iter().step_by(frag.arity()) {
            let d = h.hash(0, key, p);
            counts[d] += 1;
            dests.push(d);
        }
    }
    for (dest, &rows) in counts.iter().enumerate() {
        ex.reserve(0, dest, rows);
    }
    let mut dests = dests.iter();
    for (sid, frag) in frags.iter().enumerate() {
        ex.set_sender(sid);
        for (row, &d) in RouteScan::new(sid, frag).iter().zip(&mut dests) {
            ex.send_row(0, d, row);
        }
    }
}

/// The HyperCube shuffle before `route_input` placed rows: per atom,
/// cut the input into round-robin fragments over the grid, hash every
/// row's base once and count rows per base, spread the counts over the
/// atom's fan-out to reserve each destination exactly, then send every
/// row to its base plus each offset as its fragment is scanned.
fn scatter_and_fan_out(ex: &mut RowExchange<'_>, query: &Query, rels: &[Relation], grid: &Grid) {
    let h = HashFamily::new(42, query.num_vars());
    let on_grid = grid.len();
    for (j, (atom, rel)) in query.atoms().iter().zip(rels).enumerate() {
        let fan = grid.fan_out(|v| atom.vars.contains(&v));
        let parts = scatter(rel, on_grid);
        let mut bases: Vec<u32> = Vec::with_capacity(rel.len());
        let mut rows_at = vec![0usize; on_grid];
        for row in parts.iter().flat_map(Relation::iter) {
            let base = fan_base(&h, grid, &fan, &atom.vars, row);
            rows_at[base] += 1;
            bases.push(base as u32);
        }
        let mut per_dest = vec![0usize; on_grid];
        for (base, &n) in rows_at.iter().enumerate().filter(|(_, &n)| n > 0) {
            for dest in fan.ranks(base) {
                per_dest[dest] += n;
            }
        }
        for (dest, &rows) in per_dest.iter().enumerate() {
            ex.reserve(j, dest, rows);
        }
        ex.note_grid(grid);
        let mut bases = bases.iter();
        for (sid, part) in parts.iter().enumerate() {
            ex.set_sender(sid);
            for (row, &base) in RouteScan::new(sid, part).iter().zip(&mut bases) {
                for dest in fan.ranks(base as usize) {
                    ex.send_row(j, dest, row);
                }
            }
        }
    }
}

/// The same shuffle through `route_input`, one call per atom.
fn placed_fan_out(ex: &mut RowExchange<'_>, query: &Query, rels: &[Relation], grid: &Grid) {
    let h = HashFamily::new(42, query.num_vars());
    for (j, (atom, rel)) in query.atoms().iter().zip(rels).enumerate() {
        let fan = grid.fan_out(|v| atom.vars.contains(&v));
        ex.note_grid(grid);
        route_input(ex, j, rel, grid.len(), fan.offsets(), |_, row| {
            fan_base(&h, grid, &fan, &atom.vars, row)
        });
    }
}

/// The grid rank a row of an atom over `vars` fixes.
fn fan_base(h: &HashFamily, grid: &Grid, fan: &FanOut, vars: &[usize], row: &[u64]) -> usize {
    row.iter()
        .zip(vars)
        .map(|(&value, &v)| h.hash(v, value, grid.dims()[v]) * fan.strides()[v])
        .sum()
}

/// `join_kernel/route/*`: one stream of two-column rows hashed on its
/// first column to p = 64, both ways, at three input sizes; then
/// `triangle_planned`'s shuffle, both ways.
fn route() {
    let h = HashFamily::new(42, 1);
    for (n, shape) in [(40_000, "40k"), (200_000, "200k"), (2_000_000, "2M")] {
        let rel = generate::uniform(2, n, n as u64, 57);
        let round = |route: &dyn Fn(&mut RowExchange<'_>)| {
            let mut cluster = Cluster::new(64);
            let mut ex = cluster.exchange_rows(&[2]);
            route(&mut ex);
            ex.finish()
        };
        let scattered = best_us(|| round(&|ex| scatter_and_route(ex, &rel, &h)));
        println!("join_kernel/route/scatter/{shape:<10} {scattered:>10.1} µs");
        let placed = best_us(|| round(&|ex| hash_partition(ex, 0, &rel, 0, &h)));
        println!("join_kernel/route/placed/{shape:<11} {placed:>10.1} µs");
    }
    let query = Query::triangle();
    let g = generate::random_symmetric_graph(1500, 20_000, 42);
    let rels = vec![g.clone(), g.clone(), g];
    let grid = Grid::new(vec![4, 4, 4]);
    let shuffle = |route: fn(&mut RowExchange<'_>, &Query, &[Relation], &Grid)| {
        let mut cluster = Cluster::new(grid.len());
        let mut ex = cluster.exchange_rows(&[2, 2, 2]);
        route(&mut ex, &query, &rels, &grid);
        ex.finish()
    };
    let scattered = best_us(|| shuffle(scatter_and_fan_out));
    println!("join_kernel/route/hypercube/scatter {scattered:>10.1} µs");
    let placed = best_us(|| shuffle(placed_fan_out));
    println!("join_kernel/route/hypercube/placed  {placed:>10.1} µs");
}

/// `join_kernel/probe_write/*`: 64 local joins of 1,250 × 1,250
/// two-column rows at about one match a probe, merged rows staged and
/// pushed, or written in place.
fn probe_write() {
    let pairs: Vec<(Relation, Relation)> = (0..64)
        .map(|i| {
            let r = generate::uniform(2, 1250, 1250, 80 + i);
            let s = generate::uniform(2, 1250, 1250, 180 + i);
            (r, s)
        })
        .collect();
    let arity = joined_arity(2, 2);
    let staged = best_us(|| {
        let mut row = Vec::with_capacity(arity);
        pairs
            .iter()
            .map(|(r, s)| {
                let index = KeyIndex::build(r, &[1]);
                let mut out = Relation::new(arity);
                for s_row in s.iter() {
                    for i in index.probe(s_row, KEY) {
                        row.clear();
                        row.extend_from_slice(r.row(i));
                        for (c, &v) in s_row.iter().enumerate() {
                            if c != 0 {
                                row.push(v);
                            }
                        }
                        out.push(&row);
                    }
                }
                out.len()
            })
            .sum::<usize>()
    });
    println!("join_kernel/probe_write/staged      {staged:>10.1} µs");
    let direct = best_us(|| {
        pairs
            .iter()
            .map(|(r, s)| {
                let mut out = Relation::new(arity);
                hash_join_rows(r, 1, s, 0, &mut out);
                out.len()
            })
            .sum::<usize>()
    });
    println!("join_kernel/probe_write/direct      {direct:>10.1} µs");
    let digest = best_us(|| {
        pairs
            .iter()
            .map(|(r, s)| probe_digest(&KeyIndex::build(r, &[1]), s, 0))
            .fold((0, 0u64), |(n, d), (rows, digest)| {
                (n + rows, d.wrapping_add(digest))
            })
    });
    println!("join_kernel/probe_write/digest      {digest:>10.1} µs");
}

fn main() {
    for n in [1_000usize, 100_000] {
        // Keys in [0, n) built, keys in [n, 2n) probed: every probe misses.
        let build = generate::uniform(2, n, n as u64, 55);
        let index = KeyIndex::build(&build, KEY);
        let misses: Vec<[u64; 2]> = generate::uniform(2, n, n as u64, 56)
            .iter()
            .map(|row| [row[0] + n as u64, row[1]])
            .collect();
        let miss_us = best_us(|| {
            misses
                .iter()
                .map(|row| index.probe(row, KEY).count())
                .sum::<usize>()
        });
        let shape = format!("{n}rows");
        println!("join_kernel/probe_miss/{shape:<11} {miss_us:>10.1} µs");
    }
    for n in [1_000usize, 100_000] {
        for cols in [&[0usize][..], &[0, 1]] {
            // As many distinct keys as rows, whatever the key width.
            let domain = (n as f64).powf(1.0 / cols.len() as f64).ceil() as u64;
            let build = generate::uniform(2, n, domain, 51);
            let probe = generate::uniform(2, n, domain, 52);
            let shape = format!("{n}rows_{}col", cols.len());
            let build_us = best_us(|| KeyIndex::build(&build, cols));
            println!("join_kernel/build/{shape:<16} {build_us:>10.1} µs");
            let index = KeyIndex::build(&build, cols);
            let probe_us = best_us(|| {
                probe
                    .iter()
                    .map(|row| index.probe(row, cols).count())
                    .sum::<usize>()
            });
            println!("join_kernel/probe/{shape:<16} {probe_us:>10.1} µs");
        }
    }

    // One server's share of a served base (500 rows), probed by the
    // 8-row batches a served query routes to it.
    let build = generate::uniform(2, 500, 250, 53);
    let batches: Vec<Relation> = (0..64)
        .map(|i| generate::uniform(2, 8, 250, 54 + i))
        .collect();
    let rebuilt_us = best_us(|| {
        batches
            .iter()
            .map(|batch| matches(&KeyIndex::build(&build, KEY), batch))
            .sum::<usize>()
    });
    println!("join_kernel/reuse/build_per_batch   {rebuilt_us:>10.1} µs");
    let table = KeyTable::build(&build, KEY);
    let reused_us = best_us(|| {
        batches
            .iter()
            .map(|batch| matches(&table.over(&build, KEY).expect("same rows"), batch))
            .sum::<usize>()
    });
    println!("join_kernel/reuse/one_key_table     {reused_us:>10.1} µs");

    probe_write();
    route();
    multiway();
    local_sort();
    matmul_kernel();
    zipf_and_serve_bases();
    digest();
}
