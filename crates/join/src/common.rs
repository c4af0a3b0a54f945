//! Shared plumbing for the join algorithms, and the round every
//! multi-round join repeats: two distributed relations (`Dist`) meet at
//! the hash of their shared variables, or on a `p₁ × p₂` grid when they
//! share none, and each server joins (`Dist::join`) or semijoins
//! (`Dist::semijoin`) what arrived. Both rounds attribute each fragment
//! to its sender and charge its page reads.

use parqp_data::paged::{is_enabled, IoCursor, PlacementScan, RouteScan};
use parqp_data::{merged_row_digest, KeyIndex, KeyTable, Relation, Rows, Value};
use parqp_mpc::hash::splitmix64;
use parqp_mpc::{Cluster, Grid, HashFamily, LoadReport, RowExchange, Weight};
use parqp_query::{in_variable_order, SchemaJoin, Var};
use std::borrow::Borrow;
use std::mem;
use std::slice::IterMut;

/// The result of running a distributed algorithm: per-server outputs and
/// the communication cost summary.
#[derive(Debug, Clone)]
pub struct JoinRun {
    /// Output fragment held by each server.
    pub outputs: Vec<Relation>,
    /// The `(L, r, C)` ledger of the run.
    pub report: LoadReport,
}

impl JoinRun {
    /// Concatenate the per-server outputs into one relation (test/driver
    /// convenience; the model itself leaves outputs distributed).
    pub fn gathered(&self) -> Relation {
        let arity = self.outputs.first().map_or(1, Relation::arity);
        let mut out = Relation::with_capacity(arity, self.output_size());
        for part in &self.outputs {
            out.extend_from(part);
        }
        out
    }

    /// Total number of output tuples across servers.
    pub fn output_size(&self) -> usize {
        self.outputs.iter().map(Relation::len).sum()
    }

    /// [`Relation::digest`] of the answer, summed fragment by fragment
    /// where the servers hold it: equal to the digest of
    /// [`JoinRun::gathered`], without the gather.
    pub fn digest(&self) -> u64 {
        self.outputs
            .iter()
            .fold(0, |sum, part| sum.wrapping_add(part.digest()))
    }
}

/// A relation tuple on the wire, tagged with the index of the relation it
/// belongs to. The tag is routing metadata and is not charged as payload:
/// the load of a tuple is its width in words, matching the paper's
/// "tuples received" accounting.
///
/// This is the per-message adaptor: one owned row per routed copy
/// through [`parqp_mpc::Exchange`]. The algorithms in this crate route
/// through [`parqp_mpc::RowExchange`] instead, where the tag is the
/// stream index and a row is charged the same width.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tagged {
    /// Index of the source relation (atom).
    pub tag: u32,
    /// The tuple.
    pub row: Vec<Value>,
}

impl Tagged {
    /// Construct a tagged tuple.
    pub fn new(tag: u32, row: Vec<Value>) -> Self {
        Self { tag, row }
    }
}

impl Weight for Tagged {
    fn words(&self) -> u64 {
        self.row.len() as u64
    }
}

/// A distributed relation: the variables its columns hold and one
/// fragment per server — the state GYM, the binary plans and the
/// expansion join carry from round to round.
#[derive(Debug, Default)]
pub(crate) struct Dist {
    pub(crate) vars: Vec<Var>,
    pub(crate) parts: Vec<Relation>,
    /// Whether the fragments are an input's initial placement (see
    /// [`Dist::scan`]).
    input: bool,
}

/// One edge of a [`Dist::semijoin`] round: `target ⋉ source`, where
/// `target_key[k]` and `source_key[k]` are the columns of one shared
/// variable on either side. The pairs' order is the routing order.
pub(crate) struct Semijoin<'a> {
    pub(crate) target: &'a Dist,
    pub(crate) target_key: &'a [usize],
    pub(crate) source: &'a Dist,
    pub(crate) source_key: &'a [usize],
    /// Sets the edge's hash apart from the round's other edges.
    pub(crate) salt: u64,
}

impl Dist {
    /// A round's result over `vars`, one fragment per server.
    pub(crate) fn new(vars: Vec<Var>, parts: Vec<Relation>) -> Self {
        Self {
            vars,
            parts,
            input: false,
        }
    }

    /// `rel`, over `vars`, in its free initial placement on `p` servers.
    pub(crate) fn scatter(rel: &Relation, vars: &[Var], p: usize) -> Self {
        Self {
            vars: vars.to_vec(),
            parts: scatter(rel, p),
            input: true,
        }
    }

    /// Rows across all servers.
    pub(crate) fn total(&self) -> usize {
        self.parts.iter().map(Relation::len).sum()
    }

    /// The fragments in variable order `x₀ … x_{k-1}`: a run's outputs.
    ///
    /// # Panics
    /// Panics unless the columns bind all `num_vars` variables.
    pub(crate) fn into_outputs(self, num_vars: usize) -> Vec<Relation> {
        assert_eq!(self.vars.len(), num_vars, "result must bind every variable");
        let vars = self.vars;
        self.parts
            .into_iter()
            .map(|part| in_variable_order(part, &vars))
            .collect()
    }

    /// One join round: `self ⋈ right`, keyed in `self`'s column order.
    /// Both sides meet at the hash of their shared variables, or on a
    /// `p₁ × p₂` product grid (which may use fewer than `p` servers)
    /// when they share none (slides 23, 28), and each server joins what
    /// it received under [`Cluster::map`].
    pub(crate) fn join(self, right: Dist, cluster: &mut Cluster, h: &HashFamily) -> Dist {
        let p = cluster.p();
        let on = SchemaJoin::new(&self.vars, &right.vars);
        let arities = [self.vars.len(), right.vars.len()];
        let mut ex = cluster.exchange_rows(&arities);
        if on.is_product() {
            let (p1, p2) = crate::twoway::product_grid(self.total(), right.total(), p);
            let grid = Grid::new(vec![p1, p2]);
            let (left_fan, right_fan) = (grid.fan_out(|d| d == 0), grid.fan_out(|d| d == 1));
            let band = |digest: u64, n: usize| (digest % n as u64) as usize;
            self.send(&mut ex, 0, |i, _| {
                left_fan.ranks(band(h.digest(0, i), p1) * p2)
            });
            right.send(&mut ex, 1, |i, _| {
                right_fan.ranks(band(h.digest(0, !i), p2))
            });
        } else {
            self.send(&mut ex, 0, |_, row| [dest_of(h, row, on.left_key(), 0, p)]);
            right.send(&mut ex, 1, |_, row| [dest_of(h, row, on.right_key(), 0, p)]);
        }
        let inboxes = inbox_pairs(arities, ex.finish());
        let parts = cluster.map(inboxes, |_, (left, right)| on.join(&left, &right));
        Dist::new(on.into_vars(), parts)
    }

    /// One semijoin round over `edges`: each edge's target rows and its
    /// source's distinct keys meet at the salted hash of the key, and
    /// each server keeps the target rows some key it received vouches
    /// for. Returns each edge's filtered target, in edge order.
    pub(crate) fn semijoin(
        edges: &[Semijoin<'_>],
        cluster: &mut Cluster,
        h: &HashFamily,
    ) -> Vec<Dist> {
        let p = cluster.p();
        let arities = |e: &Semijoin<'_>| [e.target.vars.len(), e.source_key.len()];
        // Streams 2i and 2i+1: edge i's target rows and its source keys.
        let mut ex = cluster.exchange_rows(&edges.iter().flat_map(arities).collect::<Vec<_>>());
        let mut projected = Vec::new();
        for (i, e) in edges.iter().enumerate() {
            let (source, key) = (e.source, e.source_key);
            e.target.send(&mut ex, 2 * i, |_, row| {
                [dest_of(h, row, e.target_key, e.salt, p)]
            });
            // Keys are deduplicated per fragment: a row speaks for its key
            // iff it is the first of its chain.
            for (sid, part) in source.parts.iter().enumerate() {
                ex.set_sender(sid);
                let index = KeyIndex::build(part, key);
                source.scan(sid, |j, row| {
                    if index.is_first_of_key(j) {
                        projected.clear();
                        projected.extend(key.iter().map(|&c| row[c]));
                        ex.send_row(2 * i + 1, dest_of(h, row, key, e.salt, p), &projected);
                    }
                });
            }
        }
        let mut delivered = ex.finish().into_iter();
        edges
            .iter()
            .map(|e| {
                let key_vars: Vec<Var> = e.target_key.iter().map(|&c| e.target.vars[c]).collect();
                let keyed = SchemaJoin::new(&e.target.vars, &key_vars);
                let inboxes = inbox_pairs(arities(e), delivered.by_ref());
                let parts = inboxes
                    .iter()
                    .map(|(rows, keys)| keyed.semijoin(rows, keys))
                    .collect();
                Dist::new(e.target.vars.clone(), parts)
            })
            .collect()
    }

    /// Pass `f` each row of server `sid`'s fragment with its index, as a
    /// round reads it: one logical read of `sid`'s buffer pool a row, an
    /// input page by page ([`RouteScan`]) and anything a round produced
    /// as the stream it was written in ([`IoCursor`]). With no store
    /// installed `RouteScan` is a plain scan, and no row pays a call.
    #[inline]
    fn scan(&self, sid: usize, mut f: impl FnMut(usize, &[Value])) {
        let part = &self.parts[sid];
        if self.input || !is_enabled() {
            for (i, row) in RouteScan::new(sid, part).iter().enumerate() {
                f(i, row);
            }
        } else {
            let mut io = IoCursor::new(sid);
            for (i, row) in part.iter().enumerate() {
                io.read(row.len());
                f(i, row);
            }
        }
    }

    /// Send every row on `stream`, each fragment attributed to the
    /// server holding it, to the servers `dests(i, row)` names, `i`
    /// counting rows across fragments.
    #[inline]
    pub(crate) fn send<D: IntoIterator<Item = usize>>(
        &self,
        ex: &mut RowExchange<'_>,
        stream: usize,
        mut dests: impl FnMut(u64, &[Value]) -> D,
    ) {
        let mut i = 0;
        for sid in 0..self.parts.len() {
            ex.set_sender(sid);
            self.scan(sid, |_, row| {
                for dest in dests(i, row) {
                    ex.send_row(stream, dest, row);
                }
                i += 1;
            });
        }
    }
}

/// The server among `p` that a row's `key` columns hash to: their
/// values chained through one routing digest. Rounds that route several
/// (parent, child) pairs at once salt each pair's digest apart.
#[inline]
pub(crate) fn dest_of(h: &HashFamily, row: &[Value], key: &[usize], salt: u64, p: usize) -> usize {
    let digest = key.iter().fold(0xcbf2_9ce4_8422_2325u64, |acc, &c| {
        splitmix64(acc ^ h.digest(0, row[c]))
    });
    ((digest ^ salt) % p as u64) as usize
}

/// Split `rel` into `p` round-robin fragments (the model's free initial
/// data placement).
pub fn scatter(rel: &Relation, p: usize) -> Vec<Relation> {
    let per_server = rel.len().div_ceil(p.max(1));
    let mut parts: Vec<Relation> = (0..p)
        .map(|_| Relation::with_capacity(rel.arity(), per_server))
        .collect();
    for (i, row) in rel.iter().enumerate() {
        parts[i % p].push(row);
    }
    parts
}

/// Output arity of a two-way join under the [`Relation::push_merged`]
/// convention.
pub fn joined_arity(r_arity: usize, s_arity: usize) -> usize {
    r_arity + s_arity - 1
}

/// Local hash join of two row sets on `r_col` / `s_col`, appending
/// merged rows to `out`: `r` is indexed in place, `s` probes in order
/// ([`probe_rows`]). Either side can be a `Relation` fragment or a
/// slice of received rows.
pub fn hash_join_rows<R, S>(r: &R, r_col: usize, s: &S, s_col: usize, out: &mut Relation)
where
    R: Rows + ?Sized,
    S: Rows + ?Sized,
{
    probe_rows(&KeyIndex::build(r, &[r_col]), s, s_col, out);
}

/// The probe half of a local hash join, for a build side that is
/// already indexed on its join column — by [`hash_join_rows`] a moment
/// ago, or once by a caller that keeps the [`KeyTable`] beside the rows
/// and probes them query after query. `s` probes in order, each probe's
/// matches come in the build side's order, and merged rows are appended
/// to `out`: [`probe_each`] with the materialising sink.
pub fn probe_rows<R, T, S>(index: &KeyIndex<'_, R, T>, s: &S, s_col: usize, out: &mut Relation)
where
    R: Rows + ?Sized,
    T: Borrow<KeyTable>,
    S: Rows + ?Sized,
{
    let r = index.rows();
    // Checked once: rows are fixed-width, and merged rows are written
    // straight into `out`'s storage.
    if !r.is_empty() && !s.is_empty() {
        assert_eq!(
            out.arity(),
            joined_arity(r.row(0).len(), s.row(0).len()),
            "probe_rows: output arity is not the joined arity"
        );
    }
    probe_each(index, s, s_col, |r_row, s_row| {
        out.push_merged(r_row, s_row, s_col)
    });
}

/// The one probe walk of a local hash join: `sink(build row, probe row)`
/// once per match, probe rows of `s` outermost in order, each probe's
/// matches in the build side's order. The merged row is the sink's to
/// make: [`probe_rows`] writes it, and [`probe_digest`] folds the two
/// halves into a count and a digest without ever writing it.
#[inline]
pub fn probe_each<R, T, S>(
    index: &KeyIndex<'_, R, T>,
    s: &S,
    s_col: usize,
    mut sink: impl FnMut(&[Value], &[Value]),
) where
    R: Rows + ?Sized,
    T: Borrow<KeyTable>,
    S: Rows + ?Sized,
{
    let s_key = [s_col];
    let r = index.rows();
    for j in 0..s.len() {
        let s_row = s.row(j);
        for i in index.probe(s_row, &s_key) {
            sink(r.row(i), s_row);
        }
    }
}

/// `(rows, digest)` of the answer [`probe_rows`] would write, with no
/// row written: [`probe_each`] into a sink that counts each match and
/// adds its merged row's [`Relation::digest`] term, hashed from the
/// build and the probe row ([`merged_row_digest`]). The column the term
/// skips is the probe's join column, as in the row `probe_rows` writes.
pub fn probe_digest<R, T, S>(index: &KeyIndex<'_, R, T>, s: &S, s_col: usize) -> (u64, u64)
where
    R: Rows + ?Sized,
    T: Borrow<KeyTable>,
    S: Rows + ?Sized,
{
    let (mut rows, mut digest) = (0u64, 0u64);
    probe_each(index, s, s_col, |r_row, s_row| {
        rows += 1;
        digest = digest.wrapping_add(merged_row_digest(r_row, s_row, s_col));
    });
    (rows, digest)
}

/// Route one stream of a row exchange straight from its input: `rel`
/// in its free initial placement on `senders` servers (server `s`
/// holds rows `s, s + senders, …`), every row to `base(i, row) + o`
/// for each `o` in `offsets` (`offsets[0]` is 0), `i` counting rows in
/// fragment order, as a fragment-by-fragment send loop meets them.
///
/// Two front-to-back passes, with no fragment ever cut out: pass 1
/// remembers each row's cell `base · senders + s` and counts copies per
/// (destination, sender); pass 2 ([`PlacementScan`], the only charged
/// scan) copies each row into exactly sized, sender-major buffers, one
/// per destination, handed over by [`RowExchange::try_send_placed`].
/// The round delivers, charges, attributes, traces and pages what
/// sending each fragment row by row would, ending on the last sender.
/// A grid round calls [`RowExchange::note_grid`] first.
///
/// Every round that moves an input relation from its initial placement
/// routes through here: [`hash_partition`], HyperCube, the broadcast and
/// Cartesian joins, the expansion join's atom side, HL's scattered
/// inputs and the one-server baseline. What does not, and why:
/// * SkewHC: a row lands on several grids, each with its own base, and
///   calling this once per grid would re-scan the atom and re-charge
///   its pages;
/// * `Dist` inputs (GYM, the binary plan, the expansion join's
///   bindings): carried state, and a semijoin source deduplicates its
///   keys per fragment;
/// * the ring baseline: its resident fragments rotate;
/// * the aggregates and the sort-merge join's crossing round: they send
///   projected pairs and `SortItem`s, not rows;
/// * GYM's and HL's key rounds: they send projections, not rows.
///
/// # Panics
/// Panics unless `1 ≤ senders ≤ ex.p()` and `offsets` starts with 0,
/// or if a row's `base(i, row) + o` is not a server.
pub fn route_input(
    ex: &mut RowExchange<'_>,
    stream: usize,
    rel: &Relation,
    senders: usize,
    offsets: &[usize],
    mut base: impl FnMut(usize, &[Value]) -> usize,
) {
    let (p, arity, n) = (ex.p(), rel.arity(), rel.len());
    assert!((1..=p).contains(&senders), "{senders} senders on {p}");
    assert!(offsets.first() == Some(&0), "offsets must start with 0");
    assert!(u32::try_from(p * senders).is_ok(), "cells are u32s");
    // Pass 1: row `i`'s cell `base · senders + s` (sender `s`), and
    // `counts[cell]` rows in each. Fragment `s` starts at row
    // `s · (n / senders) + min(s, n mod senders)` of fragment order.
    let (per, extra) = (n / senders, n % senders);
    let mut counts = vec![0u64; p * senders];
    let mut cells: Vec<u32> = Vec::with_capacity(n);
    let (mut s, mut k) = (0, 0);
    for row in rel.raw().chunks_exact(arity) {
        let cell = base(s * per + s.min(extra) + k, row) * senders + s;
        counts[cell] += 1;
        cells.push(cell as u32);
        k += usize::from(s + 1 == senders);
        s = if s + 1 == senders { 0 } else { s + 1 };
    }
    place_input(ex, stream, rel, senders, offsets, counts, &cells);
}

/// The rest of [`route_input`] after pass 1, out of line so that only
/// the pass that calls `base` is compiled once per caller.
fn place_input(
    ex: &mut RowExchange<'_>,
    stream: usize,
    rel: &Relation,
    senders: usize,
    offsets: &[usize],
    mut counts: Vec<u64>,
    cells: &[u32],
) {
    let (p, arity) = (ex.p(), rel.arity());
    // Every other offset copies a cell's rows to another destination.
    let strided: Vec<usize> = offsets.iter().skip(1).map(|&o| o * senders).collect();
    if !strided.is_empty() {
        let at_base = counts.clone();
        for (cell, &rows) in at_base.iter().enumerate().filter(|(_, &rows)| rows > 0) {
            for &o in &strided {
                counts[cell + o] += rows;
            }
        }
    }
    // Each destination's buffer, cut into one window per sender; a
    // window is written front to back, a word at a time, as rows land
    // in it.
    let mut bufs: Vec<Vec<Value>> = counts
        .chunks_exact(senders)
        .map(|sent| vec![0; sent.iter().sum::<u64>() as usize * arity])
        .collect();
    let mut windows: Vec<IterMut<'_, Value>> = Vec::with_capacity(p * senders);
    for (buf, sent) in bufs.iter_mut().zip(counts.chunks_exact(senders)) {
        let mut rest = buf.as_mut_slice();
        for &rows in sent {
            let (window, tail) = mem::take(&mut rest).split_at_mut(rows as usize * arity);
            windows.push(window.iter_mut());
            rest = tail;
        }
    }
    // Pass 2.
    let mut cells = cells.iter();
    for block in PlacementScan::new(senders, rel).blocks() {
        for (row, &cell) in block.chunks_exact(arity).zip(&mut cells) {
            let cell = cell as usize;
            place(&mut windows[cell], row);
            for &o in &strided {
                place(&mut windows[cell + o], row);
            }
        }
    }
    debug_assert!(
        windows.iter().all(|w| w.len() == 0),
        "a window left unfilled"
    );
    for (d, (buf, sent)) in bufs
        .into_iter()
        .zip(counts.chunks_exact(senders))
        .enumerate()
    {
        let placed = ex.try_send_placed(stream, d, sent, buf);
        assert!(placed.is_ok(), "route_input: {placed:?}");
    }
}

/// Copy `row`, word by word, to the front of `window`, which moves past
/// the copy. Pass 1's counts size every window to hold exactly its
/// rows, so no word runs out of slots.
#[inline]
fn place(window: &mut IterMut<'_, Value>, row: &[Value]) {
    // `row` leads the zip, so its end stops the copy before the
    // window gives up a slot it will not fill.
    for (&v, slot) in row.iter().zip(window) {
        *slot = v;
    }
}

/// [`route_input`] with one offset: `rel`, placed on the exchange's `p`
/// servers, every row to the server `h` hashes its `col` to.
///
/// # Panics
/// Panics if `col` is not a column of `rel`.
pub fn hash_partition(
    ex: &mut RowExchange<'_>,
    stream: usize,
    rel: &Relation,
    col: usize,
    h: &HashFamily,
) {
    let p = ex.p();
    assert!(
        col < rel.arity(),
        "hash_partition: no column {col} in the input"
    );
    route_input(ex, stream, rel, p, &[0], |_, row| h.hash(0, row[col], p));
}

/// [`hash_join_rows`] over two inboxes of owned rows: the per-message
/// adaptor for callers that exchanged a [`Tagged`] per row and
/// un-tagged the inbox into row vectors.
pub fn local_hash_join(
    r_rows: &[Vec<Value>],
    r_col: usize,
    s_rows: &[Vec<Value>],
    s_col: usize,
    out: &mut Relation,
) {
    hash_join_rows(r_rows, r_col, s_rows, s_col, out);
}

/// One delivered stream of a row exchange as per-server fragments: the
/// flat buffers *are* the fragments' storage.
pub(crate) fn fragments(arity: usize, bufs: Vec<Vec<Value>>) -> Vec<Relation> {
    bufs.into_iter()
        .map(|buf| Relation::from_raw(arity, buf))
        .collect()
}

/// The per-server fragments of a row exchange that moved a single
/// stream of `arity`-wide rows.
pub fn single_stream(arity: usize, delivered: Vec<Vec<Vec<Value>>>) -> Vec<Relation> {
    fragments(arity, delivered.into_iter().flatten().collect())
}

/// A row exchange's delivery, `[stream][dest]`, transposed into one
/// inbox per server holding a fragment per stream (`arities[i]` is
/// stream `i`'s stride).
pub(crate) fn inboxes(arities: &[usize], delivered: Vec<Vec<Vec<Value>>>) -> Vec<Vec<Relation>> {
    let p = delivered.first().map_or(0, Vec::len);
    let mut inboxes: Vec<Vec<Relation>> =
        (0..p).map(|_| Vec::with_capacity(arities.len())).collect();
    for (&arity, bufs) in arities.iter().zip(delivered) {
        for (inbox, buf) in inboxes.iter_mut().zip(bufs) {
            inbox.push(Relation::from_raw(arity, buf));
        }
    }
    inboxes
}

/// The next two delivered streams of a row exchange as one
/// `(first, second)` pair of fragments per server: a whole two-stream
/// round, or one edge's two streams of a round that carries several.
pub(crate) fn inbox_pairs(
    arities: [usize; 2],
    delivered: impl IntoIterator<Item = Vec<Vec<Value>>>,
) -> Vec<(Relation, Relation)> {
    let mut streams = delivered.into_iter();
    let mut next = |arity| fragments(arity, streams.next().unwrap_or_default());
    let [first, second] = arities.map(&mut next);
    first.into_iter().zip(second).collect()
}

/// The serial two-way equi-join oracle in the same output convention.
pub fn twoway_oracle(r: &Relation, r_col: usize, s: &Relation, s_col: usize) -> Relation {
    let mut out = Relation::new(joined_arity(r.arity(), s.arity()));
    hash_join_rows(r, r_col, s, s_col, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use parqp_testkit::prelude::*;

    #[test]
    fn tagged_weight_counts_row_only() {
        let t = Tagged::new(3, vec![1, 2, 3]);
        assert_eq!(t.words(), 3);
    }

    #[test]
    fn scatter_round_robin() {
        let r = Relation::from_rows(1, [[0], [1], [2], [3], [4]]);
        let parts = scatter(&r, 2);
        assert_eq!(parts[0].to_rows(), vec![vec![0], vec![2], vec![4]]);
        assert_eq!(parts[1].to_rows(), vec![vec![1], vec![3]]);
    }

    #[test]
    fn merge_rows_drops_join_col() {
        let r = Relation::from_rows(2, [[1, 2]]);
        for (s_row, s_col) in [([2, 9], 0), ([9, 2], 1)] {
            let s = Relation::from_rows(2, [s_row]);
            let mut out = Relation::new(3);
            hash_join_rows(&r, 1, &s, s_col, &mut out);
            assert_eq!(out.to_rows(), vec![vec![1, 2, 9]]);
        }
    }

    #[test]
    fn oracle_matches_hand_computation() {
        let r = Relation::from_rows(2, [[1, 5], [2, 5], [3, 6]]);
        let s = Relation::from_rows(2, [[5, 10], [6, 11], [6, 12]]);
        let out = twoway_oracle(&r, 1, &s, 0);
        let mut rows = out.to_rows();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![1, 5, 10],
                vec![2, 5, 10],
                vec![3, 6, 11],
                vec![3, 6, 12]
            ]
        );
    }

    #[test]
    fn gathered_concats() {
        let run = JoinRun {
            outputs: vec![
                Relation::from_rows(1, [[1]]),
                Relation::from_rows(1, [[2], [3]]),
            ],
            report: LoadReport::empty(2),
        };
        assert_eq!(run.output_size(), 3);
        assert_eq!(run.gathered().len(), 3);
    }

    /// The round [`hash_partition`] stands for: scatter, then send each
    /// fragment's rows as they are scanned, hashing as it goes.
    fn route_as_you_go(
        ex: &mut RowExchange<'_>,
        stream: usize,
        rel: &Relation,
        col: usize,
        h: &HashFamily,
    ) {
        let p = ex.p();
        for (sid, frag) in scatter(rel, p).iter().enumerate() {
            ex.set_sender(sid);
            let scan = RouteScan::new(sid, frag);
            for row in scan.iter() {
                ex.send_row(stream, h.hash(0, row[col], p), row);
            }
        }
    }

    #[test]
    fn hash_partition_is_the_hash_as_you_go_loop_with_exact_buffers() {
        use parqp_data::generate;
        use parqp_data::paged::{capture, StoreConfig};
        use parqp_mpc::trace::Recorder;
        use parqp_mpc::Cluster;

        type Route = fn(&mut RowExchange<'_>, usize, &Relation, usize, &HashFamily);
        let h = HashFamily::new(11, 1);
        // (servers, rows, key domain): p = 1; a domain of 2 leaves most
        // of 8 destinations unaddressed; fewer rows than servers; no
        // rows at all.
        let cases = [
            (1, 8, 100),
            (8, 57, 2),
            (5, 192, 1000),
            (7, 3, 10),
            (3, 0, 10),
        ];
        for (p, n, domain) in cases {
            let wide = generate::uniform(3, n, domain, n as u64);
            let narrow = wide.project(&[2]);
            let run = |route: Route| {
                capture(
                    StoreConfig {
                        page_size: 8,
                        pool_pages: 2,
                    },
                    || {
                        Recorder::capture(|| {
                            let mut cluster = Cluster::new(p);
                            let mut ex = cluster.exchange_rows(&[3, 1]);
                            route(&mut ex, 0, &wide, 1, &h);
                            route(&mut ex, 1, &narrow, 0, &h);
                            (ex.finish(), cluster.report())
                        })
                    },
                )
            };
            let (io, (trace, (delivered, report))) = run(hash_partition);
            let (ref_io, (ref_trace, reference)) = run(route_as_you_go);
            assert_eq!((&delivered, &report), (&reference.0, &reference.1));
            assert_eq!(io, ref_io, "pass 1 is not a charged scan");
            assert!(trace.events().eq(ref_trace.events()));
            for buf in delivered.iter().flatten() {
                assert_eq!(buf.capacity(), buf.len(), "p = {p}: slack delivered");
            }
        }
    }

    /// A relation of `arity` columns over a domain of 3 (most rows
    /// repeat another), empty one time in four.
    fn small_bag(rng: &mut Rng, arity: usize) -> Relation {
        let rows = if rng.gen_below(4) == 0 {
            0
        } else {
            rng.gen_below(40) as usize
        };
        Relation::from_rows(
            arity,
            (0..rows).map(|_| (0..arity).map(|_| rng.gen_below(3)).collect::<Vec<_>>()),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Serve's count and digest against the sink that writes the
        /// rows: one row per match, and each match's term of the merged
        /// row, hashed from its halves, is the term of the row
        /// `probe_rows` writes.
        #[test]
        fn probe_digest_is_the_digest_of_probe_rows(
            seed in any::<u64>(),
        ) {
            let mut rng = Rng::seed_from_u64(seed);
            let r_arity = rng.gen_range(1usize..=3);
            let r_col = rng.gen_below(r_arity as u64) as usize;
            let s_col = rng.gen_below(2) as usize;
            let (r, s) = (small_bag(&mut rng, r_arity), small_bag(&mut rng, 2));
            let key = [r_col];
            let index = KeyIndex::build(&r, &key);
            let mut out = Relation::new(joined_arity(r_arity, 2));
            probe_rows(&index, &s, s_col, &mut out);
            let (rows, digest) = probe_digest(&index, &s, s_col);
            prop_assert_eq!((rows, digest), (out.len() as u64, out.digest()));
        }
    }

    /// Known answers for the digest term. Served records, goldens and
    /// the `perf` oracles compare digests made by different builds, so
    /// the term itself must not move: a term that stopped hashing the
    /// width, or hashed the wrong words, fails here even where both
    /// sides of the property above would move together.
    #[test]
    fn the_digest_term_is_pinned() {
        let r = Relation::from_rows(3, [[1, 2, 3], [1, 2, 3], [u64::MAX, 0, 7]]);
        assert_eq!(r.digest(), 0x8009_edc5_5c6b_6199);
        assert_eq!(
            Relation::from_rows(1, [[5]]).digest(),
            0x7882_3f7b_0abf_82e9
        );
        let halves: [(&[Value], &[Value], usize); 3] = [
            (&[1, 2], &[9, 3], 0),
            (&[1, 2], &[3, 9], 1),
            (&[1, 2, 3], &[9], 0),
        ];
        let sum = halves.iter().fold(0u64, |sum, (l, r, skip)| {
            sum.wrapping_add(merged_row_digest(l, r, *skip))
        });
        let d = Relation::from_rows(3, [[1, 2, 3]]).digest();
        assert_eq!(sum, d.wrapping_mul(3));
    }

    #[test]
    #[should_panic(expected = "no column 2")]
    fn hash_partition_refuses_a_column_past_the_row() {
        let mut cluster = parqp_mpc::Cluster::new(2);
        let mut ex = cluster.exchange_rows(&[2]);
        let rel = Relation::from_rows(2, [[1, 2], [3, 4]]);
        hash_partition(&mut ex, 0, &rel, 2, &HashFamily::new(1, 1));
    }
}
