//! Shared plumbing for the join algorithms.

use parqp_data::{KeyIndex, Relation, Rows, Value};
use parqp_mpc::{LoadReport, Weight};

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

/// Build one output row of a two-way join in the workspace convention:
/// all of `r_row`, then `s_row` with the join column removed.
pub fn merge_rows(r_row: &[Value], s_row: &[Value], s_col: usize, buf: &mut Vec<Value>) {
    buf.clear();
    buf.extend_from_slice(r_row);
    for (i, &v) in s_row.iter().enumerate() {
        if i != s_col {
            buf.push(v);
        }
    }
}

/// Output arity of a two-way join under the [`merge_rows`] convention.
pub fn joined_arity(r_arity: usize, s_arity: usize) -> usize {
    r_arity + s_arity - 1
}

/// Local hash join of two row sets on `r_col` / `s_col`, appending
/// merged rows to `out`: `r` is indexed in place, `s` probes in order,
/// and each probe's matches come in `r`'s order. Either side can be a
/// `Relation` fragment or a slice of received rows.
pub fn hash_join_rows<R, S>(r: &R, r_col: usize, s: &S, s_col: usize, out: &mut Relation)
where
    R: Rows + ?Sized,
    S: Rows + ?Sized,
{
    let (r_key, s_key) = ([r_col], [s_col]);
    let index = KeyIndex::build(r, &r_key);
    let mut buf = Vec::new();
    for j in 0..s.len() {
        let s_row = s.row(j);
        for i in index.probe(s_row, &s_key) {
            merge_rows(r.row(i), s_row, s_col, &mut buf);
            out.push(&buf);
        }
    }
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

/// Local join of schema-carrying rows (GYM, the binary plans, the
/// expansion join): every `left` row, in order, extended by the `fresh`
/// columns of each `right` row agreeing with it on the key columns, in
/// `right`'s order.
pub(crate) fn extend_rows(
    left: &Relation,
    left_pos: &[usize],
    right: &Relation,
    right_pos: &[usize],
    fresh: &[usize],
) -> Relation {
    let index = KeyIndex::build(right, right_pos);
    let mut out = Vec::new();
    for lrow in left.iter() {
        for i in index.probe(lrow, left_pos) {
            let rrow = right.row(i);
            out.extend_from_slice(lrow);
            out.extend(fresh.iter().map(|&posn| rrow[posn]));
        }
    }
    Relation::from_raw(left.arity() + fresh.len(), out)
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

/// A relation's columns permuted into variable order `x₀ … x_{k-1}`,
/// given the variable each column holds. A relation already in that
/// order is handed back as it is.
pub(crate) fn in_variable_order(rel: Relation, schema: &[usize]) -> Relation {
    if rel.arity() == schema.len() && schema.iter().copied().eq(0..schema.len()) {
        return rel;
    }
    let mut col_of_var = vec![0usize; schema.len()];
    for (col, &v) in schema.iter().enumerate() {
        col_of_var[v] = col;
    }
    rel.project(&col_of_var)
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
        let mut buf = Vec::new();
        merge_rows(&[1, 2], &[2, 9], 0, &mut buf);
        assert_eq!(buf, vec![1, 2, 9]);
        merge_rows(&[1, 2], &[9, 2], 1, &mut buf);
        assert_eq!(buf, vec![1, 2, 9]);
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
}
