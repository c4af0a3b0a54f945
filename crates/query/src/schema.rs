//! The local half of every multi-round join: relations whose columns
//! are named by variables, joined or semijoined on the variables they
//! share.
//!
//! Serial Yannakakis, GYM's semijoin and join phases, left-deep binary
//! plans, the expansion join and Heavy-Light's semijoin rounds all route
//! two sides by their shared variables and then combine what arrived on
//! the two schemas. [`SchemaJoin`] is that second step, built once per
//! round from the two variable lists; [`in_variable_order`] puts a
//! result into the query's `x₀ … x_{k-1}` column order.

use crate::query::Var;
use parqp_data::{KeyIndex, Relation, Value};

/// How a relation over the `left` variables meets one over the `right`
/// variables: the column pairs that must agree, the `right` columns a
/// join appends, and the variables of the result (see [`SchemaJoin::new`]).
#[derive(Debug, Clone)]
pub struct SchemaJoin {
    left_key: Vec<usize>,
    right_key: Vec<usize>,
    fresh: Vec<usize>,
    vars: Vec<Var>,
}

impl SchemaJoin {
    /// The join of schemas `left` and `right`. Each variable they share
    /// is a key column pair, listed in `left`'s column order; the `right`
    /// columns whose variables `left` lacks are fresh, in `right`'s
    /// order; the result's variables are `left`'s, then the fresh ones.
    pub fn new(left: &[Var], right: &[Var]) -> Self {
        let (left_key, right_key) = left
            .iter()
            .enumerate()
            .filter_map(|(lc, v)| right.iter().position(|rv| rv == v).map(|rc| (lc, rc)))
            .unzip();
        let (fresh, fresh_vars): (Vec<usize>, Vec<Var>) = right
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, v)| !left.contains(v))
            .unzip();
        Self {
            left_key,
            right_key,
            fresh,
            vars: [left, &fresh_vars].concat(),
        }
    }

    /// The key columns of a `left` row.
    pub fn left_key(&self) -> &[usize] {
        &self.left_key
    }

    /// The key columns of a `right` row, pairwise with
    /// [`SchemaJoin::left_key`].
    pub fn right_key(&self) -> &[usize] {
        &self.right_key
    }

    /// The shared variables in key order: the schema of either side's
    /// projection onto its key columns.
    pub fn key_vars(&self) -> Vec<Var> {
        self.left_key.iter().map(|&c| self.vars[c]).collect()
    }

    /// Whether the schemas share no variable (the join is a product).
    pub fn is_product(&self) -> bool {
        self.left_key.is_empty()
    }

    /// The variables of the join's result: the left schema, then the
    /// fresh right variables.
    pub fn into_vars(self) -> Vec<Var> {
        self.vars
    }

    /// `left ⋈ right`: every `left` row, in order, followed by the fresh
    /// columns of each `right` row agreeing with it on the key, in
    /// ascending `right` row order. An empty key pairs every row with
    /// every row.
    pub fn join(&self, left: &Relation, right: &Relation) -> Relation {
        let index = KeyIndex::build(right, &self.right_key);
        let mut out = Vec::new();
        for row in left {
            for i in index.probe(row, &self.left_key) {
                let matched = right.row(i);
                out.extend_from_slice(row);
                out.extend(self.fresh.iter().map(|&c| matched[c]));
            }
        }
        Relation::from_raw(self.vars.len(), out)
    }

    /// `left ⋉ right`: the `left` rows, in order, that agree with some
    /// `right` row on the key — with an empty key, all of them if
    /// `right` has a row and none if it has not.
    pub fn semijoin(&self, left: &Relation, right: &Relation) -> Relation {
        left.filter(self.matches(right))
    }

    /// The test [`SchemaJoin::semijoin`] puts to each `left` row, for a
    /// caller that carries data beside each row it keeps.
    pub fn matches<'a>(&'a self, right: &'a Relation) -> impl Fn(&[Value]) -> bool + 'a {
        let index = KeyIndex::build(right, &self.right_key);
        move |row| index.contains(row, &self.left_key)
    }
}

/// `rel`, whose columns hold `vars`, with its columns permuted into
/// variable order `x₀ … x_{k-1}`. A relation already in that order is
/// handed back as it is.
///
/// # Panics
/// Panics unless `vars` is a permutation of `0..vars.len()` naming
/// columns of `rel`.
pub fn in_variable_order(rel: Relation, vars: &[Var]) -> Relation {
    let k = vars.len();
    if rel.arity() == k && vars.iter().copied().eq(0..k) {
        return rel;
    }
    // The column that holds each variable, in variable order.
    let mut by_var: Vec<(Var, usize)> = vars.iter().copied().zip(0..).collect();
    by_var.sort_unstable();
    assert!(
        by_var.iter().map(|&(v, _)| v).eq(0..k),
        "variables {vars:?} are not a permutation of 0..{k}"
    );
    let col_of_var: Vec<usize> = by_var.into_iter().map(|(_, col)| col).collect();
    rel.project(&col_of_var)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_follow_the_left_order_and_fresh_the_right() {
        let on = SchemaJoin::new(&[4, 0, 2], &[2, 5, 4]);
        assert_eq!((on.left_key(), on.right_key()), (&[0, 2][..], &[2, 0][..]));
        assert_eq!(on.key_vars(), vec![4, 2]);
        assert!(!on.is_product());
        assert_eq!(on.into_vars(), vec![4, 0, 2, 5]);
        assert!(SchemaJoin::new(&[0], &[1]).is_product());
    }

    #[test]
    fn join_appends_fresh_columns_in_right_row_order() {
        // R(x, y) ⋈ S(z, y): S's rows on key 5 come in S's order.
        let r = Relation::from_rows(2, [[1, 5], [2, 6], [3, 5]]);
        let s = Relation::from_rows(2, [[9, 5], [8, 7], [7, 5]]);
        let out = SchemaJoin::new(&[0, 1], &[2, 1]).join(&r, &s);
        assert_eq!(
            out.to_rows(),
            vec![vec![1, 5, 9], vec![1, 5, 7], vec![3, 5, 9], vec![3, 5, 7]]
        );
    }

    #[test]
    fn variable_order_permutes_or_passes_through() {
        let rel = Relation::from_rows(3, [[10, 20, 30]]);
        assert_eq!(
            in_variable_order(rel.clone(), &[2, 0, 1]).to_rows(),
            vec![vec![20, 30, 10]]
        );
        assert_eq!(in_variable_order(rel.clone(), &[0, 1, 2]), rel);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn variable_order_refuses_a_repeated_variable() {
        in_variable_order(Relation::from_rows(2, [[1, 2]]), &[1, 1]);
    }
}
