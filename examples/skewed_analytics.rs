//! A warehouse-style analytics join under realistic skew — the
//! `Orders ⋈ Customers` shape of slide 52, with Zipf-distributed
//! customer keys (a few customers place most orders).
//!
//! Shows the slide 24–31 story end to end: hash join degrades as skew
//! grows, while the skew-resilient join and the sort-based join hold the
//! `O(√(OUT/p) + IN/p)` line.
//!
//! ```text
//! cargo run --release --example skewed_analytics
//! ```

use parqp::data::generate;
use parqp::data::stats::join_output_size;
use parqp::join::twoway;
use parqp::model;

fn main() {
    let p = 64;
    let n_orders = 200_000;
    let n_customers = 50_000;

    println!(
        "{:<8} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "zipf α", "OUT", "hash L", "skew L", "sort L", "√(OUT/p)+IN/p"
    );
    for alpha in [0.0, 0.6, 1.0, 1.4] {
        // Orders(customer, amount): customer keys Zipf(α).
        let orders = generate::zipf_pairs(n_orders, n_customers, alpha, 0, 11);
        // Customers(key, region): one row per customer.
        let customers = generate::key_unique_pairs(n_customers, 0, 64, 12);

        let out = join_output_size(&orders, 0, &customers, 0);
        let hash = twoway::hash_join(&orders, 0, &customers, 0, p, 42);
        let skew = twoway::skew_join(&orders, 0, &customers, 0, p, 42);
        let sort = twoway::sort_merge_join(&orders, 0, &customers, 0, p, 42);
        assert_eq!(hash.gathered().canonical(), skew.gathered().canonical());
        assert_eq!(hash.gathered().canonical(), sort.gathered().canonical());

        let input = (n_orders + n_customers) as f64;
        let bound = (out as f64 / p as f64).sqrt() + input / p as f64;
        println!(
            "{:<8} {:>12} {:>12} {:>12} {:>12} {:>14.0}",
            alpha,
            out,
            hash.report.max_load_tuples(),
            skew.report.max_load_tuples(),
            sort.report.max_load_tuples(),
            bound,
        );
    }

    println!(
        "\nslide 26: with IN = 10¹¹ and p = 100, hash partitioning tolerates \
         degree ≤ {:.0} before skew bites (30% over mean, 95% confidence)",
        model::degree_threshold(1e11, 100.0, 0.3, 0.05)
    );
    println!(
        "at p = 1000 the tolerance is only {:.0} — more servers, more skew pain",
        model::degree_threshold(1e11, 1000.0, 0.3, 0.05)
    );
}
