//! Answer checks against the hand-written oracles (`tpch::q*_reference`).
//!
//! Integer fields, counts, group keys and row sets must match exactly.
//! `f64` sums must match within [`REL_TOL`] relative: the engine's
//! elastic morsel size changes the summation tree, so the bits of a sum
//! may differ from the oracle's while the value is right.

use adaptvm_relational::tpch::{Q18Row, Q1Row, Q9Row};

/// Relative tolerance for `f64` sums, the one `tpch::q1_results_match`
/// uses.
pub const REL_TOL: f64 = 1e-9;

/// `got` equals `want` within [`REL_TOL`] relative (scale at least 1, so
/// sums near zero compare absolutely).
pub fn close(got: f64, want: f64) -> bool {
    let scale = got.abs().max(want.abs()).max(1.0);
    (got - want).abs() / scale < REL_TOL
}

/// Q1: same groups in the same order, exact counts, close sums.
pub fn q1_matches(got: &[Q1Row], want: &[Q1Row]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.group == w.group
                && g.count == w.count
                && close(g.sum_qty, w.sum_qty)
                && close(g.sum_base, w.sum_base)
                && close(g.sum_disc_price, w.sum_disc_price)
                && close(g.sum_charge, w.sum_charge)
        })
}

/// Q9: every field is an integer, so the rows must be identical.
pub fn q9_matches(got: &[Q9Row], want: &[Q9Row]) -> bool {
    got == want
}

/// Q18: the same orders with the same dates and line counts, close
/// totals.
pub fn q18_matches(got: &[Q18Row], want: &[Q18Row]) -> bool {
    got.len() == want.len()
        && got.iter().zip(want).all(|(g, w)| {
            g.o_orderkey == w.o_orderkey
                && g.o_orderdate == w.o_orderdate
                && g.line_count == w.line_count
                && close(g.total_qty, w.total_qty)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptvm_relational::tpch::{self, KeyDist};

    #[test]
    fn close_accepts_reordered_sums_and_rejects_perturbed_ones() {
        let values: Vec<f64> = (0..10_000).map(|i| (i as f64) * 0.37 + 0.01).collect();
        let forward: f64 = values.iter().sum();
        let backward: f64 = values.iter().rev().sum();
        assert!(close(forward, backward));
        assert!(!close(forward * (1.0 + 1e-7), forward));
        assert!(!close(forward + 1.0, forward));
        assert!(close(0.0, 1e-12));
    }

    #[test]
    fn q1_check_rejects_each_perturbed_field() {
        let want = tpch::q1_reference(&tpch::lineitem(5_000, 3));
        assert!(q1_matches(&want.clone(), &want));
        let mut count = want.clone();
        count[0].count += 1;
        assert!(!q1_matches(&count, &want));
        let mut sum = want.clone();
        sum[2].sum_charge *= 1.0 + 1e-6;
        assert!(!q1_matches(&sum, &want));
        let mut group = want.clone();
        group[1].group = 99;
        assert!(!q1_matches(&group, &want));
        assert!(!q1_matches(&want[1..], &want));
    }

    #[test]
    fn q9_check_rejects_a_changed_row() {
        let want = tpch::q9_reference(&tpch::q9_data(5_000, 200, 16, 4, KeyDist::Zipf, 5));
        assert!(!want.is_empty());
        let mut profit = want.clone();
        profit[0].profit_c += 1;
        assert!(!q9_matches(&profit, &want));
        let mut rows = want.clone();
        rows.pop();
        assert!(!q9_matches(&rows, &want));
    }

    #[test]
    fn q18_check_rejects_missing_and_changed_rows() {
        let orders = tpch::orders(500, 7);
        let lineitem = tpch::lineitem_q18(20_000, 500, KeyDist::Zipf, 7);
        let want = tpch::q18_reference(&lineitem, &orders, 100.0);
        assert!(want.len() > 1);
        assert!(q18_matches(&want.clone(), &want));
        assert!(!q18_matches(&want[1..], &want));
        let mut total = want.clone();
        total[0].total_qty += 1.0;
        assert!(!q18_matches(&total, &want));
        let mut key = want.clone();
        key[0].o_orderkey += 1;
        assert!(!q18_matches(&key, &want));
    }
}
