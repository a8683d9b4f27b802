//! The standard matrix chain algorithm (paper Sec. 2, Fig. 3).
//!
//! Classic `O(n³)` dynamic programming over the size array: factor `i`
//! has shape `sizes[i] × sizes[i+1]`, and the cost of a product
//! `A·B` with `A ∈ R^{n×k}`, `B ∈ R^{k×m}` is `2·m·n·k` FLOPs.

use std::fmt;

/// The result of the classic matrix chain DP: optimal FLOP count and the
/// split table for reconstructing the parenthesization.
#[derive(Clone, Debug)]
pub struct McpSolution {
    sizes: Vec<usize>,
    /// `costs[i][j]`: minimal FLOPs for the sub-chain `M[i..=j]`.
    costs: Vec<Vec<f64>>,
    /// `splits[i][j]`: the `k` realizing the optimum.
    splits: Vec<Vec<usize>>,
}

impl McpSolution {
    /// Number of factors.
    pub fn len(&self) -> usize {
        self.sizes.len() - 1
    }

    /// Chains are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The optimal FLOP count for the whole chain.
    pub fn flops(&self) -> f64 {
        self.costs[0][self.len() - 1]
    }

    /// The optimal split `k` for the sub-chain `M[i..=j]` (the product
    /// is computed as `M[i..=k] · M[k+1..=j]`).
    ///
    /// # Panics
    ///
    /// Panics if `i >= j` or `j` is out of range.
    pub fn split(&self, i: usize, j: usize) -> usize {
        assert!(i < j && j < self.len(), "invalid sub-chain range");
        self.splits[i][j]
    }

    /// The fully parenthesized chain, using the provided factor names.
    ///
    /// # Panics
    ///
    /// Panics if `names.len() != self.len()`.
    pub fn parenthesization(&self, names: &[&str]) -> String {
        assert_eq!(names.len(), self.len(), "one name per factor required");
        let mut out = String::new();
        self.write_paren(0, self.len() - 1, names, &mut out);
        out
    }

    fn write_paren(&self, i: usize, j: usize, names: &[&str], out: &mut String) {
        if i == j {
            out.push_str(names[i]);
        } else {
            let k = self.splits[i][j];
            out.push('(');
            self.write_paren(i, k, names, out);
            self.write_paren(k + 1, j, names, out);
            out.push(')');
        }
    }

    /// The multiplication order as a list of `(i, j, k)` triples in
    /// dependency order: compute `M[i..=j] = M[i..=k]·M[k+1..=j]`.
    pub fn order(&self) -> Vec<(usize, usize, usize)> {
        let mut out = Vec::new();
        self.collect_order(0, self.len() - 1, &mut out);
        out
    }

    fn collect_order(&self, i: usize, j: usize, out: &mut Vec<(usize, usize, usize)>) {
        if i == j {
            return;
        }
        let k = self.splits[i][j];
        self.collect_order(i, k, out);
        self.collect_order(k + 1, j, out);
        out.push((i, j, k));
    }
}

impl fmt::Display for McpSolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<String> = (0..self.len()).map(|i| format!("M{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        write!(
            f,
            "{} ({} flops)",
            self.parenthesization(&refs),
            self.flops()
        )
    }
}

/// Runs the classic matrix chain DP (paper Fig. 3).
///
/// `sizes` has length `n+1`: factor `i` is `sizes[i] × sizes[i+1]`.
///
/// # Panics
///
/// Panics if fewer than two factors are described (`sizes.len() < 3`).
pub fn matrix_chain_order(sizes: &[usize]) -> McpSolution {
    assert!(sizes.len() >= 3, "need at least two factors");
    let n = sizes.len() - 1;
    let mut costs = vec![vec![0.0_f64; n]; n];
    let mut splits = vec![vec![0_usize; n]; n];
    for l in 1..n {
        for i in 0..(n - l) {
            let j = i + l;
            let mut best = f64::INFINITY;
            let mut best_k = i;
            for k in i..j {
                let c = 2.0 * (sizes[i] * sizes[k + 1] * sizes[j + 1]) as f64;
                let cost = costs[i][k] + costs[k + 1][j] + c;
                if cost < best {
                    best = cost;
                    best_k = k;
                }
            }
            costs[i][j] = best;
            splits[i][j] = best_k;
        }
    }
    McpSolution {
        sizes: sizes.to_vec(),
        costs,
        splits,
    }
}

/// Exhaustively enumerates all parenthesizations and returns the optimal
/// FLOP count — exponential, for testing the DP (n ≤ ~12).
pub fn brute_force_flops(sizes: &[usize]) -> f64 {
    assert!(sizes.len() >= 2, "need at least one factor");
    fn rec(sizes: &[usize], i: usize, j: usize) -> f64 {
        if i == j {
            return 0.0;
        }
        let mut best = f64::INFINITY;
        for k in i..j {
            let c = 2.0 * (sizes[i] * sizes[k + 1] * sizes[j + 1]) as f64;
            let total = rec(sizes, i, k) + rec(sizes, k + 1, j) + c;
            if total < best {
                best = total;
            }
        }
        best
    }
    rec(sizes, 0, sizes.len() - 2)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl McpSolution {
        /// The optimal FLOP count for the sub-chain `M[i..=j]`.
        fn sub_flops(&self, i: usize, j: usize) -> f64 {
            assert!(i <= j && j < self.len(), "invalid sub-chain range");
            self.costs[i][j]
        }
    }

    #[test]
    fn textbook_example() {
        // CLRS-style example with easy hand-checkable sizes.
        // A: 10x100, B: 100x5, C: 5x50.
        // (AB)C: 2*(10*100*5) + 2*(10*5*50) = 10000 + 5000 = 15000.
        // A(BC): 2*(100*5*50) + 2*(10*100*50) = 50000 + 100000 = 150000.
        let sol = matrix_chain_order(&[10, 100, 5, 50]);
        assert_eq!(sol.flops(), 15000.0);
        assert_eq!(sol.parenthesization(&["A", "B", "C"]), "((AB)C)");
    }

    #[test]
    fn paper_sec33_chain() {
        // ABCDE with sizes 130, 700, 383, 1340, 193, 900 — the paper
        // reports 3.16e8 FLOPs for the optimum (((AB)C)D)E.
        let sol = matrix_chain_order(&[130, 700, 383, 1340, 193, 900]);
        assert_eq!(
            sol.parenthesization(&["A", "B", "C", "D", "E"]),
            "((((AB)C)D)E)"
        );
        assert!((sol.flops() - 3.16e8).abs() / 3.16e8 < 0.01);
    }

    #[test]
    fn matches_brute_force() {
        // A deterministic battery of small size arrays.
        let cases: &[&[usize]] = &[
            &[5, 10, 3, 12, 5],
            &[40, 20, 30, 10, 30],
            &[10, 20, 30],
            &[7, 3, 9, 2, 11, 4, 6],
            &[100, 1, 100, 1, 100],
        ];
        for sizes in cases {
            let dp = matrix_chain_order(sizes);
            let bf = brute_force_flops(sizes);
            assert_eq!(dp.flops(), bf, "sizes {sizes:?}");
        }
    }

    #[test]
    fn order_respects_dependencies() {
        let sol = matrix_chain_order(&[10, 100, 5, 50, 1]);
        let order = sol.order();
        assert_eq!(order.len(), 3); // n-1 products for n factors
                                    // The final entry must be the full chain.
        assert_eq!(order.last().unwrap().0, 0);
        assert_eq!(order.last().unwrap().1, 3);
        // Every sub-product must appear before a product that contains it.
        for (idx, &(i, j, _)) in order.iter().enumerate() {
            for &(i2, j2, _) in &order[idx + 1..] {
                assert!(!(i2 >= i && j2 <= j && (i2, j2) != (i, j)));
            }
        }
    }

    #[test]
    fn length_two_chain() {
        let sol = matrix_chain_order(&[3, 4, 5]);
        assert_eq!(sol.flops(), 120.0);
        assert_eq!(sol.parenthesization(&["A", "B"]), "(AB)");
    }

    #[test]
    fn vector_chain_prefers_right_to_left() {
        // M1 M2 v: evaluating matrix-vector products right-to-left is
        // optimal.
        let sol = matrix_chain_order(&[100, 100, 100, 1]);
        assert_eq!(sol.parenthesization(&["M1", "M2", "v"]), "(M1(M2v))");
    }

    #[test]
    fn sub_flops_accessors() {
        let sol = matrix_chain_order(&[10, 100, 5, 50]);
        assert_eq!(sol.sub_flops(0, 0), 0.0);
        assert_eq!(sol.sub_flops(0, 1), 2.0 * 10.0 * 100.0 * 5.0);
        assert_eq!(sol.split(0, 2), 1);
    }
}
