//! Descending ranked lists with prefix sums (the `L_d`, `L_λ`, `L_e` of the
//! paper), backing both the Eq. 12 normalizers and the Algorithm 2
//! incremental bound.

/// A list of per-candidate values, ranked descending, with O(1) rank/value
/// lookups and prefix sums.
#[derive(Debug, Clone)]
pub struct RankedList {
    /// Candidate ids in descending value order.
    order: Vec<u32>,
    /// Values indexed by candidate id.
    value_of: Vec<f64>,
    /// Rank (0-based) indexed by candidate id.
    rank_of: Vec<u32>,
    /// `prefix[i] = Σ` of the `i` largest values.
    prefix: Vec<f64>,
}

impl RankedList {
    /// Builds the ranking from values indexed by candidate id: descending
    /// by value, ties (−0.0 and 0.0 included) broken by ascending id.
    ///
    /// # Panics
    /// Panics with "values are not NaN" if any value is NaN.
    pub fn new(values: &[f64]) -> Self {
        // Sorting `(!key, id)` pairs ascending is the descending value
        // order with ids ascending within a tie. Ids are unique, so the
        // unstable sort yields the one stable order.
        let mut keyed: Vec<(u64, u32)> = values
            .iter()
            .zip(0u32..)
            .map(|(&v, id)| {
                assert!(!v.is_nan(), "values are not NaN");
                (!order_key(v), id)
            })
            .collect();
        keyed.sort_unstable();
        Self::from_order(keyed.into_iter().map(|(_, id)| id).collect(), values)
    }

    /// Completes a list from its descending `order` over `values`.
    fn from_order(order: Vec<u32>, values: &[f64]) -> Self {
        let n = values.len();
        let mut rank_of = vec![0u32; n];
        for (rank, &id) in order.iter().enumerate() {
            rank_of[id as usize] = rank as u32;
        }
        let mut prefix = Vec::with_capacity(n + 1);
        prefix.push(0.0);
        for &id in &order {
            prefix.push(prefix.last().unwrap() + values[id as usize]);
        }
        RankedList { order, value_of: values.to_vec(), rank_of, prefix }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Value of candidate `id` (the paper's `L[e]`).
    pub fn value(&self, id: u32) -> f64 {
        self.value_of[id as usize]
    }

    /// The `i`-th largest value, 0-based (the paper's `L(i+1)`).
    pub fn value_by_rank(&self, i: usize) -> f64 {
        self.value_of[self.order[i] as usize]
    }

    /// 0-based rank of candidate `id`.
    pub fn rank(&self, id: u32) -> usize {
        self.rank_of[id as usize] as usize
    }

    /// Sum of the `k` largest values (`k` is clamped to the list length).
    pub fn top_k_sum(&self, k: usize) -> f64 {
        self.prefix[k.min(self.order.len())]
    }

    /// Iterator over candidate ids in descending value order.
    pub fn iter_desc(&self) -> impl Iterator<Item = u32> + '_ {
        self.order.iter().copied()
    }
}

/// A key whose unsigned order is the numeric order of `v`, for any
/// non-NaN `v`: the sign bit is flipped for non-negative values and every
/// bit for negative ones. `v + 0.0` maps −0.0 to 0.0, so the two tie as
/// they do under `partial_cmp`.
fn order_key(v: f64) -> u64 {
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// State of the Algorithm 2 incremental upper bound over one ranked list.
///
/// Maintains `ub = Σ top-cur values + Σ displaced path-edge values`, a valid
/// upper bound on the total value of any completion of the path to `k`
/// edges, updated in O(1) per appended edge (vs. the Eq. 9 rescan).
#[derive(Debug, Clone, Copy)]
pub struct IncrementalBound {
    /// Current upper bound.
    pub ub: f64,
    /// Cursor into the ranked list (the paper's `cur`).
    pub cur: usize,
}

impl IncrementalBound {
    /// Initial bound for a seed edge (paper Algorithm 1, lines 22–25):
    /// start from the top-k sum; if the seed is outside the top-k, swap the
    /// k-th element for it.
    pub fn for_seed(list: &RankedList, k: usize, seed: u32) -> Self {
        let k_eff = k.min(list.len());
        let mut ub = list.top_k_sum(k_eff);
        let mut cur = k_eff;
        if k_eff > 0 && list.rank(seed) >= k_eff {
            ub -= list.value_by_rank(k_eff - 1) - list.value(seed);
            cur = k_eff - 1;
        }
        IncrementalBound { ub, cur }
    }

    /// Appends edge `e` (paper Algorithm 2, lines 1–3): if `e` ranks below
    /// the cursor window, one top slot is actually consumed by `e`, so the
    /// bound tightens by the gap.
    pub fn append(&mut self, list: &RankedList, e: u32) {
        if self.cur == 0 {
            return;
        }
        let boundary = list.value_by_rank(self.cur - 1);
        if boundary > list.value(e) {
            self.ub -= boundary - list.value(e);
            self.cur -= 1;
        }
    }
}

/// The Eq. 9 rescan bound, used as a test oracle for [`IncrementalBound`]:
/// demand of the path plus the top `k − len` values not on the path.
pub fn rescan_bound(list: &RankedList, k: usize, path: &[u32]) -> f64 {
    let on_path: std::collections::HashSet<u32> = path.iter().copied().collect();
    let mut total: f64 = path.iter().map(|&e| list.value(e)).sum();
    let budget = k.saturating_sub(path.len());
    let mut taken = 0;
    for id in list.iter_desc() {
        if taken == budget {
            break;
        }
        if !on_path.contains(&id) {
            total += list.value(id);
            taken += 1;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::strategy::sample_from;

    use crate::fault::panic_message;

    /// The comparator ranking the keyed sort replaced, kept as its oracle:
    /// a stable `sort_by` on `partial_cmp`, descending, ties by id.
    fn comparator_oracle(values: &[f64]) -> RankedList {
        let mut order: Vec<u32> = (0..values.len() as u32).collect();
        order.sort_by(|&a, &b| {
            values[b as usize]
                .partial_cmp(&values[a as usize])
                .expect("values are not NaN")
                .then(a.cmp(&b))
        });
        RankedList::from_order(order, values)
    }

    /// Values that tie often or sit at the edges of the f64 range.
    const SPECIAL: [f64; 8] = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1.0];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        // Every lookup of the keyed rank is bit-identical to the
        // comparator rank's, over values with many ties, both zeros,
        // subnormals and ±1e300.
        #[test]
        fn keyed_rank_equals_the_comparator_rank(
            values in collection::vec(
                (sample_from((0..16).collect::<Vec<usize>>()), -20.0f64..20.0).prop_map(
                    |(pick, x)| match pick {
                        0..=7 => SPECIAL[pick],
                        8..=11 => x.round(),
                        _ => x,
                    },
                ),
                0..2001,
            ),
        ) {
            let (keyed, oracle) = (RankedList::new(&values), comparator_oracle(&values));
            prop_assert_eq!(keyed.len(), oracle.len());
            prop_assert!(keyed.iter_desc().eq(oracle.iter_desc()), "iter_desc");
            for i in 0..values.len() {
                let id = i as u32;
                prop_assert_eq!(keyed.rank(id), oracle.rank(id), "rank({})", id);
                prop_assert_eq!(keyed.value(id).to_bits(), oracle.value(id).to_bits());
                prop_assert_eq!(
                    keyed.value_by_rank(i).to_bits(),
                    oracle.value_by_rank(i).to_bits(),
                    "value_by_rank({})",
                    i
                );
            }
            for k in 0..=values.len() + 1 {
                prop_assert_eq!(
                    keyed.top_k_sum(k).to_bits(),
                    oracle.top_k_sum(k).to_bits(),
                    "top_k_sum({})",
                    k
                );
            }
        }
    }

    #[test]
    fn nan_panics_like_the_comparator_rank() {
        let values = [1.0, f64::NAN, 0.5];
        for build in [RankedList::new, comparator_oracle] {
            let payload = std::panic::catch_unwind(|| build(&values)).expect_err("NaN panics");
            assert_eq!(panic_message(payload), "values are not NaN");
        }
    }

    fn list() -> RankedList {
        RankedList::new(&[5.0, 9.0, 1.0, 7.0, 3.0])
    }

    #[test]
    fn ranking_and_prefix() {
        let l = list();
        assert_eq!(l.len(), 5);
        assert_eq!(l.value_by_rank(0), 9.0);
        assert_eq!(l.iter_desc().next(), Some(1));
        assert_eq!(l.rank(1), 0);
        assert_eq!(l.rank(2), 4);
        assert_eq!(l.top_k_sum(3), 21.0); // 9 + 7 + 5
        assert_eq!(l.top_k_sum(99), 25.0); // clamped
    }

    #[test]
    fn ties_break_by_id() {
        let l = RankedList::new(&[2.0, 2.0, 2.0]);
        assert_eq!(l.iter_desc().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn seed_inside_top_k() {
        let l = list();
        let b = IncrementalBound::for_seed(&l, 3, 1); // rank 0 < 3
        assert_eq!(b.ub, 21.0);
        assert_eq!(b.cur, 3);
    }

    #[test]
    fn seed_outside_top_k_swaps_boundary() {
        let l = list();
        let b = IncrementalBound::for_seed(&l, 3, 2); // value 1 at rank 4
                                                      // 21 − (5 − 1) = 17
        assert_eq!(b.ub, 17.0);
        assert_eq!(b.cur, 2);
    }

    #[test]
    fn append_tightens_for_low_value_edges() {
        let l = list();
        let mut b = IncrementalBound::for_seed(&l, 3, 1);
        b.append(&l, 2); // value 1 < boundary 5 ⇒ ub −= 4
        assert_eq!(b.ub, 17.0);
        assert_eq!(b.cur, 2);
        b.append(&l, 1); // value 9 ≥ new boundary 7 ⇒ unchanged
        assert_eq!(b.ub, 17.0);
        assert_eq!(b.cur, 2);
    }

    #[test]
    fn incremental_dominates_rescan() {
        // The O(1) bound must never dip below the exact Eq. 9 rescan.
        let values = [4.0, 8.0, 6.0, 2.0, 9.0, 5.0, 7.0, 1.0];
        let l = RankedList::new(&values);
        let k = 4;
        for seed in 0..values.len() as u32 {
            let mut b = IncrementalBound::for_seed(&l, k, seed);
            let mut path = vec![seed];
            for next in (0..values.len() as u32).filter(|&x| x != seed).take(k - 1) {
                b.append(&l, next);
                path.push(next);
                let oracle = rescan_bound(&l, k, &path);
                assert!(
                    b.ub >= oracle - 1e-12,
                    "incremental {} < rescan {} for path {:?}",
                    b.ub,
                    oracle,
                    path
                );
            }
        }
    }

    #[test]
    fn cursor_never_underflows() {
        let l = RankedList::new(&[3.0, 2.0, 1.0]);
        let mut b = IncrementalBound::for_seed(&l, 1, 2);
        assert_eq!(b.cur, 0);
        b.append(&l, 2); // no-op at cur == 0
        assert_eq!(b.cur, 0);
    }

    #[test]
    fn empty_list() {
        let l = RankedList::new(&[]);
        assert!(l.is_empty());
        assert_eq!(l.top_k_sum(5), 0.0);
    }
}
