//! The Apriori-style subspace roll-up of Figure 3.
//!
//! Starting from all 1-dimensional subspaces (`C_1`), each level keeps the
//! subspaces in which some class exceeds the accuracy threshold (`L_i`)
//! and generates the next candidate level by joining with `L_1`
//! (`C_{i+1} = L_i ⋈ L_1`). The join construction itself enforces the
//! paper's roll-up requirement that an `(i+1)`-dimensional candidate has
//! at least one qualifying `i`-dimensional subset.
//!
//! Candidates are visited in ascending bitmask order within a level (the
//! order of [`Subspace`]'s `Ord`), which is also the order an oracle's
//! prefix memo expects: every level is evaluated in full before the next.

use crate::config::ClassifierConfig;
use udm_core::{ClassLabel, Result, Subspace};

/// Supplies local accuracies `A(x, S, l_i)` for a fixed test point `x`.
///
/// Implemented by the classifier model (backed by micro-cluster densities,
/// Eq. 11); test code substitutes table-driven fakes.
pub trait AccuracyOracle {
    /// The class labels `l_1 … l_k`, in a stable order.
    fn labels(&self) -> &[ClassLabel];

    /// Replaces the contents of `out` with `A(x, S, l)` for every label,
    /// aligned with [`Self::labels`]. The caller owns `out` and reuses it
    /// across subspaces, so an evaluation need not allocate.
    fn accuracies(&self, subspace: Subspace, out: &mut Vec<f64>) -> Result<()>;
}

/// A subspace that cleared the threshold, with its dominant class.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscriminativeSubspace {
    /// The qualifying set of dimensions.
    pub subspace: Subspace,
    /// The best local accuracy over classes, `max_i A(x, S, l_i)`.
    pub accuracy: f64,
    /// The dominant class `dom(x, S)` (Eq. 12).
    pub label: ClassLabel,
}

/// Engineering guards on the roll-up (see [`ClassifierConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RollupLimits {
    /// Stop after subspaces of this many dimensions.
    pub max_dim: Option<usize>,
    /// Evaluate at most this many candidates per level: the first ones in
    /// ascending bitmask order.
    pub max_candidates_per_level: Option<usize>,
}

impl RollupLimits {
    /// Extracts the limits from a classifier configuration.
    pub fn from_config(config: &ClassifierConfig) -> Self {
        RollupLimits {
            max_dim: config.max_subspace_dim,
            max_candidates_per_level: config.max_candidates_per_level,
        }
    }
}

/// Result of a roll-up: all qualifying subspaces plus the best evaluated
/// singleton (used as a fallback when nothing qualifies).
#[derive(Debug, Clone, PartialEq)]
pub struct RollupOutcome {
    /// `L = ∪_i L_i`, every subspace that cleared the threshold.
    pub qualifying: Vec<DiscriminativeSubspace>,
    /// The best singleton subspace even if below threshold (`None` only
    /// for zero-dimensional data).
    pub best_singleton: Option<DiscriminativeSubspace>,
    /// Number of accuracy evaluations performed (one per candidate
    /// subspace) — the cost driver behind Fig. 10's dimensionality sweep.
    pub candidates_evaluated: usize,
}

fn dominant(labels: &[ClassLabel], accs: &[f64]) -> Option<(ClassLabel, f64)> {
    let mut best: Option<(ClassLabel, f64)> = None;
    for (&l, &a) in labels.iter().zip(accs.iter()) {
        if !a.is_finite() {
            continue;
        }
        match best {
            Some((_, b)) if a <= b => {}
            _ => best = Some((l, a)),
        }
    }
    best
}

/// `C_{i+1} = L_i ⋈ L_1` into `out`: ascending, without duplicates, and
/// cut to the first `cap` candidates.
///
/// `level` is ascending (the roll-up keeps qualifiers in candidate
/// order), so its joins with one singleton form an ascending run too.
/// Each run is merged into `out` through `merged`, which costs fewer
/// comparisons than sorting the `|L_i|·|L_1|` joins, most of them
/// duplicates.
fn join_level(
    level: &[Subspace],
    l1: &[Subspace],
    cap: Option<usize>,
    out: &mut Vec<Subspace>,
    merged: &mut Vec<Subspace>,
) {
    debug_assert!(level.windows(2).all(|w| w[0] < w[1]));
    out.clear();
    for &one in l1 {
        merged.clear();
        let mut so_far = out.iter().copied().peekable();
        for joined in level.iter().filter_map(|&s| s.join(one)) {
            while let Some(earlier) = so_far.next_if(|&c| c < joined) {
                merged.push(earlier);
            }
            so_far.next_if_eq(&joined);
            merged.push(joined);
        }
        merged.extend(so_far);
        std::mem::swap(out, merged);
    }
    if let Some(cap) = cap {
        out.truncate(cap);
    }
}

/// Runs the bottom-up roll-up of Fig. 3 for one test instance.
///
/// `dimensionality` is the data dimensionality `d`; `threshold` is `a`.
pub fn rollup<O: AccuracyOracle>(
    oracle: &O,
    dimensionality: usize,
    threshold: f64,
    limits: RollupLimits,
) -> Result<RollupOutcome> {
    let mut merged = Vec::new();
    rollup_with(
        oracle,
        dimensionality,
        threshold,
        limits,
        |level, l1, cap, out| {
            join_level(level, l1, cap, out, &mut merged);
        },
    )
}

/// [`rollup`] over an explicit level join, so tests can run the roll-up
/// over a reference join too.
fn rollup_with<O: AccuracyOracle>(
    oracle: &O,
    dimensionality: usize,
    threshold: f64,
    limits: RollupLimits,
    mut join: impl FnMut(&[Subspace], &[Subspace], Option<usize>, &mut Vec<Subspace>),
) -> Result<RollupOutcome> {
    udm_observe::span!("rollup");
    let labels = oracle.labels();
    let mut accs = Vec::with_capacity(labels.len());
    let mut qualifying: Vec<DiscriminativeSubspace> = Vec::new();
    let mut best_singleton: Option<DiscriminativeSubspace> = None;
    let mut candidates_evaluated = 0usize;
    // Apriori bookkeeping, tallied locally and published once at the end:
    // a candidate with a dominant class whose accuracy misses `a` is a
    // threshold rejection; any evaluated candidate that does not qualify
    // is pruned from further expansion.
    let mut threshold_rejects: u64 = 0;
    let mut pruned: u64 = 0;

    // Level 1: all singletons.
    let mut candidates: Vec<Subspace> = Vec::new();
    for dim in 0..dimensionality.min(Subspace::MAX_DIMS) {
        candidates.push(Subspace::singleton(dim)?);
    }
    let mut l1: Vec<Subspace> = Vec::new();
    let mut current_level: Vec<Subspace> = Vec::new();
    let mut level_dim = 1usize;
    loop {
        current_level.clear();
        for &s in &candidates {
            oracle.accuracies(s, &mut accs)?;
            candidates_evaluated += 1;
            let mut qualified = false;
            if let Some((label, accuracy)) = dominant(labels, &accs) {
                let ds = DiscriminativeSubspace {
                    subspace: s,
                    accuracy,
                    label,
                };
                if level_dim == 1 && best_singleton.is_none_or(|b| accuracy > b.accuracy) {
                    best_singleton = Some(ds);
                }
                if accuracy > threshold {
                    qualifying.push(ds);
                    current_level.push(s);
                    qualified = true;
                } else {
                    threshold_rejects += 1;
                }
            }
            if !qualified {
                pruned += 1;
            }
        }
        if level_dim == 1 {
            l1.clone_from(&current_level);
        }

        // Levels 2..: C_{i+1} = L_i ⋈ L_1.
        level_dim += 1;
        if current_level.is_empty() || limits.max_dim.is_some_and(|max| level_dim > max) {
            break;
        }
        join(
            &current_level,
            &l1,
            limits.max_candidates_per_level,
            &mut candidates,
        );
    }

    udm_observe::counter_add!(
        "udm_classify_rollup_candidates_total",
        u64::try_from(candidates_evaluated).unwrap_or(u64::MAX)
    );
    udm_observe::counter_add!("udm_classify_rollup_pruned_total", pruned);
    udm_observe::counter_add!(
        "udm_classify_rollup_threshold_rejects_total",
        threshold_rejects
    );

    Ok(RollupOutcome {
        qualifying,
        best_singleton,
        candidates_evaluated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::HashMap;

    /// Wraps an oracle and records every subspace handed to it, in order.
    pub(super) struct Recording<O> {
        inner: O,
        seen: RefCell<Vec<Subspace>>,
    }

    impl<O> Recording<O> {
        pub(super) fn new(inner: O) -> Self {
            Recording {
                inner,
                seen: RefCell::new(Vec::new()),
            }
        }

        pub(super) fn seen_bits(&self) -> Vec<u64> {
            self.seen.borrow().iter().map(|s| s.bits()).collect()
        }
    }

    impl<O: AccuracyOracle> AccuracyOracle for Recording<O> {
        fn labels(&self) -> &[ClassLabel] {
            self.inner.labels()
        }
        fn accuracies(&self, s: Subspace, out: &mut Vec<f64>) -> Result<()> {
            self.seen.borrow_mut().push(s);
            self.inner.accuracies(s, out)
        }
    }

    /// Table-driven oracle: accuracy of label 0 per subspace; label 1 gets
    /// the complement.
    struct TableOracle {
        labels: Vec<ClassLabel>,
        table: HashMap<u64, f64>,
        default: f64,
    }

    impl AccuracyOracle for TableOracle {
        fn labels(&self) -> &[ClassLabel] {
            &self.labels
        }
        fn accuracies(&self, s: Subspace, out: &mut Vec<f64>) -> Result<()> {
            let a = *self.table.get(&s.bits()).unwrap_or(&self.default);
            out.clear();
            out.extend([a, 1.0 - a]);
            Ok(())
        }
    }

    fn oracle(entries: &[(&[usize], f64)], default: f64) -> TableOracle {
        TableOracle {
            labels: vec![ClassLabel(0), ClassLabel(1)],
            table: entries
                .iter()
                .map(|(dims, a)| (Subspace::from_dims(dims).unwrap().bits(), *a))
                .collect(),
            default,
        }
    }

    #[test]
    fn finds_qualifying_singletons() {
        let o = oracle(&[(&[0], 0.9), (&[1], 0.3)], 0.5);
        let out = rollup(&o, 2, 0.8, RollupLimits::default()).unwrap();
        // {0} qualifies with acc 0.9 for label 0; {1} has max(0.3, 0.7)=0.7 < 0.8
        assert_eq!(out.qualifying.len(), 1);
        assert_eq!(out.qualifying[0].subspace, Subspace::singleton(0).unwrap());
        assert_eq!(out.qualifying[0].label, ClassLabel(0));
    }

    #[test]
    fn complement_class_can_dominate() {
        let o = oracle(&[(&[0], 0.1)], 0.5); // label 1 gets 0.9
        let out = rollup(&o, 1, 0.8, RollupLimits::default()).unwrap();
        assert_eq!(out.qualifying.len(), 1);
        assert_eq!(out.qualifying[0].label, ClassLabel(1));
        assert!((out.qualifying[0].accuracy - 0.9).abs() < 1e-12);
    }

    #[test]
    fn joins_build_second_level() {
        // Both singletons qualify; pair {0,1} qualifies higher still.
        let o = oracle(&[(&[0], 0.85), (&[1], 0.85), (&[0, 1], 0.95)], 0.5);
        let out = rollup(&o, 2, 0.8, RollupLimits::default()).unwrap();
        let subspaces: Vec<_> = out.qualifying.iter().map(|d| d.subspace).collect();
        assert!(subspaces.contains(&Subspace::from_dims(&[0, 1]).unwrap()));
        assert_eq!(out.qualifying.len(), 3);
    }

    #[test]
    fn no_expansion_from_non_qualifying_singletons() {
        // Pair {0,1} would have high accuracy but neither singleton
        // qualifies, so the roll-up never reaches it (Apriori pruning).
        let o = oracle(&[(&[0], 0.6), (&[1], 0.6), (&[0, 1], 0.99)], 0.5);
        let out = rollup(&o, 2, 0.8, RollupLimits::default()).unwrap();
        assert!(out.qualifying.is_empty());
        // fallback still reports the best singleton (0.6)
        let bs = out.best_singleton.unwrap();
        assert!((bs.accuracy - 0.6).abs() < 1e-12);
    }

    #[test]
    fn best_singleton_tracked_even_when_qualifying() {
        let o = oracle(&[(&[0], 0.95), (&[1], 0.85)], 0.5);
        let out = rollup(&o, 2, 0.8, RollupLimits::default()).unwrap();
        assert_eq!(
            out.best_singleton.unwrap().subspace,
            Subspace::singleton(0).unwrap()
        );
    }

    #[test]
    fn max_dim_limit_stops_expansion() {
        let o = oracle(&[], 0.95); // everything qualifies
        let limited = rollup(
            &o,
            4,
            0.8,
            RollupLimits {
                max_dim: Some(2),
                max_candidates_per_level: None,
            },
        )
        .unwrap();
        let max_card = limited
            .qualifying
            .iter()
            .map(|d| d.subspace.cardinality())
            .max()
            .unwrap();
        assert_eq!(max_card, 2);
    }

    #[test]
    fn unlimited_rollup_explores_all_levels() {
        let o = oracle(&[], 0.95);
        let out = rollup(&o, 4, 0.8, RollupLimits::default()).unwrap();
        // all non-empty subsets of 4 dims = 15
        assert_eq!(out.qualifying.len(), 15);
        assert_eq!(out.candidates_evaluated, 15);
    }

    #[test]
    fn candidate_cap_bounds_work_per_level() {
        let o = Recording::new(oracle(&[], 0.95));
        let out = rollup(
            &o,
            6,
            0.8,
            RollupLimits {
                max_dim: None,
                max_candidates_per_level: Some(3),
            },
        )
        .unwrap();
        // All 6 singletons, then the first 3 joins of each level in
        // ascending bitmask order: {0,1} {0,2} {1,2}, then {0,1,2}
        // {0,1,3} {0,2,3}, and so on up to the full space.
        let expected: [u64; 19] = [
            0b1, 0b10, 0b100, 0b1000, 0b1_0000, 0b10_0000, // level 1
            0b11, 0b101, 0b110, // level 2
            0b111, 0b1011, 0b1101, // level 3
            0b1111, 0b1_0111, 0b1_1011, // level 4
            0b1_1111, 0b10_1111, 0b11_0111, // level 5
            0b11_1111, // level 6
        ];
        assert_eq!(o.seen_bits(), expected);
        assert_eq!(out.candidates_evaluated, expected.len());
    }

    #[test]
    fn zero_dimensional_data() {
        let o = oracle(&[], 0.9);
        let out = rollup(&o, 0, 0.5, RollupLimits::default()).unwrap();
        assert!(out.qualifying.is_empty());
        assert!(out.best_singleton.is_none());
        assert_eq!(out.candidates_evaluated, 0);
    }

    #[test]
    fn threshold_is_strict() {
        let o = oracle(&[(&[0], 0.8)], 0.0);
        let out = rollup(&o, 1, 0.8, RollupLimits::default()).unwrap();
        assert!(out.qualifying.is_empty()); // A > a, not >=
    }

    #[test]
    fn max_extension_oracle_reaches_exactly_the_qualifying_powerset() {
        // Oracle where A(S) = max over singletons in S of a per-dimension
        // base accuracy. Then L1 = qualifying singletons, and because the
        // join only ever adds dimensions from L1, the reachable set is
        // exactly the non-empty powerset of L1: 2^m − 1 subspaces.
        struct MaxOracle {
            labels: Vec<ClassLabel>,
            base: Vec<f64>,
        }
        impl AccuracyOracle for MaxOracle {
            fn labels(&self) -> &[ClassLabel] {
                &self.labels
            }
            fn accuracies(&self, s: Subspace, out: &mut Vec<f64>) -> Result<()> {
                let a = s
                    .dims()
                    .map(|d| self.base[d])
                    .fold(f64::NEG_INFINITY, f64::max);
                out.clear();
                out.extend([a]);
                Ok(())
            }
        }
        let base = vec![0.9, 0.3, 0.85, 0.1, 0.95];
        let threshold = 0.8;
        let m = base.iter().filter(|&&a| a > threshold).count();
        let o = MaxOracle {
            labels: vec![ClassLabel(0)],
            base,
        };
        let out = rollup(&o, 5, threshold, RollupLimits::default()).unwrap();
        assert_eq!(out.qualifying.len(), (1 << m) - 1);
        for q in &out.qualifying {
            assert!(q.accuracy > threshold);
        }
    }

    #[test]
    fn nan_accuracies_are_skipped() {
        struct NanOracle {
            labels: Vec<ClassLabel>,
        }
        impl AccuracyOracle for NanOracle {
            fn labels(&self) -> &[ClassLabel] {
                &self.labels
            }
            fn accuracies(&self, _: Subspace, out: &mut Vec<f64>) -> Result<()> {
                out.clear();
                out.extend([f64::NAN, 0.9]);
                Ok(())
            }
        }
        let o = NanOracle {
            labels: vec![ClassLabel(0), ClassLabel(1)],
        };
        let out = rollup(&o, 1, 0.5, RollupLimits::default()).unwrap();
        assert_eq!(out.qualifying.len(), 1);
        assert_eq!(out.qualifying[0].label, ClassLabel(1));
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::Recording;
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    struct RandomOracle {
        labels: Vec<ClassLabel>,
        /// Varies the accuracies between oracles.
        salt: u64,
    }

    impl RandomOracle {
        fn new(salt: u64) -> Self {
            RandomOracle {
                labels: vec![ClassLabel(0), ClassLabel(1)],
                salt,
            }
        }
    }

    impl AccuracyOracle for RandomOracle {
        fn labels(&self) -> &[ClassLabel] {
            &self.labels
        }
        fn accuracies(&self, s: Subspace, out: &mut Vec<f64>) -> Result<()> {
            // Deterministic pseudo-random accuracy per subspace.
            let mut z = (s.bits() ^ self.salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            z ^= z >> 29;
            let a = (z % 1000) as f64 / 1000.0;
            out.clear();
            out.extend([a, 1.0 - a]);
            Ok(())
        }
    }

    /// A `BTreeSet` join: the reference whose candidate order and cap
    /// `join_level` must reproduce.
    fn btree_join(
        level: &[Subspace],
        l1: &[Subspace],
        cap: Option<usize>,
        out: &mut Vec<Subspace>,
    ) {
        let mut candidates: BTreeSet<Subspace> = BTreeSet::new();
        for &s in level {
            for &one in l1 {
                if let Some(joined) = s.join(one) {
                    candidates.insert(joined);
                }
            }
        }
        out.clear();
        out.extend(candidates.into_iter().take(cap.unwrap_or(usize::MAX)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn merged_join_matches_the_btree_reference(
            dims in 1usize..11,
            threshold in 0.5f64..0.95,
            salt in 0u64..u64::MAX,
            cap in option::of(1usize..7),
        ) {
            let limits = RollupLimits { max_dim: None, max_candidates_per_level: cap };
            let fast = Recording::new(RandomOracle::new(salt));
            let reference = Recording::new(RandomOracle::new(salt));
            let got = rollup(&fast, dims, threshold, limits).unwrap();
            let want = rollup_with(&reference, dims, threshold, limits, btree_join).unwrap();
            prop_assert_eq!(got, want);
            prop_assert_eq!(fast.seen_bits(), reference.seen_bits());
        }

        #[test]
        fn every_qualifying_subspace_clears_the_threshold(
            dims in 1usize..8,
            thr in 0.5f64..0.95,
        ) {
            let o = RandomOracle::new(0);
            let out = rollup(&o, dims, thr, RollupLimits::default()).unwrap();
            for q in &out.qualifying {
                prop_assert!(q.accuracy > thr);
                prop_assert!(!q.subspace.is_empty());
                prop_assert!(q.subspace.validate_for(dims).is_ok());
            }
            // No duplicates.
            let mut seen: Vec<u64> = out.qualifying.iter().map(|q| q.subspace.bits()).collect();
            seen.sort_unstable();
            let before = seen.len();
            seen.dedup();
            prop_assert_eq!(seen.len(), before);
        }

        #[test]
        fn apriori_property_holds(
            dims in 2usize..7,
            thr in 0.5f64..0.9,
        ) {
            // Every qualifying subspace with |S| ≥ 2 must contain at least
            // one qualifying (|S|−1)-subset — the roll-up's construction
            // invariant.
            let o = RandomOracle::new(0);
            let out = rollup(&o, dims, thr, RollupLimits::default()).unwrap();
            let qualifying: std::collections::HashSet<u64> =
                out.qualifying.iter().map(|q| q.subspace.bits()).collect();
            for q in &out.qualifying {
                if q.subspace.cardinality() >= 2 {
                    let has_qualifying_subset = q
                        .subspace
                        .proper_subsets_one_smaller()
                        .any(|sub| qualifying.contains(&sub.bits()));
                    prop_assert!(has_qualifying_subset, "{} lacks a qualifying subset", q.subspace);
                }
            }
        }
    }
}
