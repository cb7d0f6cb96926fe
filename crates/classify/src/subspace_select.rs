//! Greedy non-overlapping subspace selection (the tail of Fig. 3).
//!
//! "Add set with highest local accuracy in L to N; remove all sets in L
//! which overlap with sets in N" — repeated until L is exhausted or an
//! optional cap `p` is reached.

use crate::rollup::DiscriminativeSubspace;
use std::cmp::Ordering;

/// Selection order: higher accuracy first, then the smaller subspace,
/// then the subspace's canonical (bitmask) order.
fn precedence(a: &DiscriminativeSubspace, b: &DiscriminativeSubspace) -> Ordering {
    b.accuracy
        .partial_cmp(&a.accuracy)
        .unwrap_or(Ordering::Equal)
        .then(a.subspace.cardinality().cmp(&b.subspace.cardinality()))
        .then(a.subspace.cmp(&b.subspace))
}

/// Selects non-overlapping subspaces in descending accuracy order.
///
/// Ties on accuracy are broken by smaller subspace first, then by the
/// subspace's canonical (bitmask) order, so selection is deterministic.
///
/// Each round takes the first remaining set in that order and drops every
/// set it overlaps, as Fig. 3 states it. The rounds are at most one per
/// dimension, so this is a few linear scans rather than a sort of all of
/// `L`.
pub fn select_non_overlapping(
    qualifying: Vec<DiscriminativeSubspace>,
    max_selected: Option<usize>,
) -> Vec<DiscriminativeSubspace> {
    let mut remaining = qualifying;
    let mut selected: Vec<DiscriminativeSubspace> = Vec::new();
    while max_selected.is_none_or(|p| selected.len() < p) {
        let Some(first) =
            (0..remaining.len()).min_by(|&i, &j| precedence(&remaining[i], &remaining[j]))
        else {
            break;
        };
        let best = remaining.swap_remove(first);
        remaining.retain(|c| !c.subspace.overlaps(best.subspace));
        selected.push(best);
    }
    selected
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use udm_core::{ClassLabel, Subspace};

    fn ds(dims: &[usize], acc: f64, label: u32) -> DiscriminativeSubspace {
        DiscriminativeSubspace {
            subspace: Subspace::from_dims(dims).unwrap(),
            accuracy: acc,
            label: ClassLabel(label),
        }
    }

    #[test]
    fn empty_input_empty_output() {
        assert!(select_non_overlapping(vec![], None).is_empty());
    }

    #[test]
    fn highest_accuracy_first() {
        let sel = select_non_overlapping(vec![ds(&[0], 0.7, 0), ds(&[1], 0.9, 1)], None);
        assert_eq!(sel.len(), 2);
        assert_eq!(sel[0].label, ClassLabel(1));
    }

    #[test]
    fn overlapping_lower_accuracy_removed() {
        let sel = select_non_overlapping(
            vec![
                ds(&[0, 1], 0.95, 0),
                ds(&[1, 2], 0.90, 1),
                ds(&[3], 0.85, 1),
            ],
            None,
        );
        // {1,2} overlaps the winner {0,1}; {3} survives.
        assert_eq!(sel.len(), 2);
        assert_eq!(sel[0].subspace, Subspace::from_dims(&[0, 1]).unwrap());
        assert_eq!(sel[1].subspace, Subspace::from_dims(&[3]).unwrap());
    }

    #[test]
    fn cap_p_limits_selection() {
        let sel = select_non_overlapping(
            vec![ds(&[0], 0.9, 0), ds(&[1], 0.8, 0), ds(&[2], 0.7, 1)],
            Some(2),
        );
        assert_eq!(sel.len(), 2);
        assert_eq!(sel[1].subspace, Subspace::singleton(1).unwrap());
    }

    #[test]
    fn tie_break_prefers_smaller_subspace() {
        let sel = select_non_overlapping(vec![ds(&[0, 1], 0.9, 0), ds(&[2], 0.9, 1)], Some(1));
        assert_eq!(sel[0].subspace, Subspace::singleton(2).unwrap());
    }

    #[test]
    fn deterministic_under_permutation() {
        let a = vec![ds(&[0], 0.8, 0), ds(&[1], 0.8, 1), ds(&[2], 0.6, 0)];
        let mut b = a.clone();
        b.reverse();
        assert_eq!(
            select_non_overlapping(a, None),
            select_non_overlapping(b, None)
        );
    }

    /// The selection as a stable sort by precedence, then one scan: the
    /// reference the round-by-round selection must reproduce.
    fn sorted_scan(
        mut qualifying: Vec<DiscriminativeSubspace>,
        max_selected: Option<usize>,
    ) -> Vec<DiscriminativeSubspace> {
        qualifying.sort_by(precedence);
        let mut selected: Vec<DiscriminativeSubspace> = Vec::new();
        for cand in qualifying {
            if max_selected.is_some_and(|p| selected.len() >= p) {
                break;
            }
            if selected.iter().all(|s| !s.subspace.overlaps(cand.subspace)) {
                selected.push(cand);
            }
        }
        selected
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn rounds_match_the_sorted_scan(
            masks in collection::vec(1u64..1024, 0..40),
            levels in collection::vec(0usize..4, 40),
            cap in option::of(0usize..5),
        ) {
            // Distinct subspaces, as the roll-up yields them, with a few
            // accuracy levels so ties are common.
            let mut seen = std::collections::BTreeSet::new();
            let qualifying: Vec<DiscriminativeSubspace> = masks
                .iter()
                .zip(&levels)
                .filter(|(&m, _)| seen.insert(m))
                .map(|(&m, &level)| DiscriminativeSubspace {
                    subspace: Subspace::from_bits(m),
                    accuracy: 0.6 + 0.1 * level as f64,
                    label: ClassLabel((m % 3) as u32),
                })
                .collect();
            prop_assert_eq!(
                select_non_overlapping(qualifying.clone(), cap),
                sorted_scan(qualifying, cap)
            );
        }
    }

    #[test]
    fn disjoint_sets_all_selected() {
        let sel = select_non_overlapping(
            vec![ds(&[0], 0.9, 0), ds(&[1], 0.8, 1), ds(&[2, 3], 0.7, 0)],
            None,
        );
        assert_eq!(sel.len(), 3);
    }
}
