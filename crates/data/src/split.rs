//! Seeded train/test splitting.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::BTreeMap;
use udm_core::{ClassLabel, Result, UdmError, UncertainDataset};

/// A train/test split of a dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Split {
    /// Training portion.
    pub train: UncertainDataset,
    /// Held-out test portion.
    pub test: UncertainDataset,
}

fn validate_fraction(test_fraction: f64) -> Result<()> {
    if !(test_fraction.is_finite() && (0.0..1.0).contains(&test_fraction) && test_fraction > 0.0) {
        return Err(UdmError::InvalidValue {
            what: "test fraction",
            value: test_fraction,
        });
    }
    Ok(())
}

/// Stratified split: preserves per-class proportions by splitting each
/// class independently (unlabelled points are split like their own class).
///
/// # Errors
///
/// [`UdmError::InvalidValue`] for a fraction outside `(0, 1)`;
/// [`UdmError::EmptyDataset`] when either side would be empty.
pub fn stratified_split(data: &UncertainDataset, test_fraction: f64, seed: u64) -> Result<Split> {
    validate_fraction(test_fraction)?;
    if data.len() < 2 {
        return Err(UdmError::EmptyDataset);
    }
    // Group indices per label (None -> its own bucket).
    let mut buckets: BTreeMap<Option<ClassLabel>, Vec<usize>> = BTreeMap::new();
    for (i, p) in data.iter().enumerate() {
        buckets.entry(p.label()).or_default().push(i);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut train = UncertainDataset::new(data.dim());
    let mut test = UncertainDataset::new(data.dim());
    for (_, mut idxs) in buckets {
        idxs.shuffle(&mut rng);
        // len·fraction <= len for the validated fraction ∈ (0, 1).
        #[allow(clippy::cast_possible_truncation)]
        let n_test = if idxs.len() == 1 {
            0 // lone member goes to train; can't represent both sides
        } else {
            ((idxs.len() as f64 * test_fraction).round() as usize)
                .max(1)
                .min(idxs.len() - 1)
        };
        for (rank, &i) in idxs.iter().enumerate() {
            let p = data.point(i).clone();
            if rank < n_test {
                test.push(p)?;
            } else {
                train.push(p)?;
            }
        }
    }
    if test.is_empty() || train.is_empty() {
        return Err(UdmError::EmptyDataset);
    }
    Ok(Split { train, test })
}

#[cfg(test)]
mod tests {
    use super::*;
    use udm_core::UncertainPoint;

    fn labelled_data(n: usize) -> UncertainDataset {
        UncertainDataset::from_points(
            (0..n)
                .map(|i| {
                    UncertainPoint::exact(vec![i as f64])
                        .unwrap()
                        .with_label(ClassLabel((i % 4 == 0) as u32))
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn split_is_deterministic() {
        let d = labelled_data(50);
        let a = stratified_split(&d, 0.2, 9).unwrap();
        let b = stratified_split(&d, 0.2, 9).unwrap();
        assert_eq!(a, b);
        let c = stratified_split(&d, 0.2, 10).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn split_partitions_without_duplication() {
        let d = labelled_data(40);
        let s = stratified_split(&d, 0.25, 3).unwrap();
        let mut seen: Vec<f64> = s
            .train
            .iter()
            .chain(s.test.iter())
            .map(|p| p.value(0))
            .collect();
        seen.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let expected: Vec<f64> = (0..40).map(|i| i as f64).collect();
        assert_eq!(seen, expected);
    }

    #[test]
    fn split_rejects_bad_fraction_and_tiny_data() {
        let d = labelled_data(10);
        assert!(stratified_split(&d, 0.0, 0).is_err());
        assert!(stratified_split(&d, 1.0, 0).is_err());
        assert!(stratified_split(&d, -0.5, 0).is_err());
        let single = labelled_data(1);
        assert!(stratified_split(&single, 0.5, 0).is_err());
    }

    #[test]
    fn both_sides_nonempty_even_for_extreme_fractions() {
        let d = labelled_data(5);
        let s = stratified_split(&d, 0.01, 0).unwrap();
        assert!(!s.test.is_empty());
        let s = stratified_split(&d, 0.99, 0).unwrap();
        assert!(!s.train.is_empty());
    }

    #[test]
    fn stratified_preserves_proportions() {
        let d = labelled_data(400); // 25% class 1
        let s = stratified_split(&d, 0.25, 5).unwrap();
        let test_part = s.test.partition_by_class();
        let frac1 = test_part.prior(ClassLabel(1));
        assert!((frac1 - 0.25).abs() < 0.02, "class-1 prior {frac1}");
        assert_eq!(s.train.len() + s.test.len(), 400);
    }

    #[test]
    fn stratified_handles_singleton_class() {
        let mut d = labelled_data(10);
        d.push(
            UncertainPoint::exact(vec![99.0])
                .unwrap()
                .with_label(ClassLabel(7)),
        )
        .unwrap();
        let s = stratified_split(&d, 0.3, 2).unwrap();
        // The lone class-7 point must be in train.
        assert!(s.train.iter().any(|p| p.label() == Some(ClassLabel(7))));
        assert!(!s.test.iter().any(|p| p.label() == Some(ClassLabel(7))));
    }
}
