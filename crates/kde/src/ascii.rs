//! Terminal rendering of 1-D density curves.
//!
//! Turns a [`Grid1D`] into a column chart of unicode block glyphs — the
//! quickest way to *see* what the error adjustment does to a density
//! (`udm density --grid`). Pure string formatting; no terminal control
//! codes.

use crate::grid::Grid1D;

/// Eight vertical block glyphs, shortest to tallest.
const BLOCKS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Renders the grid as a multi-row chart of the given height, with an
/// axis line annotated by the x-range and the peak density.
pub fn chart(grid: &Grid1D, height: usize) -> String {
    let height = height.max(1);
    let max = grid.ys.iter().cloned().fold(0.0f64, f64::max);
    let mut out = String::new();
    for row in (0..height).rev() {
        let threshold_lo = row as f64 / height as f64;
        for &y in &grid.ys {
            let frac = if max > 0.0 { y / max } else { 0.0 };
            let cell = if frac <= threshold_lo {
                ' '
            } else {
                let within = ((frac - threshold_lo) * height as f64).clamp(0.0, 1.0);
                // within is clamped to [0, 1]; the level fits in usize.
                #[allow(clippy::cast_possible_truncation)]
                let level = (within * (BLOCKS.len() - 1) as f64).round() as usize;
                BLOCKS[level.min(BLOCKS.len() - 1)]
            };
            out.push(cell);
        }
        out.push('\n');
    }
    let (lo, hi) = match (grid.xs.first(), grid.xs.last()) {
        (Some(&a), Some(&b)) => (a, b),
        _ => (0.0, 0.0),
    };
    out.push_str(&format!(
        "{lo:<12.4}{:>width$.4}  (peak density {max:.4})\n",
        hi,
        width = grid.xs.len().saturating_sub(12).max(1)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(ys: &[f64]) -> Grid1D {
        Grid1D {
            xs: (0..ys.len()).map(|i| i as f64).collect(),
            ys: ys.to_vec(),
        }
    }

    #[test]
    fn chart_has_requested_height_plus_axis() {
        let c = chart(&grid(&[0.1, 0.9, 0.4]), 4);
        assert_eq!(c.lines().count(), 5);
        // tallest column reaches the top row
        let top = c.lines().next().unwrap();
        assert!(top.chars().any(|ch| ch != ' '), "{c}");
    }

    #[test]
    fn chart_axis_mentions_peak() {
        let c = chart(&grid(&[0.25, 0.5]), 2);
        assert!(c.contains("peak density 0.5"), "{c}");
    }

    #[test]
    fn renders_real_density() {
        use crate::estimator::{ErrorKde, KdeConfig};
        use udm_core::{UncertainDataset, UncertainPoint};
        let d = UncertainDataset::from_points(vec![
            UncertainPoint::new(vec![0.0], vec![0.2]).unwrap(),
            UncertainPoint::new(vec![5.0], vec![1.5]).unwrap(),
        ])
        .unwrap();
        let kde = ErrorKde::fit(&d, KdeConfig::default()).unwrap();
        let g = Grid1D::evaluate(-3.0, 9.0, 60, |x| kde.density(&[x])).unwrap();
        let c = chart(&g, 4);
        assert!(
            c.lines().take(4).all(|row| row.chars().count() == 60),
            "{c}"
        );
        assert!(c.contains('█'), "{c}");
    }
}
