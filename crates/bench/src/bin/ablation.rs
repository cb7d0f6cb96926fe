//! Accuracy-side ablations of the design choices called out in
//! `DESIGN.md`, on the adult stand-in at f = 0.5 and f = 1.0 (the
//! transition region where configuration choices are not yet saturated
//! by the prior):
//!
//! * assignment distance: Eq. 5 vs Euclidean vs unclamped Eq. 5,
//! * query-error convolution on/off,
//! * error-kernel normalization: renormalized vs Eq. 3 as printed,
//! * bandwidth rule: Silverman vs Scott vs over/under-smoothed Silverman.
//!
//! Usage: `ablation [n] [seed]` (defaults: 2000, 7).

use udm_bench::{render_table, write_results_file, ExperimentConfig};
use udm_classify::{evaluate, ClassifierConfig, DensityClassifier};
use udm_data::{stratified_split, ErrorModel, UciDataset};
use udm_kde::{BandwidthRule, ErrorKernelForm};
use udm_microcluster::AssignmentDistance;

fn main() {
    let mut args = std::env::args().skip(1);
    let n = args.next().and_then(|a| a.parse().ok()).unwrap_or(2000);
    let seed = args.next().and_then(|a| a.parse().ok()).unwrap_or(7);
    let cfg = ExperimentConfig {
        n,
        seed,
        ..Default::default()
    };

    let clean = UciDataset::Adult.generate(cfg.n, cfg.seed);
    let splits: Vec<_> = [0.5, 1.0]
        .iter()
        .map(|&f| {
            let noisy = ErrorModel::paper(f)
                .apply(&clean, cfg.seed ^ 0x9E37_79B9)
                .expect("noise model applies");
            stratified_split(&noisy, cfg.test_fraction, cfg.seed ^ 0x5851_F42D)
                .expect("split succeeds")
        })
        .collect();

    let accuracy = |c: ClassifierConfig, i: usize| -> f64 {
        let m = DensityClassifier::fit(&splits[i].train, c).expect("training succeeds");
        evaluate(&m, &splits[i].test)
            .expect("evaluation succeeds")
            .accuracy()
    };

    let base = ClassifierConfig::error_adjusted(140);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut add = |name: &str, c: ClassifierConfig| {
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", accuracy(c, 0)),
            format!("{:.4}", accuracy(c, 1)),
        ]);
    };

    add("baseline (paper config)", base);
    add("distance: euclidean", {
        let mut c = base;
        c.distance = AssignmentDistance::Euclidean;
        c
    });
    add("distance: unclamped eq.5", {
        let mut c = base;
        c.distance = AssignmentDistance::ErrorAdjustedUnclamped;
        c
    });
    add("no query-error convolution", {
        let mut c = base;
        c.convolve_query_error = false;
        c
    });
    add("kernel form: paper-faithful", {
        let mut c = base;
        c.kernel_form = ErrorKernelForm::PaperFaithful;
        c
    });
    add("bandwidth: scott", {
        let mut c = base;
        c.bandwidth = BandwidthRule::Scott;
        c
    });
    add("bandwidth: 0.5x silverman", {
        let mut c = base;
        c.bandwidth = BandwidthRule::ScaledSilverman(0.5);
        c
    });
    add("bandwidth: 2x silverman", {
        let mut c = base;
        c.bandwidth = BandwidthRule::ScaledSilverman(2.0);
        c
    });
    add(
        "no error adjustment at all",
        ClassifierConfig::unadjusted(140),
    );

    let table = render_table(&["variant", "acc@f=0.5", "acc@f=1.0"], &rows);
    println!("Ablations — adult, q=140, n={n}, seed={seed}");
    println!("{table}");
    if let Ok(path) = write_results_file("ablation_adult.txt", &table) {
        eprintln!("wrote {}", path.display());
    }
}
