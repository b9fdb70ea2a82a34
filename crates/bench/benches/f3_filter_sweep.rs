//! F3 — Ablation: size-filter detection and false positives as a function
//! of how many top sizes are blocked, plus the exact-vs-tolerant matching
//! trade-off. Train on the first half of the collection period, test on
//! the second (deployment-honest).

use p2pmal_analysis::Table;
use p2pmal_bench::{banner, limewire_run};
use p2pmal_filter::sweep::{size_filter_sweep, split_by_day, tolerance_ablation};

fn main() {
    let cfg = p2pmal_bench::config();
    banner("F3", "size-filter parameter sweep (LimeWire)");
    let lw = limewire_run(&cfg);
    let split = lw.days / 2;
    let (train, test) = split_by_day(&lw.resolved, split);
    println!(
        "train: days 0..{split} ({} responses); test: days {split}.. ({} responses)\n",
        train.len(),
        test.len()
    );

    let ks = [0usize, 1, 2, 3, 4, 6, 8, 12, 16, 32];
    let points = size_filter_sweep(&train, &test, &ks);
    let mut t = Table::new(
        "F3 — Detection vs number of blocked sizes k",
        &["k", "blocked sizes", "detection", "false positives"],
    );
    for p in &points {
        t.row(vec![
            p.k.to_string(),
            format!("{:?}", p.blocked_sizes),
            format!("{:.2}%", p.eval.detection_pct()),
            format!("{:.3}%", p.eval.false_positive_pct()),
        ]);
    }
    println!("{}", t.to_markdown());

    let mut t = Table::new(
        "F3b — Tolerance ablation at k=4",
        &["tolerance (bytes)", "detection", "false positives"],
    );
    for (tol, ev) in tolerance_ablation(&train, &test, 4, &[0, 512, 1024, 4096, 16384]) {
        t.row(vec![
            tol.to_string(),
            format!("{:.2}%", ev.detection_pct()),
            format!("{:.3}%", ev.false_positive_pct()),
        ]);
    }
    println!("{}", t.to_markdown());

    // Shape check: detection saturates above 99% within a handful of sizes.
    let k_at_99 = points
        .iter()
        .find(|p| p.eval.detection_pct() > 99.0)
        .map(|p| p.k);
    match k_at_99 {
        Some(k) => println!("detection exceeds 99% at k = {k} blocked sizes"),
        None => {
            println!("detection never exceeded 99% in the sweep");
            if !cfg.quick {
                std::process::exit(1);
            }
        }
    }
}
