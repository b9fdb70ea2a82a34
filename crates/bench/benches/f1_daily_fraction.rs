//! F1 — Daily fraction of malicious downloadable responses over the
//! collection month, both networks.
//!
//! Paper provenance: "Our results from over a month of data" — the daily
//! series shows the prevalence level is persistent, not a burst.

use p2pmal_analysis::{daily_fraction, daily_table, Comparison, Expectation};
use p2pmal_bench::{banner, limewire_run, openft_run};

fn main() {
    let cfg = p2pmal_bench::config();
    banner("F1", "daily malicious fraction over the collection period");
    let lw = limewire_run(&cfg);
    let ft = openft_run(&cfg);

    let lw_days = daily_fraction(&lw.resolved);
    println!("{}", daily_table("LimeWire", &lw_days).to_markdown());
    let ft_days = daily_fraction(&ft.resolved);
    println!("{}", daily_table("OpenFT", &ft_days).to_markdown());

    // ASCII sparkline of the LimeWire series.
    let spark: String = lw_days
        .iter()
        .map(|(_, _, _, f)| {
            let levels = [' ', '.', ':', '-', '=', '+', '*', '#'];
            levels[((f * 7.0).round() as usize).min(7)]
        })
        .collect();
    println!("LimeWire daily fraction (0..1): [{spark}]\n");

    // Shape checks: the series is persistent (low relative spread), not a
    // single-day artifact.
    let fracs: Vec<f64> = lw_days.iter().map(|d| d.3).collect();
    let mean = fracs.iter().sum::<f64>() / fracs.len().max(1) as f64;
    let spread = fracs
        .iter()
        .map(|f| (f - mean).abs())
        .fold(0.0f64, f64::max);
    let mut c = Comparison::new();
    c.push(Expectation::new(
        "F1-mean",
        "mean daily malicious fraction (LimeWire), percent",
        68.0,
        10.0,
        100.0 * mean,
    ));
    c.push(Expectation::new(
        "F1-stability",
        "max daily deviation from the mean (percentage points)",
        0.0,
        12.0,
        100.0 * spread,
    ));
    println!("{}", c.to_table().to_markdown());
    if !cfg.quick && !c.all_hold() {
        eprintln!("WARNING: paper-scale expectations out of band");
        std::process::exit(1);
    }
}
