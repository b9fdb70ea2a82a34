//! F2 — Size diversity: distinct advertised sizes per malware family vs
//! per benign filename.
//!
//! Paper provenance: the filtering insight assumes "the most commonly seen
//! sizes of the most popular malware" are few — this figure measures that
//! premise directly.

use p2pmal_analysis::{size_census, size_table, Comparison, Expectation};
use p2pmal_bench::{banner, limewire_run};

fn main() {
    let cfg = p2pmal_bench::config();
    banner("F2", "characteristic-size census (LimeWire)");
    let lw = limewire_run(&cfg);
    let census = size_census(&lw.resolved);
    println!("{}", size_table("LimeWire", &census).to_markdown());

    println!("CDF of distinct-size counts per malware family:");
    for (v, f) in &census.malware_cdf {
        println!("  <= {v} sizes: {:.0}%", f * 100.0);
    }
    let benign_multi = census
        .benign_distinct_counts
        .iter()
        .filter(|&&c| c > 1)
        .count();
    println!(
        "\nbenign downloadable names observed: {} ({} with more than one size)\n",
        census.benign_distinct_counts.len(),
        benign_multi
    );

    let max_sizes = census
        .malware_sizes
        .values()
        .map(|v| v.len() as u64)
        .max()
        .unwrap_or(0);
    let mut c = Comparison::new();
    c.push(Expectation::new(
        "F2-few-sizes",
        "max distinct sizes observed for any malware family",
        2.0,
        1.0,
        max_sizes as f64,
    ));
    println!("{}", c.to_table().to_markdown());
    if !cfg.quick && !c.all_hold() {
        eprintln!("WARNING: paper-scale expectations out of band");
        std::process::exit(1);
    }
}
