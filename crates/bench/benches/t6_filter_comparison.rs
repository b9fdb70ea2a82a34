//! T6 — Filter comparison on the LimeWire log.
//!
//! Paper claim (abstract): "current Limewire mechanisms detect only about
//! 6% of malware containing responses, our size based filtering would
//! detect over 99% of them" — at "a very low rate of false positives".

use p2pmal_analysis::{Comparison, Expectation, Table};
use p2pmal_bench::{banner, limewire_run};
use p2pmal_filter::{
    evaluate, EchoHeuristicFilter, HashBlacklist, LimewireBuiltin, ResponseFilter, SizeFilter,
};

fn main() {
    let cfg = p2pmal_bench::config();
    banner("T6", "filter comparison (LimeWire log)");
    let lw = limewire_run(&cfg);
    let resolved = &lw.resolved;

    // The paper's recipe: most common sizes of the most popular malware.
    let size = SizeFilter::learn(resolved, 3, 2);
    println!(
        "size filter learned blocklist: {:?} (top 3 families, up to 2 sizes each)\n",
        size.blocked_sizes()
    );
    let builtin = LimewireBuiltin::new();
    let echo = EchoHeuristicFilter::new();
    let hash = HashBlacklist::learn(resolved);
    let filters: [&dyn ResponseFilter; 4] = [&builtin, &echo, &hash, &size];

    let mut t = Table::new(
        "T6 — Filter comparison (LimeWire log)",
        &[
            "filter",
            "detection",
            "false positives",
            "precision",
            "TP",
            "FN",
            "FP",
            "TN",
        ],
    );
    let mut builtin_det = 0.0;
    let mut size_det = 0.0;
    let mut size_fp = 0.0;
    for f in filters {
        let ev = evaluate(f, resolved);
        if ev.name == "LimeWire built-in" {
            builtin_det = ev.detection_pct();
        }
        if ev.name == "size-based" {
            size_det = ev.detection_pct();
            size_fp = ev.false_positive_pct();
        }
        t.row(vec![
            ev.name.clone(),
            format!("{:.2}%", ev.detection_pct()),
            format!("{:.3}%", ev.false_positive_pct()),
            format!("{:.2}%", 100.0 * ev.precision()),
            ev.tp.to_string(),
            ev.fn_.to_string(),
            ev.fp.to_string(),
            ev.tn.to_string(),
        ]);
    }
    println!("{}", t.to_markdown());

    let mut c = Comparison::new();
    c.push(Expectation::new(
        "T6-builtin",
        "LimeWire built-in detection rate",
        6.0,
        4.0,
        builtin_det,
    ));
    c.push(Expectation::new(
        "T6-size-detection",
        "size-based detection rate",
        99.0,
        1.5,
        size_det,
    ));
    c.push(Expectation::new(
        "T6-size-fp",
        "size-based false-positive rate",
        0.0,
        1.0,
        size_fp,
    ));
    println!("{}", c.to_table().to_markdown());
    if !cfg.quick && !c.all_hold() {
        eprintln!("WARNING: paper-scale expectations out of band");
        std::process::exit(1);
    }
}
