//! F4 — Query-echo amplification: why malicious responses dominate.
//!
//! An infected echo host answers (nearly) every query it sees; a clean
//! host answers only queries matching its library. This asymmetry is the
//! mechanism behind the 68% headline number; this figure measures it.

use p2pmal_analysis::{echo_amplification, Comparison, Expectation, Table};
use p2pmal_bench::{banner, limewire_run};

fn main() {
    let cfg = p2pmal_bench::config();
    banner("F4", "query-echo amplification (LimeWire)");
    let lw = limewire_run(&cfg);
    let amp = echo_amplification(&lw.resolved);

    let mut t = Table::new(
        "F4 — Distinct queries answered per host",
        &["host class", "hosts", "mean distinct queries answered"],
    );
    t.row(vec![
        "serving malware".into(),
        amp.malicious_hosts.to_string(),
        format!("{:.1}", amp.malicious_host_queries),
    ]);
    t.row(vec![
        "clean".into(),
        amp.clean_hosts.to_string(),
        format!("{:.1}", amp.clean_host_queries),
    ]);
    println!("{}", t.to_markdown());

    let ratio = if amp.clean_host_queries > 0.0 {
        amp.malicious_host_queries / amp.clean_host_queries
    } else {
        f64::INFINITY
    };
    println!("amplification ratio: {ratio:.1}x\n");

    let mut c = Comparison::new();
    c.push(Expectation::new(
        "F4-amplification",
        "log10 of (queries answered per infected host / per clean host)",
        2.0, // echo worms answer ~100x more distinct queries
        1.5,
        ratio.log10(),
    ));
    println!("{}", c.to_table().to_markdown());
    if !cfg.quick && !c.all_hold() {
        eprintln!("WARNING: paper-scale expectations out of band");
        std::process::exit(1);
    }
}
