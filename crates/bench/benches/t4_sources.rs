//! T4 — Sources of malicious responses by advertised address class.
//!
//! Paper claim (abstract): "28% of all malicious responses in Limewire
//! come from private address ranges." The mechanism: Gnutella servents
//! embed their locally-configured IP in QUERYHIT payloads, so NATed
//! infected hosts advertise RFC 1918 addresses.

use p2pmal_analysis::{source_breakdown, source_table, Comparison, Expectation};
use p2pmal_bench::{banner, limewire_run, openft_run};

fn main() {
    let cfg = p2pmal_bench::config();
    banner("T4", "sources of malicious responses");
    let lw = limewire_run(&cfg);
    let ft = openft_run(&cfg);

    let lw_sources = source_breakdown(&lw.resolved);
    println!("{}", source_table("LimeWire", &lw_sources).to_markdown());
    let ft_sources = source_breakdown(&ft.resolved);
    println!("{}", source_table("OpenFT", &ft_sources).to_markdown());

    let mut c = Comparison::new();
    c.push(Expectation::new(
        "T4-limewire-private",
        "% of malicious LimeWire responses advertising private addresses",
        28.0,
        8.0,
        lw_sources.private_pct,
    ));
    println!("{}", c.to_table().to_markdown());
    if !cfg.quick && !c.all_hold() {
        eprintln!("WARNING: paper-scale expectations out of band");
        std::process::exit(1);
    }
}
