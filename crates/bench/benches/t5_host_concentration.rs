//! T5 — Host concentration of malicious responses.
//!
//! Paper claim (abstract): "In OpenFT, the top virus, which accounts of
//! 67% of all the malicious responses, is served by a single host."

use p2pmal_analysis::{host_concentration, host_table, top_malware, Comparison, Expectation};
use p2pmal_bench::{banner, limewire_run, openft_run};

fn main() {
    let cfg = p2pmal_bench::config();
    banner("T5", "host concentration of malicious responses");
    let lw = limewire_run(&cfg);
    let ft = openft_run(&cfg);

    let lw_hosts = host_concentration(&lw.resolved);
    println!("{}", host_table("LimeWire", &lw_hosts, 10).to_markdown());
    let ft_hosts = host_concentration(&ft.resolved);
    println!("{}", host_table("OpenFT", &ft_hosts, 10).to_markdown());

    // The paper's claim couples T3 and T5: the OpenFT top *host* serves the
    // top *virus* and carries its entire share.
    let top_host_pct = ft_hosts.first().map(|h| h.pct_of_malicious).unwrap_or(0.0);
    let top_family = top_malware(&ft.resolved);
    let top_family_pct = top_family.first().map(|s| s.pct).unwrap_or(0.0);
    let single_family_host = ft_hosts
        .first()
        .map(|h| h.families.len() == 1)
        .unwrap_or(false);
    println!(
        "top OpenFT host serves {:.1}% of malicious responses; top family {:.1}%; host serves exactly one family: {}\n",
        top_host_pct, top_family_pct, single_family_host
    );

    let mut c = Comparison::new();
    c.push(Expectation::new(
        "T5-openft-top-host",
        "top OpenFT host's share of malicious responses",
        67.0,
        10.0,
        top_host_pct,
    ));
    c.push(Expectation::new(
        "T5-host-family-coupling",
        "top host share minus top family share (same thing in the paper)",
        0.0,
        3.0,
        top_host_pct - top_family_pct,
    ));
    println!("{}", c.to_table().to_markdown());
    if !cfg.quick && !c.all_hold() {
        eprintln!("WARNING: paper-scale expectations out of band");
        std::process::exit(1);
    }
}
