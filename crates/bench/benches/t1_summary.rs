//! T1 — Data-collection summary (both networks).
//!
//! Paper claims reproduced here (abstract): "68% of all downloadable
//! responses in Limewire containing archives and executables contain
//! malware. The corresponding number for OpenFT is 3%."
//!
//! ```sh
//! cargo bench -p p2pmal-bench --bench t1_summary
//! P2PMAL_QUICK=1 cargo bench -p p2pmal-bench --bench t1_summary   # minutes-scale
//! ```

use p2pmal_analysis::{summarize, summary_table, Comparison, Expectation};
use p2pmal_bench::{banner, limewire_run, openft_run};
use p2pmal_crawler::CrawlLog;

fn main() {
    let cfg = p2pmal_bench::config();
    banner("T1", "data collection summary");
    let lw = limewire_run(&cfg);
    let ft = openft_run(&cfg);

    let mut summaries = Vec::new();
    for run in [&lw, &ft] {
        let mut log = CrawlLog::new();
        log.queries_issued = run.queries_issued;
        log.downloads_attempted = run.downloads_attempted;
        log.downloads_failed = run.downloads_failed;
        summaries.push(summarize(run.network.label(), &log, &run.resolved));
    }
    println!("{}", summary_table(&summaries).to_markdown());
    println!(
        "diagnostics: LW {} sim events, {} downloads ({} failed); FT {} sim events, {} downloads ({} failed)\n",
        lw.sim_events, lw.downloads_attempted, lw.downloads_failed,
        ft.sim_events, ft.downloads_attempted, ft.downloads_failed,
    );

    let mut c = Comparison::new();
    c.push(Expectation::new(
        "T1-limewire",
        "% malicious among scanned downloadable responses (LimeWire)",
        68.0,
        8.0,
        summaries[0].malicious_pct,
    ));
    c.push(Expectation::new(
        "T1-openft",
        "% malicious among scanned downloadable responses (OpenFT)",
        3.0,
        2.5,
        summaries[1].malicious_pct,
    ));
    println!("{}", c.to_table().to_markdown());
    if !cfg.quick && !c.all_hold() {
        eprintln!("WARNING: paper-scale expectations out of band");
        std::process::exit(1);
    }
}
