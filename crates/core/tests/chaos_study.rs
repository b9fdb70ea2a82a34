//! Chaos test: the quick study must survive the `harsh` fault profile on
//! both networks — no panics, every terminal failure classified by cause,
//! retries visibly recovering transfers, and the headline prevalence
//! staying in a sane band even while the network is actively hostile.

use p2pmal_core::{fault_profile, LimewireScenario, NetworkRun, OpenFtScenario};

/// Malicious share of downloadable responses, in percent.
fn prevalence_pct(run: &NetworkRun) -> f64 {
    let downloadable = run.resolved.iter().filter(|r| r.record.downloadable);
    let (mut total, mut malicious) = (0u64, 0u64);
    for r in downloadable {
        total += 1;
        if r.malware.is_some() {
            malicious += 1;
        }
    }
    assert!(
        total > 0,
        "{}: no downloadable responses",
        run.network.label()
    );
    malicious as f64 * 100.0 / total as f64
}

fn assert_chaos_invariants(run: &NetworkRun, prevalence_band: (f64, f64)) {
    let label = run.network.label();
    let log = &run.log;
    let m = &run.sim_metrics;
    eprintln!(
        "{label}: attempted {} failed {} retries {} recovered {} push_fallbacks {} \
         unscannable {} failures {:?} | faults: drop {} corrupt {} reset {} spike {} \
         down {} up {}",
        log.downloads_attempted,
        log.downloads_failed,
        log.retries_scheduled,
        log.retry_successes,
        log.push_fallbacks,
        log.unscannable,
        log.failures,
        m.faults_chunks_dropped,
        m.faults_chunks_corrupted,
        m.faults_resets,
        m.faults_latency_spikes,
        m.faults_churn_downs,
        m.faults_churn_ups,
    );

    // The network was actually hostile.
    assert!(
        m.faults_chunks_dropped > 0,
        "{label}: no chunk loss injected"
    );
    assert!(m.faults_resets > 0, "{label}: no resets injected");
    assert!(m.faults_churn_downs > 0, "{label}: no churn injected");

    // Attempts failed, and every failure carries a cause: each failed
    // attempt either scheduled a retry or went terminal, nothing else.
    assert!(
        log.failures.total() > 0,
        "{label}: harsh profile but no failed attempts"
    );
    assert_eq!(
        log.failures.total(),
        log.retries_scheduled + log.downloads_failed,
        "{label}: unclassified failures ({:?})",
        log.failures
    );
    let nonzero_causes = log.failures.parts().iter().filter(|(_, n)| *n > 0).count();
    assert!(
        nonzero_causes >= 2,
        "{label}: expected several failure causes, got {:?}",
        log.failures
    );

    // The retry pipeline ran and visibly recovered transfers.
    assert!(log.retries_scheduled > 0, "{label}: no retries scheduled");
    assert!(
        log.retry_successes > 0,
        "{label}: retries never recovered a transfer ({} scheduled)",
        log.retries_scheduled
    );

    // The study still measures something sane.
    let prev = prevalence_pct(run);
    assert!(
        prev >= prevalence_band.0 && prev <= prevalence_band.1,
        "{label}: prevalence {prev:.1}% outside sane band {prevalence_band:?}"
    );
}

#[test]
fn limewire_quick_survives_harsh_faults() {
    let (faults, retry) = fault_profile("harsh").expect("harsh profile exists");
    // The stock quick profile only yields a handful of unique downloadable
    // objects — too little traffic for the fault classes to show up in the
    // per-cause breakdown. Give the chaos run extra days, more sharers with
    // bigger libraries, a downloadable-heavy media mix, and a faster query
    // clock so the retry pipeline actually gets exercised.
    let mut scenario = LimewireScenario::quick(2006).with_faults(faults, retry);
    // Pinned to the serial engine: the per-cause failure breakdown below
    // is calibrated against its traffic pattern.
    scenario.shards = 1;
    scenario.days = 5;
    scenario.clean_leaves = 60;
    scenario.files_per_leaf = 30;
    scenario.catalog.media_mix_permille = [300, 100, 300, 220, 50, 30];
    scenario.workload.base_interval_secs = 60;
    let run = scenario.run();
    // The downloadable-heavy catalog dilutes the echo worms' share well
    // below the calibrated 68%, and churn moves it further; the band only
    // guards against the degenerate ends (no malware seen at all, or
    // nothing but malware).
    assert_chaos_invariants(&run, (5.0, 98.0));
}

#[test]
fn openft_quick_survives_harsh_faults() {
    let (faults, retry) = fault_profile("harsh").expect("harsh profile exists");
    let mut scenario = OpenFtScenario::quick(2006 ^ 0xF7).with_faults(faults, retry);
    scenario.shards = 1;
    scenario.days = 5;
    // More downloadable titles and a faster query clock give the fault
    // classes real download traffic. The population itself stays stock:
    // flooding the index with extra clean shares would push the
    // superspreader past the SEARCH nodes' per-query result cap and
    // silently erase the malicious signal.
    scenario.catalog.media_mix_permille = [300, 100, 300, 220, 50, 30];
    scenario.workload.base_interval_secs = 60;
    let run = scenario.run();
    // Fault-free quick runs measure a few percent malicious; the durable
    // superspreader keeps answering while clean users churn, so the share
    // can drift upward under harsh faults.
    assert_chaos_invariants(&run, (0.1, 40.0));
}
