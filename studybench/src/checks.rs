//! Output checks. Each check counts into `checks_run`; a failing one also
//! counts into `checks_failed` and is named in the result.

use p2pmal_analysis::Comparison;
use p2pmal_corpus::{Catalog, ContentRef, ContentStore, Roster};
use p2pmal_crawler::{CrawlLog, ResolvedResponse};
use std::collections::BTreeSet;

#[derive(Debug, Default)]
pub struct Checks {
    pub run: u64,
    pub failed: Vec<String>,
    /// Expectation bands evaluated, and the ones that missed (whether or
    /// not they counted as checks).
    pub bands: u64,
    pub band_misses: Vec<String>,
    /// Verdict size/SHA-1 mismatches seen where transfers may be corrupted,
    /// reported but not counted.
    pub unverified: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failed.push(what());
        }
    }

    /// Every paper-vs-measured expectation band. `counted` bands are
    /// checks; the others are only reported.
    pub fn bands(&mut self, comparison: &Comparison, counted: bool) {
        for e in &comparison.expectations {
            self.bands += 1;
            let miss = || {
                format!(
                    "band {}: measured {:.2}, paper {} ± {}",
                    e.id, e.measured, e.paper, e.tolerance
                )
            };
            if !e.holds() {
                self.band_misses.push(miss());
            }
            if counted {
                self.check(e.holds(), miss);
            }
        }
    }

    /// For every distinct malicious verdict `(family, advertised size,
    /// SHA-1)`: the family is in the roster, the size is one of its sizes,
    /// and the SHA-1 is the store's ground truth for that family and size.
    ///
    /// Size and SHA-1 are ground truth only on a fault-free network: a fault
    /// plan that corrupts chunks can flip bits in a QUERYHIT's size field or
    /// in a body, so with `faithful` false those mismatches are reported,
    /// not counted.
    pub fn verdicts(
        &mut self,
        resolved: &[ResolvedResponse],
        roster: &Roster,
        store: &ContentStore,
        catalog: &Catalog,
        faithful: bool,
    ) {
        let verdicts: BTreeSet<_> = resolved
            .iter()
            .filter_map(|r| {
                let name = r.malware.as_deref()?;
                Some((name, r.record.size, r.sha1.map(|d| d.0)))
            })
            .collect();
        for (name, size, sha1) in verdicts {
            let family = roster.by_name(name);
            self.check(family.is_some(), || {
                format!("verdict {name}: not in roster")
            });
            let Some(family) = family else { continue };
            let size_idx = family.sizes.iter().position(|&s| s == size);
            self.ground_truth(faithful, size_idx.is_some(), || {
                format!("verdict {name}: size {size} not in {:?}", family.sizes)
            });
            let ground = size_idx.map(|i| {
                store
                    .sha1_of(
                        ContentRef::Malware {
                            family: family.id,
                            size_idx: i as u8,
                        },
                        catalog,
                        roster,
                    )
                    .0
            });
            self.ground_truth(faithful, sha1.is_some() && sha1 == ground, || {
                format!("verdict {name} size {size}: SHA-1 differs from the content store")
            });
        }
    }

    fn ground_truth(&mut self, faithful: bool, ok: bool, what: impl FnOnce() -> String) {
        if faithful {
            self.check(ok, what);
        } else if !ok {
            self.unverified.push(what());
        }
    }

    /// Every failed download attempt is either retried or terminal.
    pub fn crawl_log(&mut self, log: &CrawlLog) {
        let total = log.failures.total();
        let expected = log.retries_scheduled + log.downloads_failed;
        self.check(total == expected, || {
            format!(
                "crawl log: failures {total} != retries {} + downloads_failed {}",
                log.retries_scheduled, log.downloads_failed
            )
        });
    }
}
