//! The study's instrumentation layer.
//!
//! Kalafut et al. instrumented two clients — LimeWire on Gnutella and giFT
//! on OpenFT — to log every query response for over a month, download the
//! responses whose names marked them as archives or executables, and scan
//! the downloads with an AV engine. This crate is that instrumentation:
//!
//! * [`workload`] — the continuous query workload (catalog popularity plus
//!   generic 2006-era search strings, diurnally modulated);
//! * [`log`] — response records, download dedup (by filename+size and by
//!   host+size), scan outcomes, and the response↔verdict join;
//! * [`gnutella`] — [`gnutella::GnutellaCrawler`], the instrumented leaf
//!   servent (queries, hit logging, direct + PUSH downloads, scanning);
//! * [`openft`] — [`openft::FtCrawler`], the instrumented USER node
//!   (searches against every discovered SEARCH node, MD5 downloads,
//!   scanning).
//!
//! Both crawlers are [`p2pmal_netsim::App`]s; a harness (see
//! `p2pmal-core`) spawns them into a simulated network, runs simulated
//! weeks, and takes the [`log::CrawlLog`] out for analysis.

pub mod gnutella;
pub mod log;
pub mod openft;
pub mod retry;
pub mod scan;
pub mod trace;
pub mod workload;

pub use gnutella::{GnutellaCrawler, GnutellaCrawlerConfig};
pub use log::{
    is_downloadable_name, CrawlLog, HostKey, Network, ResolvedResponse, ResponseRecord, ScanOutcome,
};
pub use openft::{FtCrawler, FtCrawlerConfig};
pub use retry::{FailCause, FailureBreakdown, RetryPolicy};
pub use scan::{ScanPipeline, ScanStats, DEFAULT_SCAN_CACHE_ENTRIES};
pub use trace::DlTrace;
pub use workload::{Workload, WorkloadConfig, GENERIC_TERMS};
