//! One typed run configuration: every `P2PMAL_*` environment variable is
//! read here, once, and parsed strictly.
//!
//! | variable | value | unset | effect |
//! |---|---|---|---|
//! | `P2PMAL_QUICK` | `0` or `1` | `0` | `1` runs the minutes-scale `quick()` presets instead of paper scale |
//! | `P2PMAL_SEED` | integer | 2006 (`run_study`), 42 (`run_mega`) | the run's seed |
//! | `P2PMAL_SEEDS` | `a,b,c` | no sweep | multi-seed sweep: one two-network study per seed, each on its own thread |
//! | `P2PMAL_DAYS` | 1–3650 | the preset's | collection length in simulated days |
//! | `P2PMAL_FAULTS` | `none`, `mild` or `harsh` | `none` | network fault profile with its calibrated retry policy |
//! | `P2PMAL_RETRIES` | 0–255 | the profile's | per-object retry budget override |
//! | `P2PMAL_SHARDS` | 1–64 | 1 | simulation shards: 1 runs the serial engine, N ≥ 2 the sharded engine (1 s exchange window) |
//! | `P2PMAL_TRACE` | `0`, `off`, `false` or `no`; `1`; `2` | off | `1` prints per-day progress lines on stderr, `2` also every telemetry event; any other value counts as `1` |
//! | `P2PMAL_JOURNAL` | path | none | event journal, written to `<path>.limewire.jsonl` / `<path>.openft.jsonl` |
//! | `P2PMAL_JOURNAL_SAMPLE` | `cat=N,...` | every event | journal every Nth event of a category (`query`, `download`, `scan`, `fault`, `churn`); `N = 0` drops it |
//! | `P2PMAL_BENCH_JSON` | path | `BENCH_study.json` / `BENCH_mega.json` | where `run_study` / `run_mega` write their BENCH summary |
//! | `P2PMAL_MEGA_NODES` | ≥ 1 | 50000 | `run_mega` population size |
//! | `P2PMAL_PERF_SMOKE` | `0` or `1` | `0` | `1` cuts the `perf_*` benches' sample counts (CI smoke) |
//!
//! An empty value counts as unset. Any other `P2PMAL_*` name, any value
//! outside its row, and `P2PMAL_JOURNAL` together with `P2PMAL_SEEDS` (every
//! seed's study would write the same journal files at once) is a
//! [`ConfigError`] naming the variable.

use crate::mega::MegaScenario;
use crate::scenario::{fault_profile, LimewireScenario, OpenFtScenario};
use crate::study::Study;
use p2pmal_crawler::RetryPolicy;
use p2pmal_json::Value;
use p2pmal_netsim::telemetry::{parse_trace_level, EventCategory, CATEGORY_COUNT};
use p2pmal_netsim::{FaultPlan, TelemetryConfig};
use std::fmt;
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::OnceLock;

/// Every harness setting (see the module docs for the variables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunConfig {
    pub quick: bool,
    pub seed: Option<u64>,
    pub seeds: Option<Vec<u64>>,
    pub days: Option<u64>,
    /// Fault profile name, one [`fault_profile`] knows.
    pub faults: String,
    pub retries: Option<u8>,
    pub shards: usize,
    /// Trace level, journal path and journal sampling.
    pub telemetry: TelemetryConfig,
    pub bench_json: Option<PathBuf>,
    pub mega_nodes: Option<u64>,
    pub perf_smoke: bool,
}

/// A `P2PMAL_*` variable the configuration refuses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// The variable's name.
    pub var: String,
    /// What is wrong with it.
    pub reason: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.var, self.reason)
    }
}

impl std::error::Error for ConfigError {}

impl Default for RunConfig {
    /// The empty environment's configuration.
    fn default() -> Self {
        RunConfig {
            quick: false,
            seed: None,
            seeds: None,
            days: None,
            faults: "none".into(),
            retries: None,
            shards: 1,
            telemetry: TelemetryConfig::off(),
            bench_json: None,
            mega_nodes: None,
            perf_smoke: false,
        }
    }
}

impl RunConfig {
    /// The documented variables, in the module table's order.
    pub const VARS: [&'static str; 13] = [
        "P2PMAL_QUICK",
        "P2PMAL_SEED",
        "P2PMAL_SEEDS",
        "P2PMAL_DAYS",
        "P2PMAL_FAULTS",
        "P2PMAL_RETRIES",
        "P2PMAL_SHARDS",
        "P2PMAL_TRACE",
        "P2PMAL_JOURNAL",
        "P2PMAL_JOURNAL_SAMPLE",
        "P2PMAL_BENCH_JSON",
        "P2PMAL_MEGA_NODES",
        "P2PMAL_PERF_SMOKE",
    ];

    /// Parses `(name, value)` pairs, typically a whole environment. Names
    /// without the `P2PMAL_` prefix are ignored.
    pub fn parse<K: AsRef<str>, V: AsRef<str>>(
        vars: impl IntoIterator<Item = (K, V)>,
    ) -> Result<Self, ConfigError> {
        let mut cfg = RunConfig::default();
        for (name, value) in vars {
            let (name, value) = (name.as_ref(), value.as_ref().trim());
            if name.starts_with("P2PMAL_") {
                cfg.set(name, value).map_err(|reason| ConfigError {
                    var: name.into(),
                    reason,
                })?;
            }
        }
        if cfg.seeds.is_some() && cfg.telemetry.journal.is_some() {
            let reason =
                "cannot be combined with P2PMAL_SEEDS: every seed would write the same files";
            return Err(ConfigError {
                var: "P2PMAL_JOURNAL".into(),
                reason: reason.into(),
            });
        }
        Ok(cfg)
    }

    fn set(&mut self, name: &str, value: &str) -> Result<(), String> {
        if !Self::VARS.contains(&name) {
            return Err(format!(
                "unknown variable (known: {})",
                Self::VARS.join(", ")
            ));
        }
        if value.is_empty() {
            return Ok(());
        }
        match name {
            "P2PMAL_QUICK" => self.quick = flag(value)?,
            "P2PMAL_SEED" => self.seed = Some(int(value, 0, u64::MAX)?),
            "P2PMAL_SEEDS" => {
                let seeds = value.split(',').map(|s| int(s.trim(), 0, u64::MAX));
                self.seeds = Some(seeds.collect::<Result<_, _>>()?);
            }
            "P2PMAL_DAYS" => self.days = Some(int(value, 1, 3650)?),
            "P2PMAL_FAULTS" => {
                if fault_profile(value).is_none() {
                    return Err(format!(
                        "`{value}` is not a fault profile (none|mild|harsh)"
                    ));
                }
                self.faults = value.into();
            }
            "P2PMAL_RETRIES" => self.retries = Some(int(value, 0, u8::MAX)?),
            "P2PMAL_SHARDS" => self.shards = int(value, 1, 64)?,
            "P2PMAL_TRACE" => self.telemetry.trace = parse_trace_level(Some(value)),
            "P2PMAL_JOURNAL" => self.telemetry.journal = Some(value.into()),
            "P2PMAL_JOURNAL_SAMPLE" => self.telemetry.sample = journal_sample(value)?,
            "P2PMAL_BENCH_JSON" => self.bench_json = Some(value.into()),
            "P2PMAL_MEGA_NODES" => self.mega_nodes = Some(int(value, 1, u64::MAX)?),
            "P2PMAL_PERF_SMOKE" => self.perf_smoke = flag(value)?,
            _ => unreachable!("{name} is in VARS"),
        }
        Ok(())
    }

    /// Parses the process environment.
    pub fn from_env() -> Result<Self, ConfigError> {
        Self::parse(std::env::vars_os().map(|(k, v)| {
            (
                k.to_string_lossy().into_owned(),
                v.to_string_lossy().into_owned(),
            )
        }))
    }

    /// The process environment's configuration, parsed on first use. The
    /// presets take their engine and telemetry from it. Panics on an
    /// invalid environment; the binaries check it first with
    /// [`RunConfig::from_env`] and exit with the message instead.
    pub fn env() -> &'static RunConfig {
        static ENV: OnceLock<RunConfig> = OnceLock::new();
        ENV.get_or_init(|| Self::from_env().unwrap_or_else(|e| panic!("{e}")))
    }

    /// The study seed of `run_study` and the experiment benches:
    /// `P2PMAL_SEED`, or 2006.
    pub fn study_seed(&self) -> u64 {
        self.seed.unwrap_or(2006)
    }

    /// This configuration re-keyed to another seed (one study of a sweep).
    pub fn with_seed(&self, seed: u64) -> Self {
        RunConfig {
            seed: Some(seed),
            seeds: None,
            ..self.clone()
        }
    }

    /// The fault plan and retry policy this configuration selects.
    pub fn fault_plan(&self) -> (FaultPlan, RetryPolicy) {
        let (plan, mut retry) = fault_profile(&self.faults).expect("profile validated in parse");
        if let Some(n) = self.retries {
            retry.max_retries = n;
        }
        (plan, retry)
    }

    /// The LimeWire scenario: the quick or paper-scale preset under this
    /// configuration's faults, retries, days, shards and telemetry.
    pub fn limewire(&self) -> LimewireScenario {
        let seed = self.study_seed();
        let preset = if self.quick {
            LimewireScenario::quick(seed)
        } else {
            LimewireScenario::paper_scale(seed)
        };
        let (plan, retry) = self.fault_plan();
        let mut s = preset.with_faults(plan, retry);
        s.days = self.days.unwrap_or(s.days);
        s.shards = self.shards;
        s.telemetry = self.telemetry.clone();
        s
    }

    /// The OpenFT scenario, built like [`RunConfig::limewire`], on the seed
    /// the study derives for OpenFT (`seed ^ 0xF7`, as [`Study::quick`]).
    pub fn openft(&self) -> OpenFtScenario {
        let seed = self.study_seed() ^ 0xF7;
        let preset = if self.quick {
            OpenFtScenario::quick(seed)
        } else {
            OpenFtScenario::paper_scale(seed)
        };
        let (plan, retry) = self.fault_plan();
        let mut s = preset.with_faults(plan, retry);
        s.days = self.days.unwrap_or(s.days);
        s.shards = self.shards;
        s.telemetry = self.telemetry.clone();
        s
    }

    /// The two-network study of [`RunConfig::limewire`] and
    /// [`RunConfig::openft`].
    pub fn study(&self) -> Study {
        Study::new()
            .with_limewire(self.limewire())
            .with_openft(self.openft())
    }

    /// The mega-tier world: `P2PMAL_MEGA_NODES` servents (default 50,000),
    /// seed 42 unless `P2PMAL_SEED` is set.
    pub fn mega(&self) -> MegaScenario {
        let mut s = MegaScenario::new(
            self.seed.unwrap_or(42),
            self.mega_nodes.unwrap_or(50_000) as usize,
        );
        s.days = self.days.unwrap_or(s.days);
        s.shards = self.shards;
        s.telemetry = self.telemetry.clone();
        s
    }

    /// Every setting, for the BENCH summaries and run artifacts.
    pub fn to_json(&self) -> Value {
        let path = |p: &Option<PathBuf>| p.as_ref().map(|p| p.display().to_string());
        let t = &self.telemetry;
        Value::Obj(vec![
            ("quick".into(), self.quick.into()),
            ("seed".into(), self.seed.into()),
            (
                "seeds".into(),
                self.seeds
                    .as_ref()
                    .map(|s| Value::Arr(s.iter().map(|&n| n.into()).collect()))
                    .into(),
            ),
            ("days".into(), self.days.into()),
            ("faults".into(), self.faults.as_str().into()),
            ("retries".into(), self.retries.into()),
            ("shards".into(), (self.shards as u64).into()),
            ("trace".into(), t.trace.into()),
            ("journal".into(), path(&t.journal).into()),
            (
                "journal_sample".into(),
                Value::Obj(
                    EventCategory::ALL
                        .iter()
                        .map(|&c| (c.label().into(), t.sample[c as usize].into()))
                        .collect(),
                ),
            ),
            ("bench_json".into(), path(&self.bench_json).into()),
            ("mega_nodes".into(), self.mega_nodes.into()),
            ("perf_smoke".into(), self.perf_smoke.into()),
        ])
    }
}

fn flag(value: &str) -> Result<bool, String> {
    match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("`{value}` is not 0 or 1")),
    }
}

fn int<T: FromStr + PartialOrd + fmt::Display>(value: &str, lo: T, hi: T) -> Result<T, String> {
    match value.parse::<T>() {
        Ok(n) if lo <= n && n <= hi => Ok(n),
        _ => Err(format!("`{value}` is not an integer in {lo}..={hi}")),
    }
}

/// `cat=N,...` pairs over the journal's event categories.
fn journal_sample(spec: &str) -> Result<[u32; CATEGORY_COUNT], String> {
    let mut sample = [1; CATEGORY_COUNT];
    for part in spec.split(',') {
        let (cat, n) = part
            .split_once('=')
            .ok_or_else(|| format!("`{part}` is not a `category=N` pair"))?;
        let cat = EventCategory::from_label(cat.trim())
            .ok_or_else(|| format!("`{}` is not an event category", cat.trim()))?;
        sample[cat as usize] = int(n.trim(), 0, u32::MAX)?;
    }
    Ok(sample)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(pairs: &[(&str, &str)]) -> Result<RunConfig, ConfigError> {
        RunConfig::parse(pairs.iter().copied())
    }

    #[test]
    fn every_documented_variable_round_trips() {
        let d = RunConfig::default;
        let mut sampled = [1; CATEGORY_COUNT];
        sampled[EventCategory::Query as usize] = 10;
        sampled[EventCategory::Churn as usize] = 0;
        let cases: Vec<(&str, &str, RunConfig)> = vec![
            ("P2PMAL_QUICK", "1", RunConfig { quick: true, ..d() }),
            ("P2PMAL_QUICK", "0", d()),
            (
                "P2PMAL_SEED",
                "7",
                RunConfig {
                    seed: Some(7),
                    ..d()
                },
            ),
            (
                "P2PMAL_SEEDS",
                "2006, 7,42",
                RunConfig {
                    seeds: Some(vec![2006, 7, 42]),
                    ..d()
                },
            ),
            (
                "P2PMAL_DAYS",
                "5",
                RunConfig {
                    days: Some(5),
                    ..d()
                },
            ),
            (
                "P2PMAL_FAULTS",
                "harsh",
                RunConfig {
                    faults: "harsh".into(),
                    ..d()
                },
            ),
            (
                "P2PMAL_RETRIES",
                "0",
                RunConfig {
                    retries: Some(0),
                    ..d()
                },
            ),
            ("P2PMAL_SHARDS", "4", RunConfig { shards: 4, ..d() }),
            ("P2PMAL_SHARDS", "64", RunConfig { shards: 64, ..d() }),
            (
                "P2PMAL_TRACE",
                "2",
                RunConfig {
                    telemetry: TelemetryConfig {
                        trace: 2,
                        ..TelemetryConfig::off()
                    },
                    ..d()
                },
            ),
            (
                "P2PMAL_TRACE",
                "yes",
                RunConfig {
                    telemetry: TelemetryConfig {
                        trace: 1,
                        ..TelemetryConfig::off()
                    },
                    ..d()
                },
            ),
            ("P2PMAL_TRACE", "off", d()),
            (
                "P2PMAL_JOURNAL",
                "target/j.jsonl",
                RunConfig {
                    telemetry: TelemetryConfig {
                        journal: Some("target/j.jsonl".into()),
                        ..TelemetryConfig::off()
                    },
                    ..d()
                },
            ),
            (
                "P2PMAL_JOURNAL_SAMPLE",
                "query=10, churn=0",
                RunConfig {
                    telemetry: TelemetryConfig {
                        sample: sampled,
                        ..TelemetryConfig::off()
                    },
                    ..d()
                },
            ),
            (
                "P2PMAL_BENCH_JSON",
                "out/b.json",
                RunConfig {
                    bench_json: Some("out/b.json".into()),
                    ..d()
                },
            ),
            (
                "P2PMAL_MEGA_NODES",
                "250000",
                RunConfig {
                    mega_nodes: Some(250_000),
                    ..d()
                },
            ),
            (
                "P2PMAL_PERF_SMOKE",
                "1",
                RunConfig {
                    perf_smoke: true,
                    ..d()
                },
            ),
            // An empty value is unset.
            ("P2PMAL_SHARDS", "", d()),
        ];
        for (name, value, want) in &cases {
            assert_eq!(&parse(&[(name, value)]).unwrap(), want, "{name}={value}");
        }
        for var in RunConfig::VARS {
            assert!(
                cases.iter().any(|(name, ..)| *name == var),
                "{var} has no case"
            );
        }
    }

    #[test]
    fn unknown_names_and_bad_values_are_rejected() {
        for (name, value) in [
            ("P2PMAL_SHARD", "4"),
            ("P2PMAL_SHARD_WINDOW_MS", "250"),
            ("P2PMAL_SCAN_THREADS", ""),
            ("P2PMAL_SHARDS", "four"),
            ("P2PMAL_SHARDS", "0"),
            ("P2PMAL_SHARDS", "65"),
            ("P2PMAL_SHARDS", "-1"),
            ("P2PMAL_QUICK", "yes"),
            ("P2PMAL_PERF_SMOKE", "true"),
            ("P2PMAL_JOURNAL_SAMPLE", "qurey=10"),
            ("P2PMAL_JOURNAL_SAMPLE", "query"),
            ("P2PMAL_JOURNAL_SAMPLE", "query=-1"),
            ("P2PMAL_SEED", "x"),
            ("P2PMAL_SEEDS", "1,,2"),
            ("P2PMAL_DAYS", "0"),
            ("P2PMAL_FAULTS", "medium"),
            ("P2PMAL_RETRIES", "256"),
            ("P2PMAL_MEGA_NODES", "0"),
        ] {
            let err = parse(&[("P2PMAL_QUICK", "1"), (name, value)])
                .expect_err(&format!("{name}={value} parsed"));
            assert_eq!(err.var, name);
            assert!(err.to_string().starts_with(name), "{err}");
        }
        let err = parse(&[("P2PMAL_JOURNAL", "j.jsonl"), ("P2PMAL_SEEDS", "1,2")]).unwrap_err();
        assert_eq!(err.var, "P2PMAL_JOURNAL");
    }

    #[test]
    fn empty_environment_yields_the_preset_defaults() {
        let cfg = parse(&[("PATH", "/bin"), ("HOME", "/")]).unwrap();
        assert_eq!(cfg, RunConfig::default());
        assert_eq!(cfg.shards, 1);
        assert_eq!(cfg.telemetry, TelemetryConfig::off());
        assert_eq!(cfg.study_seed(), 2006);
        let (lw, ft, mega) = (cfg.limewire(), cfg.openft(), cfg.mega());
        assert_eq!((lw.shards, lw.shard_window_us), (1, 1_000_000));
        assert_eq!((ft.shards, ft.shard_window_us), (1, 1_000_000));
        assert_eq!((mega.shards, mega.shard_window_us), (1, 1_000_000));
        assert_eq!(lw.telemetry, TelemetryConfig::off());
        assert_eq!((lw.seed, ft.seed), (2006, 2006 ^ 0xF7));
        assert_eq!((lw.days, ft.days), (35, 35));
        assert_eq!((mega.seed, mega.nodes), (42, 50_000));
    }

    #[test]
    fn scenarios_apply_the_configuration() {
        let cfg = parse(&[
            ("P2PMAL_QUICK", "1"),
            ("P2PMAL_DAYS", "3"),
            ("P2PMAL_FAULTS", "mild"),
            ("P2PMAL_RETRIES", "7"),
            ("P2PMAL_SHARDS", "2"),
        ])
        .unwrap();
        let lw = cfg.limewire();
        assert_eq!((lw.days, lw.shards, lw.retry.max_retries), (3, 2, 7));
        assert_eq!(lw.faults, FaultPlan::mild());
        let ft = cfg.openft();
        assert_eq!((ft.days, ft.shards, ft.retry.max_retries), (3, 2, 7));
        assert_eq!(cfg.with_seed(9).limewire().seed, 9);
    }
}
