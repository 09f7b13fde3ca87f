//! Metric names, the result line, and the run facts recorded beside it.

use std::path::{Path, PathBuf};

use cogent::obs::json::Json;

/// One workload the benchmark can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    TccgCold,
    ServeWarm,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::TccgCold,
        Workload::ServeWarm,
        Workload::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::TccgCold => "tccg_cold",
            Workload::ServeWarm => "serve_warm",
            Workload::ServeChurn => "serve_churn",
        }
    }

    /// Why the workload was chosen (one sentence, recorded with every
    /// result and mirrored in `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::TccgCold => {
                "the paper's 48 TCCG entries on the cold compile path, where sim and select do nearly all the work"
            }
            Workload::ServeWarm => {
                "all-hit daemon traffic: accept, parse, cache lookup, render and write, with select and sim idle"
            }
            Workload::ServeChurn => {
                "working set larger than the cache: about a quarter of requests miss, search, insert and evict between hits"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_tail", "ms"),
    ("throughput_per_s", "1/s"),
    ("miss_ms_p50", "ms"),
    ("kernel_gflops_geomean", "GFLOP/s"),
];

/// The per-layer metrics every traced run reports, with units. A layer a
/// workload does not exercise reads 0 and is listed under `not_measured`
/// in the run report.
pub const PER_LAYER: [(&str, &str); 31] = [
    ("select.busy_ms", "ms"),
    ("select.calls", "count"),
    ("select.enumerated", "count"),
    ("select.pruned_ratio", "ratio"),
    ("select.menu_cache_hit_ratio", "ratio"),
    ("select.enumerate_ms", "ms"),
    ("select.prune_ms", "ms"),
    ("select.rank_ms", "ms"),
    ("select.cost_ms", "ms"),
    ("lower.busy_ms", "ms"),
    ("guard.validate_ms", "ms"),
    ("guard.rejected", "count"),
    ("sim.busy_ms", "ms"),
    ("sim.calls", "count"),
    ("codegen.kir_ms", "ms"),
    ("codegen.print_ms", "ms"),
    ("codegen.bytes", "count"),
    ("cache.get_us_p50", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("serve.parse_us_p50", "us"),
    ("serve.execute_hit_us_p50", "us"),
    ("serve.render_us_p50", "us"),
    ("serve.server_ms_p50", "ms"),
    ("serve.queue_wait_ms_p99", "ms"),
    ("serve.search_ms_p50", "ms"),
    ("serve.unattributed_ms_p50", "ms"),
    ("serve.unattributed_share", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("memory.rss_mb_p90", "MB"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions (the count is in `failed`).
    pub failures: Vec<String>,
    /// `(name, value, samples behind it)`.
    pub metrics: Vec<(&'static str, f64, usize)>,
    /// Workload-specific facts (percentile used, counts, paths written).
    pub facts: Vec<(String, Json)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, samples: usize) {
        self.metrics.push((name, value, samples));
    }

    pub fn fact(&mut self, name: &str, value: Json) {
        self.facts.push((name.to_string(), value));
    }

    /// Records `count` failed operations described by `why`.
    pub fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        if self.failures.len() < 20 {
            self.failures.push(why);
        }
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map(|&(_, v, _)| v)
    }
}

/// The result line: every metric of the requested set, in declaration
/// order. Missing per-layer metrics read 0; a missing end-to-end metric
/// is a bug in the workload and panics.
pub fn result_line(outcome: &Outcome, trace: bool) -> (Json, Vec<&'static str>) {
    let set: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut not_measured = Vec::new();
    let metrics = set
        .iter()
        .map(|&(name, unit)| {
            let value = match outcome.value(name) {
                Some(v) => v,
                None if trace => {
                    not_measured.push(name);
                    0.0
                }
                None => panic!("workload did not report end-to-end metric {name}"),
            };
            (
                name.to_string(),
                Json::obj([
                    ("value", Json::Float(value)),
                    ("unit", Json::Str(unit.into())),
                ]),
            )
        })
        .collect();
    let line = Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::UInt(u128::from(outcome.attempted))),
        ("failed", Json::UInt(u128::from(outcome.failed))),
        ("metrics", Json::Object(metrics)),
    ]);
    (line, not_measured)
}

/// Directory the benchmark writes its reports, span files and access
/// logs into (inside the checkout, ignored by git).
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The commit the checkout was built from, when it is a git checkout.
pub fn git_commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown (not a git checkout)".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(commit) = read(git.join(reference)) {
        return commit;
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (commit, name) = line.split_once(' ')?;
                (name == reference).then(|| commit.to_string())
            })
        })
        .unwrap_or_else(|| format!("unknown ({reference} unresolved)"))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A `/proc/self/status` memory field (`VmHWM`, `VmRSS`), in MB.
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line
                    .strip_prefix(field)?
                    .strip_prefix(':')?
                    .trim()
                    .strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM")
}

/// Current resident set size of this process (`VmRSS`), in MB. Sampled
/// from the thread that drives the workload, so the sampling adds no
/// thread (and no allocator arena) of its own.
pub fn rss_mb() -> f64 {
    status_mb("VmRSS")
}

/// The run report written next to the result line: run facts, every
/// metric with its sample count, and the failures seen.
pub fn run_report(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    outcome: &Outcome,
    not_measured: &[&str],
) -> Json {
    let metrics = outcome
        .metrics
        .iter()
        .map(|&(name, value, samples)| {
            let unit = END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .find(|(n, _)| *n == name)
                .map_or("", |&(_, u)| u);
            (
                name.to_string(),
                Json::obj([
                    ("value", Json::Float(value)),
                    ("unit", Json::Str(unit.into())),
                    ("samples", Json::from(samples)),
                ]),
            )
        })
        .collect();
    Json::obj([
        ("schema", Json::Str("cogent.perfbench.v1".into())),
        ("workload", Json::Str(workload.name().into())),
        ("why", Json::Str(workload.why().into())),
        ("seed", Json::UInt(u128::from(seed))),
        ("seconds", Json::UInt(u128::from(seconds))),
        ("trace", Json::Bool(trace)),
        ("nproc", Json::from(nproc())),
        (
            "build_profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("git_commit", Json::Str(git_commit())),
        ("attempted", Json::UInt(u128::from(outcome.attempted))),
        ("failed", Json::UInt(u128::from(outcome.failed))),
        (
            "failed_ratio",
            Json::Float(outcome.failed as f64 / outcome.attempted.max(1) as f64),
        ),
        (
            "failures",
            Json::Array(
                outcome
                    .failures
                    .iter()
                    .map(|f| Json::Str(f.clone()))
                    .collect(),
            ),
        ),
        ("metrics", Json::Object(metrics)),
        (
            "not_measured",
            Json::Array(
                not_measured
                    .iter()
                    .map(|n| Json::Str(n.to_string()))
                    .collect(),
            ),
        ),
        ("facts", Json::Object(outcome.facts.clone())),
    ])
}
