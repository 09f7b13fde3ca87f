//! `tccg_cold`: the 48 TCCG entries on the cold compile path.
//!
//! Settings match a CLI `cogent generate` per entry: V100, F64, no
//! passes, the default `refine_top`, a serial search and no kernel cache.
//! Every timed sweep runs on a freshly spawned thread, so the
//! thread-local enumeration menu cache starts empty as it does in a new
//! process, and the seed shuffles the entry order of each sweep.
//!
//! The shared host's speed moves between levels about 1.4x apart in
//! blocks of 5-20 seconds, so a median over every call of a run measures
//! how much of the run fell in slow blocks. The p50 and the throughput
//! are therefore taken over each entry's fastest call of the run (its
//! cost with the least interference); the tail and the all-call p50 and
//! rate are kept beside them.
//!
//! The traced run rebuilds `Cogent::generate` from the public calls of
//! each layer (`search`, then `lower`, `validate_generated` and
//! `simulate` until `REFINE_TOP` viable plans exist, then codegen),
//! times every call from outside, and fails unless the rebuild picks the
//! same configuration and prints byte-identical CUDA and OpenCL on every
//! entry.

use std::time::{Duration, Instant};

use cogent::generator::codegen::{emit_driver, lower_with_passes, PassConfig};
use cogent::generator::guard::validate_generated;
use cogent::generator::select::{search, SearchOptions};
use cogent::generator::KernelConfig;
use cogent::gpu::{GpuDevice, Precision};
use cogent::kir::{interpret_plan, print_kernel, Dialect, CUDA, OPENCL, OPENCL_FP64_PREAMBLE};
use cogent::obs::json::Json;
use cogent::obs::profile::PhaseProfile;
use cogent::prelude::{Cogent, Contraction, KernelPlan, SizeMap};
use cogent::sim::plan::{IndexBinding, StoreMode};
use cogent::sim::simulate;
use cogent::tensor::reference::{contract_reference, random_inputs};

use crate::report::{out_dir, peak_rss_mb, rss_mb, Outcome};
use crate::rng::Rng;
use crate::stats::{geomean, median, quantile, tail_percentile};

/// `Cogent::new()`'s default refinement depth, set explicitly on both
/// the library generator and the rebuilt pipeline so they cannot drift.
const REFINE_TOP: usize = 4;
/// Tail percentile of the per-contraction latency (needs >= 100 samples).
const TAIL: f64 = 0.9;
const MIN_SAMPLES: usize = 100;
/// Set-ups per run (`setup_s` is their median). The first runs before
/// the timed phase; the others are interleaved with it, one after every
/// `SETUP_EVERY` timed sweeps, so they sample the same host conditions
/// as the timed sweeps instead of only the run's first seconds.
const SETUPS: usize = 7;
const SETUP_EVERY: u64 = 4;
/// Seed stream tag for set-up sweep orders (timed sweeps use 0, 1, ...).
const SETUP_STREAM: u64 = 1 << 40;
/// Interpreter points checked per run. The KIR interpreter walks 40k to
/// 190k points/s, and the 48 clamped kernels hold about 33M points (six
/// minutes), so each run checks the entries of a seeded order until this
/// budget is spent (the entry crossing it included); the seeds cover the
/// suite.
const CHECK_POINTS: usize = 300_000;
const CHECK_STREAM: u64 = 1 << 41;

struct Entry {
    name: String,
    tc: Contraction,
    sizes: SizeMap,
}

fn entries() -> Vec<Entry> {
    cogent::tccg::suite()
        .into_iter()
        .map(|e| Entry {
            tc: e.contraction(),
            sizes: e.sizes(),
            name: e.name,
        })
        .collect()
}

fn options() -> SearchOptions {
    SearchOptions {
        threads: 1,
        ..SearchOptions::default()
    }
}

fn generator() -> Cogent {
    Cogent::new()
        .device(GpuDevice::v100())
        .precision(Precision::F64)
        .refine_top(REFINE_TOP)
        .search_options(options())
}

/// The entry order of sweep `sweep` under `seed`.
pub fn sweep_order(seed: u64, sweep: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::stream(seed, sweep).shuffle(&mut order);
    order
}

/// Runs `f` on a freshly spawned thread (empty thread-local caches).
fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|scope| scope.spawn(f).join().expect("sweep thread panicked"))
}

/// What one `generate` produced, reduced to what the checks compare.
#[derive(Clone, PartialEq)]
struct Output {
    config: String,
    cuda: String,
    opencl: String,
}

/// One library `generate` result: what is compared, the plan the
/// interpreter checks, and the simulated GFLOPS.
struct Generated {
    out: Output,
    plan: KernelPlan,
    gflops: f64,
}

/// One untraced sweep of `Cogent::generate` in `order`: per-call
/// latencies, the sweep's wall time, and each entry's result.
struct Sweep {
    wall: Duration,
    calls: Vec<(usize, Duration)>,
    results: Vec<(usize, Result<Generated, String>)>,
}

fn library_sweep(entries: &[Entry], order: &[usize]) -> Sweep {
    let gen = generator();
    let started = Instant::now();
    let (calls, results) = on_fresh_thread(|| {
        let mut calls = Vec::with_capacity(order.len());
        let mut results = Vec::with_capacity(order.len());
        for &i in order {
            let e = &entries[i];
            let t = Instant::now();
            let result = gen.generate(&e.tc, &e.sizes);
            calls.push((i, t.elapsed()));
            let result = result
                .map(|g| {
                    let out = Output {
                        config: g.config.to_string(),
                        cuda: g.cuda_source,
                        opencl: g.opencl_source,
                    };
                    Generated {
                        out,
                        plan: g.plan,
                        gflops: g.report.gflops,
                    }
                })
                .map_err(|err| format!("{}: generate failed: {err}", e.name));
            results.push((i, result));
        }
        (calls, results)
    });
    Sweep {
        wall: started.elapsed(),
        calls,
        results,
    }
}

/// Set-up number `k`: parse the suite and run the untimed warm-up sweep;
/// returns the entries and the set-up time in seconds.
fn set_up(seed: u64, k: u64) -> (Vec<Entry>, f64) {
    let t = Instant::now();
    let entries = entries();
    let order = sweep_order(seed, SETUP_STREAM + k, entries.len());
    library_sweep(&entries, &order);
    (entries, t.elapsed().as_secs_f64())
}

/// `plan` with every extent cut to `tile + 1`: two tiles per index, the
/// second ragged, so every partial-tile guard of the emitted tree runs.
fn clamped_bindings(plan: &KernelPlan) -> Vec<IndexBinding> {
    plan.bindings()
        .iter()
        .map(|b| IndexBinding::new(b.name.clone(), b.extent.min(b.tile + 1), b.tile, b.dim))
        .collect()
}

/// Iteration points the interpreter walks for the clamped `plan`.
fn check_points(plan: &KernelPlan) -> usize {
    clamped_bindings(plan).iter().map(|b| b.extent).product()
}

/// Runs the clamped kernel of `plan` through the KIR interpreter and
/// compares it with the reference contraction.
fn interpreter_check(plan: &KernelPlan, seed: u64) -> Result<(), String> {
    let clamped = clamped_bindings(plan);
    let clamped = KernelPlan::new(plan.contraction(), clamped)
        .map_err(|e| format!("clamped plan: {e}"))?
        .with_store_mode(plan.store_mode());
    let sizes = SizeMap::from_pairs(
        clamped
            .bindings()
            .iter()
            .map(|b| (b.name.as_str(), b.extent)),
    );
    let (a, b) = random_inputs::<f64>(clamped.contraction(), &sizes, seed);
    let got = interpret_plan(&clamped, &a, &b).map_err(|e| format!("interpreter: {e}"))?;
    let want = contract_reference(clamped.contraction(), &sizes, &a, &b);
    let diff = got.max_abs_diff(&want);
    if diff > 1e-10 {
        return Err(format!("interpreter differs from reference by {diff:e}"));
    }
    Ok(())
}

/// The untraced run: end-to-end metrics.
pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let (entries, first_setup) = set_up(seed, 0);
    let mut setup_s = vec![first_setup];

    let budget = Duration::from_secs(seconds);
    let mut rss = Vec::new();
    let started = Instant::now();
    let mut latencies_ms = Vec::new();
    let mut per_entry_ms: Vec<Vec<f64>> = vec![Vec::new(); entries.len()];
    let mut wall = Duration::ZERO;
    let mut sweep_s = Vec::new();
    // First output of each entry; later sweeps must reproduce it.
    let mut first: Vec<Option<Generated>> = entries.iter().map(|_| None).collect();
    let mut sweep = 0u64;
    while started.elapsed() < budget || latencies_ms.len() < MIN_SAMPLES {
        if sweep % SETUP_EVERY == SETUP_EVERY - 1 && setup_s.len() < SETUPS {
            setup_s.push(set_up(seed, setup_s.len() as u64).1);
        }
        let order = sweep_order(seed, sweep, entries.len());
        let s = library_sweep(&entries, &order);
        rss.push(rss_mb());
        wall += s.wall;
        sweep_s.push(Json::Float(s.wall.as_secs_f64()));
        for &(i, d) in &s.calls {
            let ms = d.as_secs_f64() * 1e3;
            latencies_ms.push(ms);
            per_entry_ms[i].push(ms);
        }
        for (i, result) in s.results {
            out.attempted += 1;
            match (result, &first[i]) {
                (Err(why), _) => out.fail(1, why),
                (Ok(got), None) => first[i] = Some(got),
                (Ok(got), Some(want)) if got.out != want.out => out.fail(
                    1,
                    format!(
                        "{}: sweep {sweep} output differs from sweep 0",
                        entries[i].name
                    ),
                ),
                (Ok(_), Some(_)) => {}
            }
        }
        sweep += 1;
    }
    while setup_s.len() < SETUPS {
        setup_s.push(set_up(seed, setup_s.len() as u64).1);
    }
    out.metric("setup_s", median(&mut setup_s), SETUPS);
    let n = latencies_ms.len();
    assert!(
        tail_percentile(n) >= Some(TAIL),
        "too few samples ({n}) for p90"
    );
    // Each entry's fastest call: one sample per entry, each the best of
    // as many cold calls as the run made of it.
    let mut best_ms: Vec<f64> = per_entry_ms
        .iter()
        .map(|ms| ms.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    let entries_n = best_ms.len();
    let best_p50 = median(&mut best_ms);
    out.metric("latency_ms_p50", best_p50, entries_n);
    out.metric("latency_ms_tail", quantile(&mut latencies_ms, TAIL), n);
    out.metric(
        "throughput_per_s",
        entries_n as f64 / (best_ms.iter().sum::<f64>() / 1e3),
        entries_n,
    );
    // Without a cache every call runs the search: each one is a miss.
    out.metric("miss_ms_p50", best_p50, entries_n);
    out.fact("calls", Json::from(n));
    out.fact(
        "latency_ms_p50_all_calls",
        Json::Float(median(&mut latencies_ms)),
    );
    out.fact(
        "throughput_all_calls_per_s",
        Json::Float(n as f64 / wall.as_secs_f64()),
    );
    out.fact("rss_mb_p90", Json::Float(quantile(&mut rss, 0.9)));
    out.fact("peak_rss_mb", Json::Float(peak_rss_mb()));

    let gflops: Vec<f64> = first.iter().flatten().map(|g| g.gflops).collect();
    out.metric("kernel_gflops_geomean", geomean(&gflops), gflops.len());
    let mut checked = Vec::new();
    let mut points = 0;
    for i in sweep_order(seed, CHECK_STREAM, entries.len()) {
        if points >= CHECK_POINTS {
            break;
        }
        let Some(Generated { plan, .. }) = &first[i] else {
            continue;
        };
        points += check_points(plan);
        checked.push(Json::Str(entries[i].name.clone()));
        if let Err(why) = interpreter_check(plan, seed ^ i as u64) {
            out.fail(1, format!("{}: {why}", entries[i].name));
        }
    }
    out.fact("interpreter_checked", Json::Array(checked));
    // Each entry in its own row: median latency and simulated GFLOPS.
    let rows = entries
        .iter()
        .zip(per_entry_ms.iter_mut().zip(&first))
        .map(|(e, (ms, kept))| {
            let gflops = kept.as_ref().map_or(0.0, |k| k.gflops);
            Json::obj([
                ("entry", Json::Str(e.name.clone())),
                ("median_ms", Json::Float(median(ms))),
                ("gflops", Json::Float(gflops)),
            ])
        })
        .collect();
    out.fact("per_entry", Json::Array(rows));
    out.fact("tail_percentile", Json::Float(TAIL * 100.0));
    out.fact("sweep_s", Json::Array(sweep_s));
    out.fact("entries", Json::from(entries.len()));
    out
}

/// Busy time and work counts of each layer over one rebuilt sweep.
#[derive(Debug, Default, Clone)]
struct Layers {
    select: Duration,
    lower: Duration,
    guard: Duration,
    sim: Duration,
    kir: Duration,
    print: Duration,
    select_calls: u64,
    sim_calls: u64,
    enumerated: u64,
    survivors: u64,
    rejected: u64,
    bytes: u64,
}

impl Layers {
    fn sum(&self) -> Duration {
        self.select + self.lower + self.guard + self.sim + self.kir + self.print
    }
}

/// Spans of the rebuilt pipeline, kept in memory and written out as a
/// Chrome trace-event file when the run ends.
#[derive(Default)]
struct SpanLog {
    epoch: Option<Instant>,
    events: Vec<Json>,
}

impl SpanLog {
    fn record(&mut self, name: &str, start: Instant, end: Instant, sweep: u64, entry: &str) {
        let epoch = *self.epoch.get_or_insert(start);
        let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
        self.events.push(Json::obj([
            ("name", Json::Str(name.into())),
            ("ph", Json::Str("X".into())),
            ("ts", Json::Float(us(start))),
            ("dur", Json::Float(us(end) - us(start))),
            ("pid", Json::UInt(1)),
            ("tid", Json::UInt(u128::from(sweep))),
            ("args", Json::obj([("entry", Json::Str(entry.into()))])),
        ]));
    }
}

/// Times one layer call: adds its duration to `slot` and logs a span.
macro_rules! timed {
    ($log:expr, $slot:expr, $name:expr, $sweep:expr, $entry:expr, $call:expr) => {{
        let t = Instant::now();
        let value = $call;
        let end = Instant::now();
        $slot += end - t;
        $log.record($name, t, end, $sweep, $entry);
        value
    }};
}

fn opencl_dialect() -> Dialect {
    Dialect {
        preamble: OPENCL_FP64_PREAMBLE,
        ..OPENCL
    }
}

/// `Cogent::generate` rebuilt from each layer's public calls, with every
/// call timed. Mirrors the library's ladder: search, then lower /
/// validate / simulate ranked candidates until `REFINE_TOP` are viable,
/// keep the fastest simulated one (naive fallback when none), emit.
fn rebuild(
    e: &Entry,
    layers: &mut Layers,
    log: &mut SpanLog,
    sweep: u64,
) -> Result<Output, String> {
    let device = GpuDevice::v100();
    let precision = Precision::F64;
    let store = StoreMode::Assign;
    let name = e.name.as_str();
    let generate_start = Instant::now();
    let outcome = timed!(log, layers.select, "select", sweep, name, {
        search(&e.tc, &e.sizes, &device, precision, &options())
    });
    layers.select_calls += 1;
    layers.enumerated += outcome.enumerated as u64;
    layers.survivors += outcome.survivors as u64;

    let mut viable: Vec<(usize, KernelPlan, f64)> = Vec::new();
    for (rank, ranked) in outcome.ranked.iter().enumerate() {
        if viable.len() >= REFINE_TOP {
            break;
        }
        let plan = timed!(log, layers.lower, "lower", sweep, name, {
            ranked
                .config
                .lower(&outcome.contraction, &e.sizes)
                .map(|p| p.with_store_mode(store))
        });
        let Ok(plan) = plan else {
            layers.rejected += 1;
            continue;
        };
        let valid = timed!(log, layers.guard, "guard", sweep, name, {
            validate_generated(&plan, &device, precision, store)
        });
        if valid.is_err() {
            layers.rejected += 1;
            continue;
        }
        let report = timed!(log, layers.sim, "sim", sweep, name, {
            simulate(&plan, &device, precision)
        });
        layers.sim_calls += 1;
        viable.push((rank, plan, report.time.total_s));
    }
    viable.sort_by(|x, y| x.2.total_cmp(&y.2));
    let (config, plan): (KernelConfig, KernelPlan) = match viable.into_iter().next() {
        Some((rank, plan, _)) => (outcome.ranked[rank].config.clone(), plan),
        // The library degrades to the naive plan here. No TCCG entry
        // needs it, so the rebuild reports it as a failure instead.
        None => return Err(format!("{name}: no viable ranked candidate")),
    };
    let (prog, _) = timed!(log, layers.kir, "codegen.kir", sweep, name, {
        lower_with_passes(&plan, precision, &PassConfig::None).map_err(|err| err.to_string())?
    });
    let (cuda, opencl) = timed!(log, layers.print, "codegen.print", sweep, name, {
        let cuda = format!(
            "{}\n{}",
            print_kernel(&prog, precision, &CUDA),
            emit_driver(&plan, precision)
        );
        let opencl = print_kernel(&prog, precision, &opencl_dialect());
        (cuda, opencl)
    });
    layers.bytes += (cuda.len() + opencl.len()) as u64;
    log.record("generate", generate_start, Instant::now(), sweep, name);
    Ok(Output {
        config: config.to_string(),
        cuda,
        opencl,
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The traced run: per-layer metrics from the rebuilt pipeline,
/// alternated with untraced library sweeps in the same entry order.
pub fn run_traced(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let (entries, _) = set_up(seed, 0);
    let mut log = SpanLog::default();
    let mut per_sweep: Vec<Layers> = Vec::new();
    let mut coverage = Vec::new();
    let mut overhead = Vec::new();
    let mut rss = Vec::new();
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut sweep = 0u64;
    while started.elapsed() < budget || sweep < 3 {
        let order = sweep_order(seed, sweep, entries.len());
        let library = library_sweep(&entries, &order);
        let t = Instant::now();
        let (layers, rebuilt, log_part) = on_fresh_thread(|| {
            let mut layers = Layers::default();
            let mut log = SpanLog::default();
            let rebuilt: Vec<(usize, Result<Output, String>)> = order
                .iter()
                .map(|&i| (i, rebuild(&entries[i], &mut layers, &mut log, sweep)))
                .collect();
            (layers, rebuilt, log)
        });
        let rebuilt_wall = t.elapsed();
        rss.push(rss_mb());
        if sweep == 0 {
            log = log_part;
        }
        for ((i, want), (j, got)) in library.results.iter().zip(&rebuilt) {
            debug_assert_eq!(i, j);
            out.attempted += 1;
            let name = &entries[*i].name;
            match (want, got) {
                (Err(why), _) | (_, Err(why)) => out.fail(1, why.clone()),
                (Ok(Generated { out: want, .. }), Ok(got)) if want.config != got.config => out
                    .fail(
                        1,
                        format!(
                            "{name}: rebuild chose {} but generate chose {}",
                            got.config, want.config
                        ),
                    ),
                (Ok(Generated { out: want, .. }), Ok(got))
                    if want.cuda != got.cuda || want.opencl != got.opencl =>
                {
                    out.fail(
                        1,
                        format!("{name}: rebuilt CUDA/OpenCL differ from generate"),
                    )
                }
                _ => {}
            }
        }
        let library_s = library.wall.as_secs_f64();
        coverage.push(layers.sum().as_secs_f64() / library_s);
        overhead.push(rebuilt_wall.as_secs_f64() / library_s - 1.0);
        per_sweep.push(layers);
        sweep += 1;
    }

    // The program's own span profile splits select into its phases; it
    // needs tracing on, so it gets a sweep of its own.
    let order = sweep_order(seed, 0, entries.len());
    let (profile, hits, misses) = on_fresh_thread(|| {
        cogent::obs::set_enabled(true);
        let mut profile: Option<PhaseProfile> = None;
        let (mut hits, mut misses) = (0u128, 0u128);
        for &i in &order {
            let e = &entries[i];
            let capture = cogent::obs::Capture::start("select");
            let _ = search(
                &e.tc,
                &e.sizes,
                &GpuDevice::v100(),
                Precision::F64,
                &options(),
            );
            if let Some(trace) = capture.finish() {
                hits += trace.counter_sum_prefix("enumerate.menu_cache.hit");
                misses += trace.counter_sum_prefix("enumerate.menu_cache.miss");
                let p = PhaseProfile::from_trace(&trace);
                match &mut profile {
                    Some(acc) => acc.merge(&p),
                    None => profile = Some(p),
                }
            }
        }
        cogent::obs::set_enabled(false);
        (profile, hits, misses)
    });
    let phase_ms = |name: &str| {
        profile
            .as_ref()
            .and_then(|p| p.phases.iter().find(|s| s.name == name))
            .map_or(0.0, |s| s.self_ns as f64 / 1e6)
    };

    let k = per_sweep.len();
    let med = |f: &dyn Fn(&Layers) -> f64| median(&mut per_sweep.iter().map(f).collect::<Vec<_>>());
    out.metric("select.busy_ms", med(&|l| ms(l.select)), k);
    out.metric("select.calls", med(&|l| l.select_calls as f64), k);
    out.metric("select.enumerated", med(&|l| l.enumerated as f64), k);
    out.metric(
        "select.pruned_ratio",
        med(&|l| 1.0 - l.survivors as f64 / l.enumerated.max(1) as f64),
        k,
    );
    out.metric(
        "select.menu_cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        1,
    );
    out.metric("select.enumerate_ms", phase_ms("enumerate"), 1);
    out.metric("select.prune_ms", phase_ms("prune"), 1);
    out.metric("select.rank_ms", phase_ms("rank"), 1);
    out.metric("select.cost_ms", phase_ms("cost"), 1);
    out.metric("lower.busy_ms", med(&|l| ms(l.lower)), k);
    out.metric("guard.validate_ms", med(&|l| ms(l.guard)), k);
    out.metric("guard.rejected", med(&|l| l.rejected as f64), k);
    out.metric("sim.busy_ms", med(&|l| ms(l.sim)), k);
    out.metric("sim.calls", med(&|l| l.sim_calls as f64), k);
    out.metric("codegen.kir_ms", med(&|l| ms(l.kir)), k);
    out.metric("codegen.print_ms", med(&|l| ms(l.print)), k);
    out.metric("codegen.bytes", med(&|l| l.bytes as f64), k);
    out.metric("trace.coverage", median(&mut coverage), k);
    out.metric("trace.overhead", median(&mut overhead), k);
    out.metric("memory.rss_mb_p90", quantile(&mut rss, 0.9), k);

    let layers = [
        ("select", med(&|l| ms(l.select))),
        ("lower", med(&|l| ms(l.lower))),
        ("guard", med(&|l| ms(l.guard))),
        ("sim", med(&|l| ms(l.sim))),
        ("codegen", med(&|l| ms(l.kir + l.print))),
    ];
    let largest = layers
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map_or("none", |l| l.0);
    out.fact("largest_layer", Json::Str(largest.into()));
    out.fact("metrics_are_per_sweep_of", Json::from(entries.len()));
    out.fact("sweeps", Json::UInt(u128::from(sweep)));
    let path = out_dir().join(format!("spans-tccg_cold-seed{seed}.json"));
    let spans = Json::obj([("traceEvents", Json::Array(log.events))]);
    match std::fs::write(&path, spans.to_string()) {
        Ok(()) => out.fact("spans_file", Json::Str(path.display().to_string())),
        Err(err) => out.fail(1, format!("writing {}: {err}", path.display())),
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The whole-suite interpreter check a single run samples from. Takes
    /// several minutes: `cargo test --release -- --ignored`.
    #[test]
    #[ignore]
    fn every_entry_passes_the_interpreter_check() {
        let entries = entries();
        let gen = generator();
        for (i, e) in entries.iter().enumerate() {
            let g = gen.generate(&e.tc, &e.sizes).expect("generate");
            let points = check_points(&g.plan);
            let t = Instant::now();
            interpreter_check(&g.plan, i as u64).unwrap_or_else(|why| panic!("{}: {why}", e.name));
            eprintln!("{}: {points} points in {:?}", e.name, t.elapsed());
        }
    }

    #[test]
    fn entry_order_follows_the_seed() {
        assert_eq!(sweep_order(1, 0, 48), sweep_order(1, 0, 48));
        assert_ne!(sweep_order(1, 0, 48), sweep_order(2, 0, 48));
        assert_ne!(sweep_order(1, 0, 48), sweep_order(1, 1, 48));
        let mut sorted = sweep_order(5, 3, 48);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..48).collect::<Vec<_>>());
    }
}
