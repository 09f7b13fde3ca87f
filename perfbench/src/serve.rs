//! `serve_warm` and `serve_churn`: an in-process `cogent serve` daemon
//! (2 workers) on loopback, driven by one closed-loop client with one
//! connection per request. Callers of a code generator (build systems,
//! JIT front ends) wait for the kernel before their next request, so the
//! loop is closed.
//!
//! * `serve_warm`: small TCCG entries plus seeded random contractions,
//!   all filled untimed during set-up; zipf repeats, 80% `/v1/generate`
//!   and 20% `/v1/explain`, every request a hit.
//! * `serve_churn`: a hot set that fits the cache plus a cold pool of
//!   TCCG entries at seeded extents, larger than the cache; about a
//!   quarter of requests miss, search, insert and evict between hits.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cogent::generator::serve::handlers::{execute, parse_job, JobKind};
use cogent::generator::serve::{GenerateSpec, SharedState};
use cogent::generator::{CacheKey, ServeConfig, Server};
use cogent::obs::flight::FlightTimeline;
use cogent::obs::json::Json;
use cogent::obs::registry::{metrics_snapshot, MetricsShard};
use cogent::prelude::Cogent;

use crate::join::{join, parse_access_log};
use crate::report::{out_dir, peak_rss_mb, rss_mb, Outcome};
use crate::rng::{Rng, Zipf};
use crate::stats::{geomean, median, quantile, tail_percentile};

/// One client: with two, requests fall in or out of step with the
/// accept loop's 5 ms poll and searches run two at a time on a 2-core
/// host, so the tail and the miss times measured the host's scheduler
/// (run-to-run spreads of 25-49%) rather than the daemon.
const CLIENTS: usize = 1;
const WORKERS: usize = 2;
/// The gated client latency tail. p99 (which 1000 requests support) is
/// recorded beside it, but on a shared 2-core host its run-to-run
/// spread is several times the p90's.
const TAIL: f64 = 0.9;
const MIN_REQUESTS: u64 = 1000;
/// Set-ups per untraced run (`setup_s` is their median).
const SETUPS: usize = 7;
const EXPLAIN_SHARE: f64 = 0.2;
/// Share of `serve_churn` requests drawn from the cold pool.
const COLD_SHARE: f64 = 0.25;
const CHURN_HOT: usize = 8;
const CHURN_CACHE: usize = 24;
/// Seed of the random contractions in the working set (fixed, so every
/// `--seed` serves the same set).
const WORKING_SET_SEED: u64 = 0x5eed_cafe_f00d_0001;
/// Hard stop for one timed phase, well inside the run's time limit.
const PHASE_CAP: Duration = Duration::from_secs(100);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    Warm,
    Churn,
}

/// A seeded pseudo-random contraction in the generator's supported
/// shape: 1-2 external indices per input, 1-2 contracted, rotated
/// input layouts.
fn random_spec(rng: &mut Rng) -> String {
    let (na, nb, ni) = (1 + rng.below(2), 1 + rng.below(2), 1 + rng.below(2));
    let letters: Vec<char> = (b'a'..).take(na + nb + ni).map(char::from).collect();
    let c: String = letters[..na + nb].iter().collect();
    let mut a: Vec<char> = letters[..na]
        .iter()
        .chain(&letters[na + nb..])
        .copied()
        .collect();
    let mut b: Vec<char> = letters[na..].to_vec();
    let (ra, rb) = (rng.below(a.len()), rng.below(b.len()));
    a.rotate_left(ra);
    b.rotate_left(rb);
    format!(
        "{c}-{}-{}",
        a.iter().collect::<String>(),
        b.iter().collect::<String>()
    )
}

/// The request population of one workload under one seed.
#[derive(Debug)]
struct Traffic {
    mix: Mix,
    seed: u64,
    /// Unique request bodies; everything else refers to them by index.
    bodies: Vec<String>,
    /// Bodies requested untimed during set-up.
    fill: Vec<usize>,
    /// Zipf rank -> body.
    hot: Vec<usize>,
    /// `serve_churn` only: drawn uniformly, mostly evicted before reuse.
    cold: Vec<usize>,
    zipf: Zipf,
    cache_capacity: usize,
}

impl Traffic {
    /// The working set is the same for every seed, so a run's metrics
    /// do not depend on which contractions a seed happened to draw; the
    /// seed sets the popularity order, the fill order and the request
    /// sequence.
    fn new(mix: Mix, seed: u64) -> Self {
        let suite = cogent::tccg::suite();
        let mut bodies: Vec<String> = suite
            .iter()
            .take(16)
            .map(|e| format!(r#"{{"contraction":"{}","uniform":16}}"#, e.spec))
            .collect();
        let mut fixed = Rng::stream(WORKING_SET_SEED, 0);
        while bodies.len() < 24 {
            let body = format!(
                r#"{{"contraction":"{}","uniform":{}}}"#,
                random_spec(&mut fixed),
                8 + 4 * fixed.below(3)
            );
            if !bodies.contains(&body) {
                bodies.push(body);
            }
        }
        let mut rng = Rng::stream(seed, u64::MAX);
        let (hot, cold, fill, cache_capacity) = match mix {
            Mix::Warm => {
                let mut hot: Vec<usize> = (0..bodies.len()).collect();
                rng.shuffle(&mut hot);
                (hot.clone(), Vec::new(), hot, 4 * bodies.len())
            }
            Mix::Churn => {
                let mut hot: Vec<usize> = (0..CHURN_HOT).collect();
                rng.shuffle(&mut hot);
                bodies.truncate(CHURN_HOT);
                // Every TCCG entry at half and three quarters of its
                // suite extents.
                let mut cold = Vec::new();
                for e in &suite {
                    for scale in [0.5, 0.75] {
                        let sizes: Vec<String> = e
                            .sizes()
                            .iter()
                            .map(|(name, n)| {
                                let n = ((n as f64 * scale).round() as usize).max(2);
                                format!(r#""{name}":{n}"#)
                            })
                            .collect();
                        cold.push(bodies.len());
                        bodies.push(format!(
                            r#"{{"contraction":"{}","sizes":{{{}}}}}"#,
                            e.spec,
                            sizes.join(",")
                        ));
                    }
                }
                // Start at steady state: the hot set plus a fixed choice
                // of cold entries, in seeded order, fill the cache to
                // capacity. The choice is fixed so that the set-up does
                // the same searches under every seed.
                let mut fill_cold = cold.clone();
                Rng::stream(WORKING_SET_SEED, 1).shuffle(&mut fill_cold);
                fill_cold.truncate(CHURN_CACHE - CHURN_HOT);
                rng.shuffle(&mut fill_cold);
                let mut fill = hot.clone();
                fill.extend(fill_cold);
                (hot, cold, fill, CHURN_CACHE)
            }
        };
        Self {
            mix,
            seed,
            zipf: Zipf::new(hot.len()),
            bodies,
            fill,
            hot,
            cold,
            cache_capacity,
        }
    }

    /// Request `i` of the sequence: endpoint path and body index. A pure
    /// function of the seed and `i`, however the clients interleave.
    fn request(&self, i: u64) -> (&'static str, usize) {
        let mut rng = Rng::stream(self.seed, i);
        let body = if self.mix == Mix::Churn && rng.unit() < COLD_SHARE {
            self.cold[rng.below(self.cold.len())]
        } else {
            self.hot[self.zipf.sample(&mut rng)]
        };
        let path = if rng.unit() < EXPLAIN_SHARE {
            "/v1/explain"
        } else {
            "/v1/generate"
        };
        (path, body)
    }
}

/// One POST over a fresh loopback connection: status and body.
fn send(addr: SocketAddr, path: &str, body: &str, id: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let request = format!(
        "POST {path} HTTP/1.1\r\nHost: {addr}\r\nX-Request-Id: {id}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write: {e}"))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| format!("read: {e}"))?;
    let status = response
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("malformed response {:?}", response.get(..40)))?;
    let body = response
        .split_once("\r\n\r\n")
        .map_or(String::new(), |(_, b)| b.to_string());
    Ok((status, body))
}

/// A 200 body with its cache marker blanked, and whether it was a hit.
fn normalize(body: &str) -> (String, bool) {
    let hit = body.contains(r#""cache":"hit""#);
    let norm = body
        .replacen(r#""cache":"hit""#, r#""cache":"*""#, 1)
        .replacen(r#""cache":"miss""#, r#""cache":"*""#, 1);
    (norm, hit)
}

#[derive(Debug)]
struct Sample {
    id: String,
    body: usize,
    latency_ns: u64,
    status: u16,
    hit: bool,
}

/// What one timed phase observed.
#[derive(Debug, Default)]
struct Phase {
    samples: Vec<Sample>,
    wall: Duration,
    /// First normalized 200 body per (endpoint, body index).
    responses: HashMap<(&'static str, usize), String>,
    /// 200 responses that differ from the first one for their request.
    mismatches: u64,
    /// Resident set size sampled every 50 ms while the clients run.
    rss_mb: Vec<f64>,
    failures: Vec<String>,
}

/// Closed-loop replay from `CLIENTS` client threads for at least `seconds` and
/// `min_requests` requests.
fn run_phase(
    addr: SocketAddr,
    traffic: &Traffic,
    tag: &str,
    seconds: f64,
    min_requests: u64,
) -> Phase {
    let next = AtomicU64::new(0);
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let mut rss = Vec::new();
    let parts: Vec<Phase> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut part = Phase::default();
                    loop {
                        let elapsed = started.elapsed();
                        if (elapsed >= budget && next.load(Ordering::SeqCst) >= min_requests)
                            || elapsed >= PHASE_CAP
                        {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let (path, body) = traffic.request(i);
                        let id = format!("{tag}-{i}");
                        let t = Instant::now();
                        let result = send(addr, path, &traffic.bodies[body], &id);
                        let latency_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        let (status, hit) = match result {
                            Ok((200, text)) => {
                                let (norm, hit) = normalize(&text);
                                match part.responses.get(&(path, body)) {
                                    None => {
                                        part.responses.insert((path, body), norm);
                                    }
                                    Some(first) if *first != norm => {
                                        part.mismatches += 1;
                                        part.failures.push(format!(
                                            "{id}: {path} body {body} differs from its first response"
                                        ));
                                    }
                                    Some(_) => {}
                                }
                                (200, hit)
                            }
                            Ok((status, text)) => {
                                part.failures.push(format!("{id}: status {status}: {text}"));
                                (status, false)
                            }
                            Err(why) => {
                                part.failures.push(format!("{id}: {why}"));
                                (0, false)
                            }
                        };
                        part.samples.push(Sample {
                            id,
                            body,
                            latency_ns,
                            status,
                            hit,
                        });
                    }
                    part
                })
            })
            .collect();
        while handles.iter().any(|h| !h.is_finished()) {
            rss.push(rss_mb());
            std::thread::sleep(Duration::from_millis(50));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut phase = Phase {
        wall: started.elapsed(),
        rss_mb: rss,
        ..Phase::default()
    };
    for part in parts {
        phase.samples.extend(part.samples);
        phase.failures.extend(part.failures);
        phase.mismatches += part.mismatches;
        for (key, body) in part.responses {
            match phase.responses.get(&key) {
                Some(first) if *first != body => {
                    phase.mismatches += 1;
                    phase.failures.push(format!(
                        "{} body {}: clients saw different responses",
                        key.0, key.1
                    ));
                }
                Some(_) => {}
                None => {
                    phase.responses.insert(key, body);
                }
            }
        }
    }
    phase
}

/// Spawns the daemon and fills it with the set-up bodies; returns the
/// server and the fill latencies (ms).
fn start(traffic: &Traffic, access_log: Option<PathBuf>) -> Result<(Server, Vec<f64>), String> {
    let config = ServeConfig {
        workers: WORKERS,
        cache_capacity: traffic.cache_capacity,
        access_log,
        ..ServeConfig::default()
    };
    let server = Server::spawn(config).map_err(|e| format!("spawn: {e}"))?;
    let mut fill_ms = Vec::with_capacity(traffic.fill.len());
    for (k, &body) in traffic.fill.iter().enumerate() {
        let t = Instant::now();
        let why = match send(
            server.addr(),
            "/v1/generate",
            &traffic.bodies[body],
            &format!("fill-{k}"),
        ) {
            Ok((200, _)) => {
                fill_ms.push(t.elapsed().as_secs_f64() * 1e3);
                continue;
            }
            Ok((status, text)) => format!("status {status}: {text}"),
            Err(why) => why,
        };
        server.shutdown();
        return Err(format!("fill body {body}: {why}"));
    }
    Ok((server, fill_ms))
}

/// The library generator a request body asks for (the daemon's own
/// key generator: device, precision and store mode from the body).
fn library_generator(kind: &JobKind) -> Option<(Cogent, &GenerateSpec)> {
    let spec = match kind {
        JobKind::Generate(spec) | JobKind::Explain(spec) => spec,
        _ => return None,
    };
    let gen = Cogent::new()
        .device(spec.device.clone())
        .precision(spec.precision)
        .store_mode(spec.store_mode);
    Some((gen, spec))
}

/// Checks every distinct 200 response against `Cogent::generate` for
/// the same spec (configuration always, sources on `/v1/generate`) and
/// returns the served kernels' simulated GFLOPS, one per body.
fn check_against_library(
    traffic: &Traffic,
    phase: &Phase,
    state: &SharedState,
    out: &mut Outcome,
) -> Vec<f64> {
    let mut library = HashMap::new();
    let mut gflops = HashMap::new();
    let mut keys: Vec<_> = phase.responses.keys().copied().collect();
    keys.sort_unstable();
    for (path, body) in keys {
        let text = &phase.responses[&(path, body)];
        let json = match Json::parse(text) {
            Ok(json) => json,
            Err(e) => {
                out.fail(1, format!("{path} body {body}: response is not JSON: {e}"));
                continue;
            }
        };
        let want = library.entry(body).or_insert_with(|| {
            let (kind, _) = parse_job(path, traffic.bodies[body].as_bytes(), state)
                .map_err(|r| format!("parse: {}", r.body))?;
            let (gen, spec) = library_generator(&kind).ok_or("not a generate job")?;
            gen.generate(&spec.tc, &spec.sizes)
                .map_err(|e| e.to_string())
        });
        let want = match want {
            Ok(want) => want,
            Err(why) => {
                out.fail(1, format!("body {body}: library generate failed: {why}"));
                continue;
            }
        };
        let member = |name: &str| json.get(name).and_then(Json::as_str).unwrap_or_default();
        let mut same = member("config") == want.config.to_string();
        if path == "/v1/generate" {
            same &= member("cuda_source") == want.cuda_source
                && member("opencl_source") == want.opencl_source;
        }
        if !same {
            out.fail(
                1,
                format!("{path} body {body}: response differs from Cogent::generate"),
            );
        }
        if let Some(g) = json.get("gflops").and_then(Json::as_f64) {
            gflops.insert(body, g);
        }
    }
    gflops.into_values().collect()
}

/// The growth of a counter, or of a span's `(total ns, calls)`, between
/// two snapshots of the daemon's own metrics registry.
fn counter_delta(before: &MetricsShard, after: &MetricsShard, name: &str) -> f64 {
    let get = |s: &MetricsShard| s.counters.get(name).copied().unwrap_or(0);
    get(after).saturating_sub(get(before)) as f64
}

fn span_delta(before: &MetricsShard, after: &MetricsShard, span: &str) -> (f64, f64) {
    let key = format!("span.{span}.duration_ns");
    let get = |s: &MetricsShard| {
        s.histograms
            .get(&key)
            .map_or((0, 0), |h| (h.sum(), h.count()))
    };
    let ((ns0, n0), (ns1, n1)) = (get(before), get(after));
    (
        ns1.saturating_sub(ns0) as f64 / 1e6,
        n1.saturating_sub(n0) as f64,
    )
}

/// The select and sim layers as the daemon's existing spans saw them
/// during the timed phase (its misses). Lower, validate and codegen are
/// left out: the daemon's `lower` span wraps lower, validate and
/// simulate together, and the benchmark adds no spans of its own there.
fn generator_layers(before: &MetricsShard, after: &MetricsShard, out: &mut Outcome) {
    let (search_ms, searches) = span_delta(before, after, "search");
    let (enumerate_ms, _) = span_delta(before, after, "enumerate");
    let (prune_ms, _) = span_delta(before, after, "prune");
    let (rank_ms, _) = span_delta(before, after, "rank");
    let (cost_ms, _) = span_delta(before, after, "cost");
    let (sim_ms, sims) = span_delta(before, after, "simulate");
    let enumerated = counter_delta(before, after, "enumerate.configs");
    let survivors = counter_delta(before, after, "prune.survivors");
    let hits = counter_delta(before, after, "enumerate.menu_cache.hit");
    let misses = counter_delta(before, after, "enumerate.menu_cache.miss");
    let calls = searches as usize;
    out.metric("select.busy_ms", search_ms, calls);
    out.metric("select.calls", searches, calls);
    out.metric("select.enumerated", enumerated, calls);
    let pruned = if enumerated > 0.0 {
        1.0 - survivors / enumerated
    } else {
        0.0
    };
    out.metric("select.pruned_ratio", pruned, calls);
    out.metric(
        "select.menu_cache_hit_ratio",
        hits / (hits + misses).max(1.0),
        calls,
    );
    out.metric("select.enumerate_ms", enumerate_ms, calls);
    out.metric("select.prune_ms", prune_ms, calls);
    out.metric("select.rank_ms", rank_ms - cost_ms, calls);
    out.metric("select.cost_ms", cost_ms, calls);
    out.metric("sim.busy_ms", sim_ms, sims as usize);
    out.metric("sim.calls", sims, sims as usize);
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn record_phase_failures(phase: &Phase, out: &mut Outcome) {
    out.attempted += phase.samples.len() as u64;
    let failed_requests = phase.samples.iter().filter(|s| s.status != 200).count() as u64;
    out.failed += failed_requests + phase.mismatches;
    out.failures.extend(phase.failures.iter().take(20).cloned());
}

/// The untraced run: end-to-end metrics.
pub fn run(mix: Mix, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let traffic = Traffic::new(mix, seed);
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut fill_ms = Vec::new();
    let mut server = None;
    for k in 0..SETUPS {
        let t = Instant::now();
        match start(&traffic, None) {
            Ok((s, fill)) => {
                setup_s.push(t.elapsed().as_secs_f64());
                fill_ms.extend(fill);
                if k + 1 < SETUPS {
                    s.shutdown();
                } else {
                    server = Some(s);
                }
            }
            Err(why) => {
                out.fail(1, format!("set-up: {why}"));
                out.attempted += 1;
                return out;
            }
        }
    }
    let server = server.expect("the last set-up keeps its server");
    let mut phase = run_phase(server.addr(), &traffic, "pb", seconds as f64, MIN_REQUESTS);
    let mut rss = std::mem::take(&mut phase.rss_mb);
    record_phase_failures(&phase, &mut out);

    let mut all: Vec<f64> = phase.samples.iter().map(|s| ms(s.latency_ns)).collect();
    // Misses in the timed phase, and each missed body's fastest miss. The
    // host's speed moves between levels about 1.4x apart in blocks of
    // seconds (see `cold.rs`), so the gated miss p50 is taken over the
    // bodies' best times; the median over every miss is recorded beside.
    let mut misses = Vec::new();
    let mut best_miss: HashMap<usize, f64> = HashMap::new();
    for s in phase.samples.iter().filter(|s| s.status == 200 && !s.hit) {
        let latency = ms(s.latency_ns);
        misses.push(latency);
        let best = best_miss.entry(s.body).or_insert(f64::INFINITY);
        *best = best.min(latency);
    }
    let mut best_miss: Vec<f64> = best_miss.into_values().collect();
    let n = all.len();
    assert!(
        tail_percentile(n) >= Some(0.99),
        "too few requests ({n}) for p99"
    );
    out.metric("setup_s", median(&mut setup_s), SETUPS);
    out.metric("latency_ms_p50", median(&mut all), n);
    out.metric("latency_ms_tail", quantile(&mut all, TAIL), n);
    out.metric("throughput_per_s", n as f64 / phase.wall.as_secs_f64(), n);
    // serve_warm never misses once filled: its misses are the set-up fill.
    let miss_samples = if mix == Mix::Warm {
        &mut fill_ms
    } else {
        &mut best_miss
    };
    let miss_n = miss_samples.len();
    out.metric("miss_ms_p50", median(miss_samples), miss_n);
    out.fact("rss_mb_p90", Json::Float(quantile(&mut rss, 0.9)));
    out.fact("peak_rss_mb", Json::Float(peak_rss_mb()));
    let gflops = check_against_library(&traffic, &phase, server.state(), &mut out);
    out.metric("kernel_gflops_geomean", geomean(&gflops), gflops.len());
    let stats = server.state().cache.stats();
    server.shutdown();

    out.fact("tail_percentile", Json::Float(TAIL * 100.0));
    out.fact("latency_ms_p99", Json::Float(quantile(&mut all, 0.99)));
    out.fact("clients", Json::from(CLIENTS));
    out.fact("workers", Json::from(WORKERS));
    out.fact("unique_bodies", Json::from(traffic.bodies.len()));
    out.fact("cache_capacity", Json::from(traffic.cache_capacity));
    out.fact("timed_misses", Json::from(misses.len()));
    out.fact("miss_ms_p50_all_misses", Json::Float(median(&mut misses)));
    out.fact(
        "miss_share",
        Json::Float(misses.len() as f64 / n.max(1) as f64),
    );
    out.fact("cache_evictions", Json::UInt(u128::from(stats.evictions)));
    out
}

/// The traced run: per-layer metrics for the cache and serve layers.
pub fn run_traced(mix: Mix, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let traffic = Traffic::new(mix, seed);
    let half = (seconds as f64 / 2.0).max(1.0);

    // Reference phase without the access log, for trace.overhead.
    let plain = match start(&traffic, None) {
        Ok((server, _)) => {
            let phase = run_phase(server.addr(), &traffic, "pa", half, 200);
            server.shutdown();
            phase
        }
        Err(why) => {
            out.fail(1, format!("set-up: {why}"));
            out.attempted += 1;
            return out;
        }
    };
    record_phase_failures(&plain, &mut out);
    let workload = match mix {
        Mix::Warm => "serve_warm",
        Mix::Churn => "serve_churn",
    };
    let log_path = out_dir().join(format!("access-{workload}-seed{seed}.jsonl"));
    let _ = std::fs::remove_file(&log_path);
    let server = match start(&traffic, Some(log_path.clone())) {
        Ok((server, _)) => server,
        Err(why) => {
            out.fail(1, format!("set-up: {why}"));
            out.attempted += 1;
            return out;
        }
    };
    let state = server.state();
    let before = state.cache.stats();
    let registry_before = metrics_snapshot();
    let mut phase = run_phase(server.addr(), &traffic, "pb", half, MIN_REQUESTS);
    let registry_after = metrics_snapshot();
    let after = state.cache.stats();
    record_phase_failures(&phase, &mut out);
    generator_layers(&registry_before, &registry_after, &mut out);

    // In-process timings of the handler layers on the workload's own
    // request bodies, against the warm daemon state.
    let (mut parse_us, mut get_us, mut exec_us, mut render_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for i in 0..400 {
        let (path, body) = traffic.request(i);
        let t = Instant::now();
        let parsed = parse_job(path, traffic.bodies[body].as_bytes(), state);
        parse_us.push(t.elapsed().as_secs_f64() * 1e6);
        let Ok((kind, deadline)) = parsed else {
            out.fail(1, format!("in-process parse of body {body} failed"));
            continue;
        };
        let Some((gen, spec)) = library_generator(&kind) else {
            continue;
        };
        let key = CacheKey::new(
            &spec.tc,
            &spec.sizes,
            &spec.device,
            spec.precision,
            &gen.options_fingerprint(),
        );
        let t = Instant::now();
        let hit = state.cache.get(&key);
        let get = t.elapsed().as_secs_f64() * 1e6;
        get_us.push(get);
        if hit.is_none() {
            continue;
        }
        let t = Instant::now();
        let response = execute(&kind, deadline, state, &mut FlightTimeline::detached());
        let exec = t.elapsed().as_secs_f64() * 1e6;
        if response.status != 200 {
            out.fail(
                1,
                format!("in-process execute of body {body}: {}", response.status),
            );
        }
        exec_us.push(exec);
        render_us.push(exec - get);
    }
    server.shutdown();

    let log = std::fs::read_to_string(&log_path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_access_log(&text));
    let client: Vec<(String, u64)> = phase
        .samples
        .iter()
        .map(|s| (s.id.clone(), s.latency_ns))
        .collect();
    let joined = match log.and_then(|log| join(&client, &log)) {
        Ok(joined) => joined,
        Err(why) => {
            out.fail(1, format!("access log: {why}"));
            return out;
        }
    };
    if !joined.unmatched.is_empty() {
        out.fail(
            joined.unmatched.len() as u64,
            format!(
                "{} requests missing from the access log",
                joined.unmatched.len()
            ),
        );
    }
    let pairs = &joined.pairs;
    let mut server_ms: Vec<f64> = pairs.iter().map(|p| ms(p.server.total_ns)).collect();
    let mut queue_ms: Vec<f64> = pairs.iter().map(|p| ms(p.server.queue_wait_ns)).collect();
    let mut search_ms: Vec<f64> = pairs
        .iter()
        .filter(|p| p.server.search_ns > 0)
        .map(|p| ms(p.server.search_ns))
        .collect();
    let mut residual_ms: Vec<f64> = pairs
        .iter()
        .map(|p| ms(p.client_ns.saturating_sub(p.server.total_ns)))
        .collect();
    let client_total: u64 = pairs.iter().map(|p| p.client_ns).sum();
    let server_total: u64 = pairs
        .iter()
        .map(|p| p.server.total_ns.min(p.client_ns))
        .sum();
    let share = 1.0 - server_total as f64 / client_total.max(1) as f64;
    let hits = after.hits - before.hits;
    let lookups = hits + (after.misses - before.misses);

    let n = pairs.len();
    out.metric("cache.get_us_p50", median(&mut get_us), get_us.len());
    out.metric(
        "cache.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        lookups as usize,
    );
    out.metric(
        "cache.evictions",
        (after.evictions - before.evictions) as f64,
        1,
    );
    out.metric("serve.parse_us_p50", median(&mut parse_us), parse_us.len());
    out.metric(
        "serve.execute_hit_us_p50",
        median(&mut exec_us),
        exec_us.len(),
    );
    out.metric(
        "serve.render_us_p50",
        median(&mut render_us),
        render_us.len(),
    );
    out.metric("serve.server_ms_p50", median(&mut server_ms), n);
    out.metric("serve.queue_wait_ms_p99", quantile(&mut queue_ms, 0.99), n);
    let searches = search_ms.len();
    out.metric("serve.search_ms_p50", median(&mut search_ms), searches);
    out.metric("serve.unattributed_ms_p50", median(&mut residual_ms), n);
    out.metric("serve.unattributed_share", share, n);
    out.metric("trace.coverage", 1.0 - share, n);
    let rss_n = phase.rss_mb.len();
    out.metric("memory.rss_mb_p90", quantile(&mut phase.rss_mb, 0.9), rss_n);
    let mut plain_ms: Vec<f64> = plain.samples.iter().map(|s| ms(s.latency_ns)).collect();
    let mut traced_ms: Vec<f64> = phase.samples.iter().map(|s| ms(s.latency_ns)).collect();
    out.metric(
        "trace.overhead",
        median(&mut traced_ms) / median(&mut plain_ms) - 1.0,
        plain_ms.len(),
    );
    let components = [
        ("serve.server", median(&mut server_ms)),
        ("serve.unattributed", median(&mut residual_ms)),
    ];
    let largest = if components[0].1 >= components[1].1 {
        components[0].0
    } else {
        components[1].0
    };
    out.fact("largest_component", Json::Str(largest.into()));
    out.fact("access_log", Json::Str(log_path.display().to_string()));
    out.fact("joined_requests", Json::from(n));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sequence(mix: Mix, seed: u64) -> Vec<(&'static str, String)> {
        let traffic = Traffic::new(mix, seed);
        (0..200)
            .map(|i| {
                let (path, body) = traffic.request(i);
                (path, traffic.bodies[body].clone())
            })
            .collect()
    }

    #[test]
    fn request_sequence_follows_the_seed() {
        for mix in [Mix::Warm, Mix::Churn] {
            assert_eq!(sequence(mix, 11), sequence(mix, 11));
            assert_ne!(sequence(mix, 11), sequence(mix, 12));
        }
    }

    #[test]
    fn churn_draws_about_a_quarter_from_the_cold_pool() {
        let traffic = Traffic::new(Mix::Churn, 3);
        assert!(traffic.bodies.len() > traffic.cache_capacity * 4);
        assert_eq!(traffic.fill.len(), traffic.cache_capacity);
        let cold = (0..4000)
            .filter(|&i| traffic.cold.contains(&traffic.request(i).1))
            .count();
        assert!((800..1200).contains(&cold), "{cold} of 4000 cold draws");
    }

    #[test]
    fn churn_fills_the_same_bodies_under_every_seed() {
        let fill = |seed| {
            let traffic = Traffic::new(Mix::Churn, seed);
            let mut fill = traffic.fill.clone();
            fill.sort_unstable();
            (fill, traffic.fill)
        };
        let ((set_a, order_a), (set_b, order_b)) = (fill(3), fill(4));
        assert_eq!(set_a, set_b);
        assert_ne!(order_a, order_b);
    }

    #[test]
    fn warm_fill_covers_every_body_requested() {
        let traffic = Traffic::new(Mix::Warm, 5);
        for i in 0..1000 {
            assert!(traffic.fill.contains(&traffic.request(i).1));
        }
        assert!(traffic.bodies.len() <= traffic.cache_capacity);
    }

    #[test]
    fn normalize_blanks_only_the_cache_marker() {
        let (hit, is_hit) = normalize(r#"{"a":1,"cache":"hit","b":2}"#);
        let (miss, is_hit_miss) = normalize(r#"{"a":1,"cache":"miss","b":2}"#);
        assert_eq!(hit, miss);
        assert!(is_hit && !is_hit_miss);
    }
}
