//! The load generator: replays N concurrent jobs against a server and
//! reports throughput, latency percentiles, and cache effectiveness.
//!
//! The generator is the service's acceptance harness: it floods the
//! bounded queue (exercising admission control: 503s are retried, not
//! errors), watches every job to a typed terminal outcome, and flags any
//! job that fails to terminate inside a generous hang timeout. The first
//! job runs alone ("cold", paying library characterization); the rest run
//! at the configured concurrency ("warm", riding the cross-job caches) —
//! the cold-versus-warm split in the report is what makes the cache win
//! visible.
//!
//! Connection failures are retried with bounded, seeded-jitter backoff
//! (`Backoff`): a refused or reset connection is what a restarting
//! server looks like from the outside, and the generator is expected to
//! ride across a kill-restart window (the `ci.sh` recovery smoke does
//! exactly that). Exhausting the retry budget is a typed `failed`
//! sample, never a hang.

use std::collections::BTreeMap;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use svtox_exec::rng::{derive_seed, Xoshiro256pp};
use svtox_obs::json;

use crate::http::{call, ClientResponse};
use crate::server::{start, ServerConfig};

/// What to replay, and where.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Target server address; `None` spawns an in-process server (and
    /// shuts it down at the end).
    pub addr: Option<String>,
    /// Total jobs to submit.
    pub jobs: usize,
    /// Client worker threads submitting concurrently.
    pub concurrency: usize,
    /// Built-in benchmark to submit (ignored when `bench` is set).
    pub circuit: Option<String>,
    /// Inline `.bench` text to submit instead of a named circuit.
    pub bench: Option<String>,
    /// Per-job deadline sent with every spec.
    pub deadline: Duration,
    /// Engine threads requested per job.
    pub threads: usize,
    /// Delay penalty in percent (the wire format of `penalty`).
    pub penalty_pct: f64,
    /// Monte-Carlo baseline vectors requested per job (`0` skips the
    /// baseline). The packed word-level estimator makes a few hundred
    /// vectors per job cheap, so the default mix includes them.
    pub vectors: usize,
    /// A job not terminating within this bound counts as a hang.
    pub hang_timeout: Duration,
    /// Seed for the deterministic retry-backoff jitter (each worker
    /// derives its own stream from it).
    pub retry_seed: u64,
    /// Configuration for the spawned server when `addr` is `None`.
    pub server: ServerConfig,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        Self {
            addr: None,
            jobs: 20,
            concurrency: 8,
            circuit: Some("c432".to_string()),
            bench: None,
            deadline: Duration::from_millis(200),
            threads: 1,
            penalty_pct: 5.0,
            vectors: 256,
            hang_timeout: Duration::from_secs(60),
            retry_seed: 7,
            server: ServerConfig::default(),
        }
    }
}

/// Bounded exponential backoff with deterministic, seeded jitter.
///
/// Doubles from 5 ms up to a 250 ms ceiling, multiplied by a jitter in
/// `[0.5, 1.5)` drawn from a per-worker xoshiro stream — deterministic
/// for a given seed, but de-synchronized across workers so a restarted
/// server is not hit by every client on the same tick.
struct Backoff {
    rng: Xoshiro256pp,
    attempt: u32,
    limit: u32,
}

impl Backoff {
    /// Consecutive connection failures tolerated before giving up.
    const LIMIT: u32 = 10;

    fn new(seed: u64, stream: u64) -> Self {
        Self {
            rng: Xoshiro256pp::seed_from_u64(derive_seed(seed, stream)),
            attempt: 0,
            limit: Self::LIMIT,
        }
    }

    /// Records a failure; `Some(delay)` to sleep and retry, `None` when
    /// the budget is exhausted.
    fn next_delay(&mut self) -> Option<Duration> {
        if self.attempt >= self.limit {
            return None;
        }
        let base_ms = (5u64 << self.attempt.min(6)).min(250) as f64;
        self.attempt += 1;
        let jitter = self.rng.gen_range_f64(0.5, 1.5);
        Some(Duration::from_secs_f64(base_ms * jitter / 1e3))
    }

    /// A success: the peer is reachable again, future failures start a
    /// fresh budget.
    fn reset(&mut self) {
        self.attempt = 0;
    }
}

/// The outcome of a load run.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Jobs submitted.
    pub jobs: usize,
    /// Jobs finishing `complete`.
    pub completed: usize,
    /// Jobs finishing `degraded` (deadline or cancel — still typed).
    pub degraded: usize,
    /// Jobs finishing `failed` (typed error).
    pub failed: usize,
    /// Jobs that never reached a terminal state inside the hang timeout.
    /// The degradation contract demands this stays zero under any load.
    pub hangs: usize,
    /// 503 admission rejections that were retried (load shedding at the
    /// queue bound, not failures).
    pub rejected_retries: usize,
    /// Connection failures (refused/reset) that were retried with
    /// backoff — nonzero when the load spanned a server restart.
    pub connect_retries: usize,
    /// `serve.journal.recovery_ms` gauge after the run, when the target
    /// server replayed a journal at startup.
    pub recovery_ms: Option<f64>,
    /// `serve.journal.degraded` counter after the run (journal write
    /// faults observed by the server).
    pub journal_degraded: u64,
    /// Wall clock for the whole run, milliseconds.
    pub wall_ms: f64,
    /// Jobs per second over the wall clock.
    pub throughput_jobs_per_s: f64,
    /// Median submit-to-done latency, milliseconds. `None` when no job
    /// produced a sample — an absent stat, not a zero-millisecond one.
    pub p50_ms: Option<f64>,
    /// 90th-percentile latency.
    pub p90_ms: Option<f64>,
    /// 99th-percentile latency.
    pub p99_ms: Option<f64>,
    /// Worst latency.
    pub max_ms: Option<f64>,
    /// Latency of the first, solo job (pays characterization).
    pub cold_ms: Option<f64>,
    /// Median latency of the remaining, cache-warm jobs. `None` for a
    /// single-job run, where every job is cold.
    pub warm_p50_ms: Option<f64>,
    /// `serve.cache.library_hits` after the run (spawned servers only).
    pub library_hits: u64,
    /// `serve.cache.library_misses` after the run.
    pub library_misses: u64,
    /// `serve.cache.netlist_hits` after the run.
    pub netlist_hits: u64,
    /// `serve.cache.netlist_misses` after the run.
    pub netlist_misses: u64,
    /// Whether `GET /metrics` answered 200 with the serve counters.
    pub metrics_ok: bool,
    /// Whether the spawned server joined all threads on shutdown
    /// (`true` trivially when targeting an external server).
    pub clean_shutdown: bool,
}

impl LoadReport {
    /// Renders the report as a JSON object.
    #[must_use]
    pub fn render_json(&self) -> String {
        let mut obj = BTreeMap::new();
        let mut num = |name: &str, v: f64| {
            obj.insert(name.to_string(), json::Value::Num(v));
        };
        num("jobs", self.jobs as f64);
        num("completed", self.completed as f64);
        num("degraded", self.degraded as f64);
        num("failed", self.failed as f64);
        num("hangs", self.hangs as f64);
        num("rejected_retries", self.rejected_retries as f64);
        num("connect_retries", self.connect_retries as f64);
        num("journal_degraded", self.journal_degraded as f64);
        num("wall_ms", self.wall_ms);
        num("throughput_jobs_per_s", self.throughput_jobs_per_s);
        num("library_hits", self.library_hits as f64);
        num("library_misses", self.library_misses as f64);
        num("netlist_hits", self.netlist_hits as f64);
        num("netlist_misses", self.netlist_misses as f64);
        // Absent latency stats are omitted rather than reported as 0.0:
        // a fake "0 ms warm p50" on an all-cold run reads as an
        // impossibly fast cache, not as "no data".
        for (name, v) in [
            ("recovery_ms", self.recovery_ms),
            ("p50_ms", self.p50_ms),
            ("p90_ms", self.p90_ms),
            ("p99_ms", self.p99_ms),
            ("max_ms", self.max_ms),
            ("cold_ms", self.cold_ms),
            ("warm_p50_ms", self.warm_p50_ms),
        ] {
            if let Some(v) = v {
                obj.insert(name.to_string(), json::Value::Num(v));
            }
        }
        obj.insert("metrics_ok".to_string(), json::Value::Bool(self.metrics_ok));
        obj.insert(
            "clean_shutdown".to_string(),
            json::Value::Bool(self.clean_shutdown),
        );
        json::Value::Obj(obj).to_string()
    }

    /// Renders a human-readable summary. Absent latency stats print as
    /// `n/a`, never as a fake `0.0`.
    #[must_use]
    pub fn render_text(&self) -> String {
        fn ms(v: Option<f64>) -> String {
            v.map_or_else(|| "n/a".to_string(), |v| format!("{v:.1}"))
        }
        format!(
            "loadgen: {} jobs in {:.0} ms ({:.1} jobs/s)\n\
             outcomes: {} complete, {} degraded, {} failed, {} hangs\n\
             admission: {} retried 503s; connections: {} backoff retries\n\
             recovery: {} ms journal replay, {} journal degradations\n\
             latency ms: p50 {}, p90 {}, p99 {}, max {}\n\
             cache: cold {} ms, warm p50 {} ms; library {}/{} hits, netlist {}/{} hits\n\
             metrics {}, shutdown {}\n",
            self.jobs,
            self.wall_ms,
            self.throughput_jobs_per_s,
            self.completed,
            self.degraded,
            self.failed,
            self.hangs,
            self.rejected_retries,
            self.connect_retries,
            ms(self.recovery_ms),
            self.journal_degraded,
            ms(self.p50_ms),
            ms(self.p90_ms),
            ms(self.p99_ms),
            ms(self.max_ms),
            ms(self.cold_ms),
            ms(self.warm_p50_ms),
            self.library_hits,
            self.library_hits + self.library_misses,
            self.netlist_hits,
            self.netlist_hits + self.netlist_misses,
            if self.metrics_ok { "ok" } else { "FAILED" },
            if self.clean_shutdown {
                "clean"
            } else {
                "UNCLEAN"
            },
        )
    }
}

struct Sample {
    outcome: &'static str,
    latency: Duration,
}

struct Shared {
    samples: Mutex<Vec<Sample>>,
    rejected: AtomicUsize,
    connect_retries: AtomicUsize,
    next: AtomicUsize,
}

/// Runs the load and returns the report.
///
/// # Errors
///
/// Returns the bind error when spawning an in-process server fails; the
/// load itself never errors — client-visible failures become typed
/// entries in the report.
pub fn run(config: &LoadgenConfig) -> io::Result<LoadReport> {
    let spawned = match &config.addr {
        Some(_) => None,
        None => Some(start(config.server.clone())?),
    };
    let addr = match (&config.addr, &spawned) {
        (Some(addr), _) => addr.clone(),
        (None, Some(handle)) => handle.addr().to_string(),
        (None, None) => unreachable!("no addr and no spawned server"),
    };
    let body = job_body(config);
    let shared = Shared {
        samples: Mutex::new(Vec::with_capacity(config.jobs)),
        rejected: AtomicUsize::new(0),
        connect_retries: AtomicUsize::new(0),
        next: AtomicUsize::new(1),
    };

    let started = Instant::now();
    let mut cold_ms = None;
    if config.jobs > 0 {
        // The first job runs alone: it pays the cold caches.
        let sample = submit_and_wait(&addr, &body, config.hang_timeout, &shared, 0, config);
        cold_ms = Some(sample.latency.as_secs_f64() * 1e3);
        shared.samples.lock().expect("samples lock").push(sample);
    }
    if config.jobs > 1 {
        let workers = config.concurrency.clamp(1, config.jobs - 1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let index = shared.next.fetch_add(1, Ordering::Relaxed);
                    if index >= config.jobs {
                        return;
                    }
                    let sample = submit_and_wait(
                        &addr,
                        &body,
                        config.hang_timeout,
                        &shared,
                        index as u64,
                        config,
                    );
                    shared.samples.lock().expect("samples lock").push(sample);
                });
            }
        });
    }
    let wall = started.elapsed();

    let metrics = call(&addr, "GET", "/metrics", "", Duration::from_secs(10)).ok();
    let metrics_ok = metrics
        .as_ref()
        .is_some_and(|m| m.status == 200 && m.body.contains("serve.jobs_admitted"));
    let counters = metrics
        .as_ref()
        .map(|m| parse_metrics(&m.body))
        .unwrap_or_default();

    let clean_shutdown = match spawned {
        Some(handle) => {
            handle.shutdown();
            true
        }
        None => true,
    };

    let samples = shared.samples.into_inner().expect("samples lock");
    let mut latencies: Vec<f64> = samples
        .iter()
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    latencies.sort_by(f64::total_cmp);
    let mut warm: Vec<f64> = samples
        .iter()
        .skip(1)
        .map(|s| s.latency.as_secs_f64() * 1e3)
        .collect();
    warm.sort_by(f64::total_cmp);
    let count = |outcome: &str| samples.iter().filter(|s| s.outcome == outcome).count();

    Ok(LoadReport {
        jobs: samples.len(),
        completed: count("complete"),
        degraded: count("degraded"),
        failed: count("failed"),
        hangs: count("hang"),
        rejected_retries: shared.rejected.load(Ordering::Relaxed),
        connect_retries: shared.connect_retries.load(Ordering::Relaxed),
        recovery_ms: counters
            .get("serve.journal.recovery_ms")
            .map(|&ms| ms as f64),
        journal_degraded: counters.get("serve.journal.degraded").copied().unwrap_or(0),
        wall_ms: wall.as_secs_f64() * 1e3,
        throughput_jobs_per_s: if wall.as_secs_f64() > 0.0 {
            samples.len() as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        p50_ms: percentile(&latencies, 50.0),
        p90_ms: percentile(&latencies, 90.0),
        p99_ms: percentile(&latencies, 99.0),
        max_ms: latencies.last().copied(),
        cold_ms,
        warm_p50_ms: percentile(&warm, 50.0),
        library_hits: counters
            .get("serve.cache.library_hits")
            .copied()
            .unwrap_or(0),
        library_misses: counters
            .get("serve.cache.library_misses")
            .copied()
            .unwrap_or(0),
        netlist_hits: counters
            .get("serve.cache.netlist_hits")
            .copied()
            .unwrap_or(0),
        netlist_misses: counters
            .get("serve.cache.netlist_misses")
            .copied()
            .unwrap_or(0),
        metrics_ok,
        clean_shutdown,
    })
}

fn job_body(config: &LoadgenConfig) -> String {
    let mut obj = BTreeMap::new();
    if let Some(bench) = &config.bench {
        obj.insert("bench".to_string(), json::Value::Str(bench.clone()));
    } else if let Some(circuit) = &config.circuit {
        obj.insert("circuit".to_string(), json::Value::Str(circuit.clone()));
    }
    obj.insert(
        "deadline_ms".to_string(),
        json::Value::Num(config.deadline.as_millis() as f64),
    );
    obj.insert(
        "threads".to_string(),
        json::Value::Num(config.threads.max(1) as f64),
    );
    obj.insert("penalty".to_string(), json::Value::Num(config.penalty_pct));
    if config.vectors > 0 {
        obj.insert(
            "vectors".to_string(),
            json::Value::Num(config.vectors as f64),
        );
    }
    json::Value::Obj(obj).to_string()
}

/// Submits one job and follows it to a terminal state. Every path ends in
/// a typed sample; "hang" is the one the acceptance criteria forbid.
///
/// Connection failures retry on the worker's [`Backoff`] — bounded, so a
/// server that is *gone* produces a typed `failed` sample, while one
/// that is *restarting* is reconnected to within the budget.
fn submit_and_wait(
    addr: &str,
    body: &str,
    hang_timeout: Duration,
    shared: &Shared,
    job_index: u64,
    config: &LoadgenConfig,
) -> Sample {
    let started = Instant::now();
    let give_up = started + hang_timeout;
    let io_timeout = Duration::from_secs(10);
    let mut backoff = Backoff::new(config.retry_seed, job_index);
    let retry = |backoff: &mut Backoff| -> bool {
        match backoff.next_delay() {
            Some(delay) => {
                shared.connect_retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(delay);
                true
            }
            None => false,
        }
    };

    // Submission: retry 503 (admission control shedding load) and
    // connection failures until admitted, out of retries, or out of time.
    let id = loop {
        if Instant::now() >= give_up {
            return Sample {
                outcome: "hang",
                latency: started.elapsed(),
            };
        }
        match call(addr, "POST", "/jobs", body, io_timeout) {
            Ok(ClientResponse { status: 202, body }) => {
                match json::parse(&body)
                    .ok()
                    .and_then(|doc| doc.get("id").and_then(json::Value::as_f64))
                {
                    Some(id) => break id as u64,
                    None => {
                        return Sample {
                            outcome: "failed",
                            latency: started.elapsed(),
                        }
                    }
                }
            }
            Ok(ClientResponse { status: 503, .. }) => {
                shared.rejected.fetch_add(1, Ordering::Relaxed);
                backoff.reset();
                std::thread::sleep(Duration::from_millis(2));
            }
            Ok(_) => {
                return Sample {
                    outcome: "failed",
                    latency: started.elapsed(),
                }
            }
            Err(_) => {
                if !retry(&mut backoff) {
                    return Sample {
                        outcome: "failed",
                        latency: started.elapsed(),
                    };
                }
            }
        }
    };

    // Follow the job to its typed end.
    backoff.reset();
    let path = format!("/jobs/{id}");
    loop {
        if Instant::now() >= give_up {
            return Sample {
                outcome: "hang",
                latency: started.elapsed(),
            };
        }
        match call(addr, "GET", &path, "", io_timeout) {
            Ok(ClientResponse { status: 200, body }) => {
                backoff.reset();
                let doc = json::parse(&body).ok();
                let state = doc
                    .as_ref()
                    .and_then(|d| d.get("state"))
                    .and_then(json::Value::as_str)
                    .unwrap_or("");
                if state == "done" {
                    let outcome = match doc
                        .as_ref()
                        .and_then(|d| d.get("outcome"))
                        .and_then(json::Value::as_str)
                    {
                        Some("complete") => "complete",
                        Some("degraded") => "degraded",
                        _ => "failed",
                    };
                    return Sample {
                        outcome,
                        latency: started.elapsed(),
                    };
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Ok(_) => {
                // A non-200 status answer (e.g. a restarted server that
                // lost this job to a degraded journal): poll on, the hang
                // timeout bounds us.
                backoff.reset();
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => {
                if !retry(&mut backoff) {
                    return Sample {
                        outcome: "failed",
                        latency: started.elapsed(),
                    };
                }
            }
        }
    }
}

/// Parses the `/metrics` plain-text rendering (`  name value` lines).
fn parse_metrics(text: &str) -> BTreeMap<String, u64> {
    let mut counters = BTreeMap::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        if let (Some(name), Some(value)) = (parts.next(), parts.next()) {
            if let Ok(value) = value.parse::<u64>() {
                counters.insert(name.to_string(), value);
            }
        }
    }
    counters
}

fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        // No samples means no percentile — returning 0.0 here used to
        // masquerade as a real (and spectacular) latency downstream.
        return None;
    }
    let rank = (p / 100.0) * (sorted.len() - 1) as f64;
    Some(sorted[rank.round() as usize])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A netlist small enough that every job completes inside its
    /// deadline, so the storm exercises throughput, not timeouts.
    const TINY_BENCH: &str = "\
# tiny loadgen circuit
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(y)
n1 = NAND(a, b)
n2 = NOR(b, c)
y = AND(n1, n2)
";

    #[test]
    fn percentiles_pick_from_the_sorted_tail() {
        let data = [1.0, 2.0, 3.0, 4.0, 100.0];
        assert!((percentile(&data, 50.0).unwrap() - 3.0).abs() < 1e-9);
        assert!((percentile(&data, 99.0).unwrap() - 100.0).abs() < 1e-9);
        assert_eq!(percentile(&[], 50.0), None, "empty samples have no p50");
    }

    #[test]
    fn empty_latency_stats_report_as_absent_not_zero() {
        let report = LoadReport {
            jobs: 1,
            completed: 1,
            degraded: 0,
            failed: 0,
            hangs: 0,
            rejected_retries: 0,
            connect_retries: 0,
            recovery_ms: None,
            journal_degraded: 0,
            wall_ms: 12.0,
            throughput_jobs_per_s: 1.0,
            p50_ms: Some(12.0),
            p90_ms: Some(12.0),
            p99_ms: Some(12.0),
            max_ms: Some(12.0),
            cold_ms: Some(12.0),
            warm_p50_ms: None,
            library_hits: 0,
            library_misses: 1,
            netlist_hits: 0,
            netlist_misses: 1,
            metrics_ok: true,
            clean_shutdown: true,
        };
        let text = report.render_text();
        assert!(text.contains("warm p50 n/a ms"), "got {text}");
        assert!(!text.contains("warm p50 0.0"), "got {text}");
        let parsed = json::parse(&report.render_json()).unwrap();
        assert!(parsed.get("warm_p50_ms").is_none(), "omitted in JSON");
        assert_eq!(
            parsed.get("cold_ms").and_then(json::Value::as_f64),
            Some(12.0)
        );
    }

    #[test]
    fn metrics_text_parses_into_counters() {
        let parsed = parse_metrics("  serve.jobs_admitted          12\n  core.leaves 99\n");
        assert_eq!(parsed.get("serve.jobs_admitted"), Some(&12));
        assert_eq!(parsed.get("core.leaves"), Some(&99));
    }

    #[test]
    fn a_small_storm_terminates_typed_with_cache_hits() {
        let config = LoadgenConfig {
            jobs: 8,
            concurrency: 4,
            circuit: None,
            bench: Some(TINY_BENCH.to_string()),
            deadline: Duration::from_secs(10),
            server: ServerConfig {
                runners: 4,
                ..ServerConfig::default()
            },
            ..LoadgenConfig::default()
        };
        let report = run(&config).expect("loadgen runs");
        assert_eq!(report.jobs, 8);
        assert_eq!(report.hangs, 0, "{}", report.render_text());
        assert_eq!(report.completed, 8, "{}", report.render_text());
        assert!(report.metrics_ok);
        assert!(report.clean_shutdown);
        // One characterization, shared by everyone after the cold job.
        assert_eq!(report.library_misses, 1);
        assert_eq!(report.library_hits, 7);
        assert_eq!(report.netlist_misses, 1);
        assert_eq!(report.netlist_hits, 7);
        let parsed = json::parse(&report.render_json()).expect("report JSON parses");
        assert_eq!(parsed.get("hangs").and_then(json::Value::as_f64), Some(0.0));
    }
}
