//! `serve_mix`: an in-process `svtox_serve` server with two runners and
//! the journal on, driven as a closed loop by two clients that each submit
//! a job, follow its event stream until it closes, then fetch its status.
//!
//! The jobs are a seeded mix of repeated circuits (cache hits), unique
//! inline circuits (misses: parse, map and strash) and ECO jobs carrying an
//! edit script, every one with a Monte-Carlo baseline and a deadline far
//! above its run time, so every job must finish `complete`.
//!
//! The shares of the mix, the number of repeated circuits and edit scripts
//! and the penalty split are a synthetic choice, not taken from any
//! measured or published workload. Every run reports the share of
//! completed jobs in each part of the mix and each part's median latency,
//! so a change that only helps cache hits shows against the rest.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use svtox_cells::{Library, LibraryOptions};
use svtox_check::domain::random_edit_script;
use svtox_core::{Budget, DelayPenalty, ExecConfig, Mode, Obs, Problem, RunOutcome};
use svtox_exec::rng::{derive_seed, Xoshiro256pp};
use svtox_netlist::generators::{random_dag, RandomDagSpec};
use svtox_netlist::{map_to_primitives, parse_bench, EditScript, MappingOptions, Netlist};
use svtox_obs::json;
use svtox_serve::http;
use svtox_serve::journal::JOURNAL_FILE;
use svtox_serve::{ServerConfig, ServerHandle};
use svtox_sim::random_average_leakage_parallel;
use svtox_sta::{Sta, TimingConfig};
use svtox_tech::Technology;

use crate::checks;
use crate::report::{geomean, median, ms, percentile, ratio, Ctx, Report, Tracer};

/// Far above any job's run time: a job that does not complete is a
/// failure of the service, never of the deadline.
const DEADLINE_MS: u64 = 600_000;
/// Client-side bound on any one HTTP exchange (a hung job fails, it does
/// not stall the run past its time limit).
const IO_TIMEOUT: Duration = Duration::from_secs(60);
const PENALTIES_PCT: [f64; 3] = [5.0, 10.0, 25.0];

/// How much work one run does.
#[derive(Debug, Clone)]
pub struct Size {
    /// Repeated circuits (cache hits after their first use).
    pub hot: usize,
    /// Edit scripts per repeated circuit (ECO jobs).
    pub scripts: usize,
    pub inputs: usize,
    pub gates: usize,
    pub depth: usize,
    pub vectors: usize,
    pub clients: usize,
    /// Jobs per block of `run_s`.
    pub block: usize,
    pub setup_reps: usize,
    /// Jobs per second of `--seconds` a run submits: the work is a fixed
    /// job count, so memory (the server keeps every finished job) and the
    /// mix compare across runs; 50/s fills the window on a 2-core host.
    pub jobs_per_second: f64,
    /// Fewest jobs per run (`job_p95_ms` needs ten beyond it).
    pub min_jobs: usize,
}

impl Size {
    /// Jobs one run submits.
    #[must_use]
    pub fn jobs(&self, seconds: f64) -> usize {
        ((seconds * self.jobs_per_second) as usize).max(self.min_jobs)
    }
}

impl Size {
    #[must_use]
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Self {
                hot: 2,
                scripts: 1,
                inputs: 5,
                gates: 16,
                depth: 4,
                vectors: 64,
                clients: 2,
                block: 4,
                setup_reps: 1,
                jobs_per_second: 0.0,
                min_jobs: 12,
            }
        } else {
            Self {
                hot: 4,
                scripts: 3,
                inputs: 6,
                gates: 60,
                depth: 8,
                vectors: 256,
                clients: 2,
                block: 50,
                setup_reps: 11,
                jobs_per_second: 50.0,
                min_jobs: 200,
            }
        }
    }
}

/// Which part of the mix a job belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Repeated circuit `h`.
    Hot(usize),
    /// A circuit no other job submits.
    Unique(usize),
    /// Repeated circuit `h` with its edit script `e`.
    Eco(usize, usize),
}

/// One generated job.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    pub kind: Kind,
    pub penalty_pct: f64,
    pub bench: String,
    pub edits: Option<String>,
}

impl Kind {
    /// The part of the mix, as named in metrics and notes.
    #[must_use]
    pub fn part(&self) -> &'static str {
        match self {
            Kind::Hot(_) => "hot",
            Kind::Unique(_) => "unique",
            Kind::Eco(..) => "eco",
        }
    }
}

impl Job {
    /// The `POST /jobs` body.
    #[must_use]
    pub fn body(&self, vectors: usize) -> String {
        let mut out = String::from("{\"bench\":");
        json::escape_into(&mut out, &self.bench);
        if let Some(edits) = &self.edits {
            out.push_str(",\"edits\":");
            json::escape_into(&mut out, edits);
        }
        out.push_str(&format!(
            ",\"penalty\":{},\"threads\":1,\"vectors\":{vectors},\"deadline_ms\":{DEADLINE_MS}}}",
            self.penalty_pct
        ));
        out
    }

    /// Identity of the job's spec: equal keys give equal results.
    fn key(&self) -> (Kind, u64) {
        (self.kind, self.penalty_pct.to_bits())
    }
}

fn mapped(bench: &str) -> Netlist {
    let raw = parse_bench(bench).expect("generated bench text parses");
    map_to_primitives(&raw, MappingOptions::default()).expect("generated circuits map")
}

/// The seeded job mix: 45 % repeated circuits, 25 % unique circuits,
/// 30 % ECO jobs on the repeated circuits; penalties 5/10/25 % with equal
/// odds. The proportions are synthetic (see the module comment).
pub struct Mix {
    seed: u64,
    size: Size,
    hot: Vec<String>,
    scripts: Vec<Vec<String>>,
}

impl Mix {
    #[must_use]
    pub fn new(size: &Size, seed: u64) -> Self {
        let hot: Vec<String> = (0..size.hot)
            .map(|h| Self::circuit(size, &format!("hot{h}"), derive_seed(seed, h as u64)))
            .collect();
        let scripts = hot
            .iter()
            .enumerate()
            .map(|(h, text)| {
                let base = mapped(text);
                (0..size.scripts)
                    .map(|e| {
                        let s = derive_seed(seed ^ 0xec0, (h * size.scripts + e) as u64);
                        random_edit_script(&base, s, 4).to_string()
                    })
                    .collect()
            })
            .collect();
        Self {
            seed,
            size: size.clone(),
            hot,
            scripts,
        }
    }

    fn circuit(size: &Size, name: &str, seed: u64) -> String {
        let mut spec = RandomDagSpec::new(name, size.inputs, 4, size.gates, size.depth);
        spec.seed = seed;
        random_dag(&spec)
            .expect("the random DAG spec is valid")
            .to_bench()
    }

    /// Job `index` of the run.
    #[must_use]
    pub fn job(&self, index: usize) -> Job {
        let mut rng = Xoshiro256pp::seed_from_u64(derive_seed(self.seed ^ 0x70b, index as u64));
        let roll = rng.gen_f64();
        let penalty_pct = PENALTIES_PCT[rng.gen_index(PENALTIES_PCT.len())];
        let h = rng.gen_index(self.hot.len());
        let kind = if roll < 0.45 {
            Kind::Hot(h)
        } else if roll < 0.70 {
            Kind::Unique(index)
        } else {
            Kind::Eco(h, rng.gen_index(self.size.scripts))
        };
        let (bench, edits) = match kind {
            Kind::Hot(h) => (self.hot[h].clone(), None),
            Kind::Unique(i) => (
                Self::circuit(
                    &self.size,
                    &format!("u{i}"),
                    derive_seed(self.seed ^ 0x1e, i as u64),
                ),
                None,
            ),
            Kind::Eco(h, e) => (self.hot[h].clone(), Some(self.scripts[h][e].clone())),
        };
        Job {
            kind,
            penalty_pct,
            bench,
            edits,
        }
    }
}

/// What the server reported for a finished job.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Done {
    leakage_bits: u64,
    delay_bits: u64,
    leakage_ua: f64,
    baseline_ua: f64,
}

/// One client-side job round.
struct Sample {
    job: Job,
    admit_ms: f64,
    queue_ms: Option<f64>,
    latency_ms: f64,
    engine_ms: f64,
    status_ms: f64,
    /// Since the start of the measurement.
    finished_s: f64,
    result: Result<Done, String>,
}

fn journal_dir(tag: &str) -> PathBuf {
    PathBuf::from(".bench_build")
        .join("perfbench")
        .join(format!("serve-{}-{tag}", std::process::id()))
}

fn start_server(dir: &Path) -> ServerHandle {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("the journal directory can be created");
    svtox_serve::start(ServerConfig {
        runners: 2,
        journal: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    })
    .expect("the server starts on a free local port")
}

/// The event stream of a job, read line by line as chunks arrive.
struct Stream {
    started: Option<Instant>,
    engine_us: f64,
    outcome: Option<String>,
}

fn follow_events(addr: &str, id: u64) -> std::io::Result<Stream> {
    let mut tcp = TcpStream::connect(addr)?;
    tcp.set_read_timeout(Some(IO_TIMEOUT))?;
    tcp.set_write_timeout(Some(IO_TIMEOUT))?;
    write!(
        tcp,
        "GET /jobs/{id}/events HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    tcp.flush()?;
    let mut reader = BufReader::new(tcp);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if !line.contains(" 200 ") {
        return Err(std::io::Error::other(format!("events: {}", line.trim())));
    }
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("events: truncated head"));
        }
        if line == "\r\n" {
            break;
        }
    }
    let mut out = Stream {
        started: None,
        engine_us: 0.0,
        outcome: None,
    };
    let mut pending = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::other("events: stream cut before its end"));
        }
        let len = usize::from_str_radix(line.trim(), 16)
            .map_err(|_| std::io::Error::other("events: bad chunk size"))?;
        let mut data = vec![0u8; len + 2];
        reader.read_exact(&mut data)?;
        if len == 0 {
            return Ok(out);
        }
        let now = Instant::now();
        pending.push_str(&String::from_utf8_lossy(&data[..len]));
        while let Some(end) = pending.find('\n') {
            let text: String = pending.drain(..=end).collect();
            let Ok(value) = json::parse(text.trim()) else {
                continue;
            };
            let field = |k: &str| {
                value
                    .get(k)
                    .and_then(json::Value::as_str)
                    .map(str::to_string)
            };
            let name = field("name").unwrap_or_default();
            match field("type").as_deref() {
                Some("event") if name == "job.started" => out.started = Some(now),
                Some("event") if name == "job.finished" => out.outcome = field("outcome"),
                Some("span")
                    if value.get("parent") == Some(&json::Value::Null)
                        && (name.starts_with("core.") || name.starts_with("sim.")) =>
                {
                    out.engine_us += value
                        .get("dur_us")
                        .and_then(json::Value::as_f64)
                        .unwrap_or(0.0);
                }
                _ => {}
            }
        }
    }
}

fn parse_done(body: &str) -> Result<Done, String> {
    let v = json::parse(body).map_err(|e| format!("status is not JSON: {e}"))?;
    let s = |k: &str| {
        v.get(k)
            .and_then(json::Value::as_str)
            .unwrap_or_default()
            .to_string()
    };
    let n = |k: &str| v.get(k).and_then(json::Value::as_f64);
    if s("outcome") != "complete" {
        return Err(format!(
            "job ended {} {} {}",
            s("outcome"),
            s("reason"),
            s("error")
        ));
    }
    let bits = |k: &str| u64::from_str_radix(&s(k), 16).map_err(|_| format!("bad {k}"));
    Ok(Done {
        leakage_bits: bits("leakage_bits")?,
        delay_bits: bits("delay_bits")?,
        leakage_ua: n("leakage_ua").ok_or("no leakage_ua")?,
        baseline_ua: n("baseline_leakage_ua").ok_or("no baseline_leakage_ua")?,
    })
}

/// One closed-loop job round: submit, follow the events to their end,
/// fetch the status.
fn round(
    addr: &str,
    job: Job,
    vectors: usize,
    tracer: &Tracer,
    epoch: Instant,
    index: usize,
) -> Sample {
    let key = format!("job{index}");
    let t0 = Instant::now();
    let posted = http::call(addr, "POST", "/jobs", &job.body(vectors), IO_TIMEOUT);
    let t_admit = Instant::now();
    let mut sample = Sample {
        job,
        admit_ms: ms(t_admit - t0),
        queue_ms: None,
        latency_ms: 0.0,
        engine_ms: 0.0,
        status_ms: 0.0,
        finished_s: 0.0,
        result: Err(String::new()),
    };
    let id = match posted {
        Ok(r) if r.status == 202 => {
            let id = json::parse(&r.body)
                .ok()
                .and_then(|v| v.get("id").and_then(json::Value::as_f64));
            if id.is_none() {
                sample.result = Err(format!("POST /jobs answered 202 without an id: {}", r.body));
            }
            id.map(|id| id as u64)
        }
        Ok(r) => {
            sample.result = Err(format!("POST /jobs answered {}: {}", r.status, r.body));
            None
        }
        Err(e) => {
            sample.result = Err(format!("POST /jobs: {e}"));
            None
        }
    };
    let Some(id) = id else {
        sample.finished_s = (Instant::now() - epoch).as_secs_f64();
        return sample;
    };
    let events = follow_events(addr, id);
    let t_closed = Instant::now();
    let status = http::call(addr, "GET", &format!("/jobs/{id}"), "", IO_TIMEOUT);
    let t_status = Instant::now();
    sample.latency_ms = ms(t_closed - t0);
    sample.status_ms = ms(t_status - t_closed);
    sample.finished_s = (t_closed - epoch).as_secs_f64();
    sample.result = match (events, status) {
        (Ok(ev), Ok(st)) if st.status == 200 => {
            sample.engine_ms = ev.engine_us / 1e3;
            sample.queue_ms = ev.started.map(|t| ms(t.saturating_duration_since(t_admit)));
            if let (Some(started), true) = (ev.started, tracer.is_on()) {
                let job = tracer.record("serve.job", &key, Ctx::root(0), t0, t_status);
                tracer.record("serve.post", &key, job, t0, t_admit);
                tracer.record("serve.queue", &key, job, t_admit, started);
                tracer.record("serve.run", &key, job, started, t_closed);
                tracer.record("serve.status", &key, job, t_closed, t_status);
            }
            match ev.outcome.as_deref() {
                Some("complete") => parse_done(&st.body),
                other => Err(format!("event stream ended with outcome {other:?}")),
            }
        }
        (Ok(_), Ok(st)) => Err(format!("GET /jobs/{id} answered {}", st.status)),
        (Err(e), _) => Err(format!("events of job {id}: {e}")),
        (_, Err(e)) => Err(format!("GET /jobs/{id}: {e}")),
    };
    sample
}

/// The untimed in-process run of a job's spec: the same netlist path as
/// the server (parse, map, edit), the same baseline and the same engine.
fn replay(library: &Library, job: &Job, vectors: usize, tracer: &Tracer) -> Result<Done, String> {
    let mut netlist = mapped(&job.bench);
    if let Some(edits) = &job.edits {
        EditScript::parse(edits)
            .and_then(|s| s.apply(&mut netlist))
            .map_err(|e| format!("edits: {e}"))?;
        let _ = netlist.take_dirty();
    }
    let ctx = Ctx::root(0);
    let (problem, _) = tracer.span("core.problem", "", ctx, |_| {
        Problem::new(&netlist, library, TimingConfig::default())
    });
    let problem = problem.map_err(|e| e.to_string())?;
    if tracer.is_on() {
        let (delay, _) = tracer.span("sta.full_analyze", "", ctx, |_| {
            Sta::new(&netlist, library, TimingConfig::default()).map(|mut sta| sta.max_delay())
        });
        std::hint::black_box(delay.map_err(|e| e.to_string())?);
    }
    let baseline = random_average_leakage_parallel(
        &netlist,
        library,
        vectors,
        42,
        &ExecConfig::serial(),
        Obs::disabled_ref(),
    )
    .map_err(|e| e.to_string())?;
    let penalty = DelayPenalty::new(job.penalty_pct / 100.0).map_err(|e| e.to_string())?;
    let optimizer = problem.optimizer(penalty, Mode::Proposed);
    match optimizer.run_with_budget(&ExecConfig::with_threads(1), &Budget::unlimited(), None) {
        RunOutcome::Complete { solution, .. } => {
            checks::solution(&problem, optimizer.budget(), &solution)?;
            Ok(Done {
                leakage_bits: solution.leakage.value().to_bits(),
                delay_bits: solution.delay.value().to_bits(),
                leakage_ua: solution.leakage.as_micro_amps(),
                baseline_ua: baseline.as_micro_amps(),
            })
        }
        other => Err(format!("in-process run ended {}", other.status())),
    }
}

fn compare(served: &Done, local: &Done) -> Result<(), String> {
    if served.leakage_bits != local.leakage_bits || served.delay_bits != local.delay_bits {
        return Err(format!(
            "served bits {:016x}/{:016x} differ from the in-process run {:016x}/{:016x}",
            served.leakage_bits, served.delay_bits, local.leakage_bits, local.delay_bits
        ));
    }
    if (served.baseline_ua - local.baseline_ua).abs() > 1e-9 * local.baseline_ua.abs() {
        return Err(format!(
            "served baseline {} differs from the in-process {}",
            served.baseline_ua, local.baseline_ua
        ));
    }
    Ok(())
}

/// Counts a client out when its thread ends, panicking or not, so the
/// journal sampler always stops.
struct Leaving<'a>(&'a AtomicUsize);

impl Drop for Leaving<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Runs the workload.
#[must_use]
pub fn run(seed: u64, seconds: f64, trace: bool, smoke: bool) -> Report {
    let size = Size::new(smoke);
    let tracer = Tracer::new(trace);
    let mut report = Report::default();
    let mix = Mix::new(&size, seed);

    // Set-up: server start plus one warm-up job (which pays library
    // characterization inside the server), several times.
    let warm = mix.job(usize::MAX);
    let mut setups = Vec::new();
    let mut server = None;
    for r in 0..size.setup_reps {
        let dir = journal_dir(&r.to_string());
        let start = Instant::now();
        let handle = start_server(&dir);
        let addr = handle.addr().to_string();
        let sample = round(
            &addr,
            warm.clone(),
            size.vectors,
            &tracer,
            start,
            usize::MAX,
        );
        setups.push(start.elapsed().as_secs_f64());
        report.check(sample.result.map(|_| ()));
        if r + 1 == size.setup_reps {
            server = Some((handle, dir));
        } else {
            handle.shutdown();
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
    let (handle, dir) = server.expect("at least one set-up");
    let addr = handle.addr().to_string();
    let before = handle.obs().counter_snapshot();
    let journal = dir.join(JOURNAL_FILE);

    // The closed loop.
    let jobs = size.jobs(seconds);
    let next = AtomicUsize::new(0);
    let clients_left = AtomicUsize::new(size.clients);
    let samples = Mutex::new(Vec::new());
    let epoch = Instant::now();
    let journal_bytes = std::thread::scope(|scope| {
        // Traced runs sample the journal's growth every 5 ms: the
        // journal compacts itself as it goes, so its final size says
        // nothing about the bytes written. Growth between the last sample
        // and a compaction is missed.
        let sampler = scope.spawn(|| {
            let mut grown = 0;
            let mut last = file_len(&journal);
            while trace && clients_left.load(Ordering::Relaxed) > 0 {
                let now = file_len(&journal);
                grown += now.saturating_sub(last);
                last = now;
                std::thread::sleep(Duration::from_millis(5));
            }
            grown
        });
        for _ in 0..size.clients {
            scope.spawn(|| {
                let _leaving = Leaving(&clients_left);
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    // A program far slower than the window stops early rather
                    // than overrunning the run's time limit.
                    let overdue = epoch.elapsed().as_secs_f64() >= 4.0 * seconds.max(1.0);
                    if index >= jobs || overdue {
                        return;
                    }
                    let sample = round(&addr, mix.job(index), size.vectors, &tracer, epoch, index);
                    samples.lock().expect("sample list lock").push(sample);
                }
            });
        }
        sampler.join().expect("the journal sampler does not panic")
    });
    let wall = epoch.elapsed().as_secs_f64();
    let after = handle.obs().counter_snapshot();
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let mut samples = samples.into_inner().expect("sample list lock");
    samples.sort_by(|a, b| a.finished_s.total_cmp(&b.finished_s));

    // Output checks: every job complete, with the bits of an in-process
    // run of the same spec (one run per distinct spec).
    let (library, _) = tracer.span("cells.characterize", "", Ctx::root(0), |_| {
        Library::new(Technology::predictive_65nm(), LibraryOptions::default())
            .expect("the default library characterizes")
    });
    let mut distinct: BTreeMap<(Kind, u64), &Job> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.result.is_ok()) {
        distinct.entry(s.job.key()).or_insert(&s.job);
    }
    let distinct: Vec<_> = distinct.into_iter().collect();
    let local: BTreeMap<(Kind, u64), Result<Done, String>> = {
        let out = Mutex::new(BTreeMap::new());
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..2 {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some((key, job)) = distinct.get(i) else {
                        return;
                    };
                    let done = replay(&library, job, size.vectors, &tracer);
                    out.lock().expect("replay map lock").insert(*key, done);
                });
            }
        });
        out.into_inner().expect("replay map lock")
    };
    // `reduction_x` counts each distinct spec once, so the few repeated
    // circuits do not outweigh the rest of the mix.
    let mut reductions = BTreeMap::new();
    let mut done: Vec<&Sample> = Vec::new();
    for s in &samples {
        let outcome = s.result.clone().and_then(|served| {
            let local = local
                .get(&s.job.key())
                .cloned()
                .unwrap_or_else(|| Err("no in-process run".to_string()))?;
            compare(&served, &local)?;
            reductions.insert(s.job.key(), served.baseline_ua / served.leakage_ua);
            done.push(s);
            Ok(())
        });
        report.check(outcome);
    }

    let latencies: Vec<f64> = done.iter().map(|s| s.latency_ms).collect();
    let blocks: Vec<f64> = {
        let ends: Vec<f64> = samples.iter().map(|s| s.finished_s).collect();
        (1..=ends.len() / size.block)
            .map(|k| {
                let prev = if k == 1 {
                    0.0
                } else {
                    ends[(k - 1) * size.block - 1]
                };
                ends[k * size.block - 1] - prev
            })
            .collect()
    };
    report.e2e("setup_s", median(&setups), "s");
    report.e2e("run_s", median(&blocks), "s");
    report.e2e(
        "reduction_x",
        geomean(&reductions.into_values().collect::<Vec<_>>()),
        "x",
    );
    report.e2e("jobs_per_s", ratio(done.len() as f64, wall), "1/s");
    report.e2e("job_p50_ms", median(&latencies), "ms");
    report.e2e("job_p95_ms", percentile(&latencies, 95.0), "ms");
    report.e2e(
        "admit_p50_ms",
        median(&done.iter().map(|s| s.admit_ms).collect::<Vec<_>>()),
        "ms",
    );
    let count = |kind: fn(&Kind) -> bool| samples.iter().filter(|s| kind(&s.job.kind)).count();
    report.notes.push(format!(
        "{} of {} jobs completed and matched ({} repeated, {} unique, {} eco; {} distinct specs) in {wall:.1} s with {} clients",
        done.len(),
        samples.len(),
        count(|k| matches!(k, Kind::Hot(_))),
        count(|k| matches!(k, Kind::Unique(_))),
        count(|k| matches!(k, Kind::Eco(..))),
        local.len(),
        size.clients
    ));
    // Per part of the mix: share of the completed jobs and median latency.
    let parts: Vec<(&str, f64, f64)> = ["hot", "unique", "eco"]
        .into_iter()
        .map(|part| {
            let lat: Vec<f64> = done
                .iter()
                .filter(|s| s.job.kind.part() == part)
                .map(|s| s.latency_ms)
                .collect();
            (
                part,
                ratio(lat.len() as f64, done.len() as f64),
                median(&lat),
            )
        })
        .collect();
    report.notes.push(
        parts
            .iter()
            .map(|(part, share, p50)| {
                format!("{part}: {share:.3} of completed jobs, p50 {p50:.2} ms")
            })
            .collect::<Vec<_>>()
            .join("; "),
    );

    if trace {
        report.spans = tracer.jsonl();
        let delta = |name: &str| {
            (after.get(name).copied().unwrap_or(0) - before.get(name).copied().unwrap_or(0)) as f64
        };
        let hit_ratio = |hits: &str, misses: &str| ratio(delta(hits), delta(hits) + delta(misses));
        let jobs = samples.len() as f64;
        let p50 = |f: &dyn Fn(&Sample) -> Option<f64>| {
            median(&done.iter().filter_map(|s| f(s)).collect::<Vec<_>>())
        };
        report.layer(
            "cells.characterize_ms",
            tracer.layer_ms("cells.characterize", None),
            "ms",
        );
        report.layer(
            "core.problem_ms",
            median(&tracer.each_self_ms("core.problem")),
            "ms",
        );
        report.layer(
            "sta.full_analyze_ms",
            median(&tracer.each_self_ms("sta.full_analyze")),
            "ms",
        );
        report.layer("serve.engine_ms.p50", p50(&|s| Some(s.engine_ms)), "ms");
        report.layer(
            "serve.overhead_ms.p50",
            p50(&|s| Some(s.latency_ms - s.engine_ms)),
            "ms",
        );
        report.layer("serve.queue_wait_ms.p50", p50(&|s| s.queue_ms), "ms");
        report.layer("serve.status_ms.p50", p50(&|s| Some(s.status_ms)), "ms");
        report.layer(
            "serve.cache.netlist_hit_ratio",
            hit_ratio("serve.cache.netlist_hits", "serve.cache.netlist_misses"),
            "ratio",
        );
        report.layer(
            "serve.cache.library_hit_ratio",
            hit_ratio("serve.cache.library_hits", "serve.cache.library_misses"),
            "ratio",
        );
        report.layer(
            "serve.cache.eco_hit_ratio",
            hit_ratio("serve.cache.eco_hits", "serve.cache.eco_misses"),
            "ratio",
        );
        report.layer(
            "serve.connections_per_job",
            ratio(delta("serve.connections"), jobs),
            "count",
        );
        report.layer(
            "serve.journal_bytes_per_job",
            ratio(journal_bytes as f64, jobs),
            "B",
        );
        report.layer("sta.flushes", ratio(delta("sta.flushes"), jobs), "count");
        report.layer(
            "sta.gates_reevaluated",
            ratio(delta("sta.gates_reevaluated"), jobs),
            "count",
        );
        for (part, share, p50) in &parts {
            report.layer(&format!("serve.mix.{part}_share"), *share, "ratio");
            report.layer(&format!("serve.job_p50_ms.{part}"), *p50, "ms");
        }
        // The server enables its obs for every job, traced or not, and
        // offers no switch from outside: there is no untraced path to
        // compare against.
        report.layer("obs.overhead_pct", 0.0, "%");
        report.notes.push(
            "obs.overhead_pct is not measurable on serve_mix: the server's obs is always on and cannot be turned off from outside, so it reads 0".to_string(),
        );
        report.notes.push(
            "counter gap: the server emits no per-phase spans; serve.engine_ms comes from the job's own core/sim spans on its event stream and serve.overhead_ms is the rest of the job latency".to_string(),
        );
    }
    report
}
