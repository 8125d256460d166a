//! Statistics, the benchmark-side span recorder, run metadata and the
//! result record.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations whose outputs were checked.
    pub attempted: u64,
    /// Operations that failed, were not complete, or did not check out.
    pub failed: u64,
    /// End-to-end metrics (untraced figures).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (traced runs only).
    pub layers: Vec<Metric>,
    /// Lines of context for the run record (counts, known gaps).
    pub notes: Vec<String>,
    /// The traced run's spans, one JSON line each.
    pub spans: String,
}

impl Report {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.e2e.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.layers.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records one checked operation; `Err` counts it as failed and keeps
    /// the first few reasons for the run record.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failed <= 5 {
                self.notes.push(format!("check failed: {why}"));
            }
        }
    }
}

/// Median of a sample (0 for an empty one).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Percentile of a sample, interpolating linearly between ranks (0 for an
/// empty sample).
#[must_use]
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = (pct / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median over circuits of each circuit's median sample.
#[must_use]
pub fn median_of_medians(samples: &[Vec<f64>]) -> f64 {
    median(&samples.iter().map(|s| median(s)).collect::<Vec<_>>())
}

/// Each operation's median over the repetitions, where `reps[r][k]` is
/// operation `k` of repetition `r`. The median of the raw times of a few
/// dozen distinct operations falls in a gap between two of them and takes
/// its value from their slowest and fastest repetitions; the median of
/// these medians is one operation's typical time.
#[must_use]
pub fn op_medians(reps: &[&[f64]]) -> Vec<f64> {
    (0..reps.first().map_or(0, |r| r.len()))
        .map(|k| median(&reps.iter().map(|r| r[k]).collect::<Vec<_>>()))
        .collect()
}

/// Geometric mean of positive values (0 for an empty sample).
#[must_use]
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// `num / den`, or 0 when the denominator is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set (`VmHWM`) of this process in MB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Times `count` fresh `Problem::new` calls on a netlist (the admission
/// step of an optimization) and appends each time in ms.
pub fn probe_admission(
    netlist: &svtox_netlist::Netlist,
    library: &svtox_cells::Library,
    count: usize,
    out: &mut Vec<f64>,
) {
    for _ in 0..count {
        let start = Instant::now();
        let problem =
            svtox_core::Problem::new(netlist, library, svtox_sta::TimingConfig::default());
        out.push(ms(start.elapsed()));
        std::hint::black_box(problem.is_ok());
    }
}

/// Whether another repetition fits: always run `min_reps`, then keep
/// going while the mean repetition still fits in the measurement window.
#[must_use]
pub fn another_rep(start: Instant, reps: &[f64], min_reps: usize, seconds: f64) -> bool {
    if reps.len() < min_reps {
        return true;
    }
    let mean = reps.iter().sum::<f64>() / reps.len() as f64;
    start.elapsed().as_secs_f64() + mean <= seconds
}

/// One recorded span: benchmark-side, around one call into a layer.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Circuit or job the span belongs to.
    pub key: String,
    /// Repetition (pass) the span belongs to.
    pub group: u32,
    pub start_us: f64,
    pub end_us: f64,
}

/// In-memory span recorder. Disabled, it only times.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
    next: AtomicU64,
}

/// Where a new span hangs: its parent and repetition group.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub parent: Option<u64>,
    pub group: u32,
}

impl Ctx {
    #[must_use]
    pub fn root(group: u32) -> Self {
        Self {
            parent: None,
            group,
        }
    }
}

impl Tracer {
    #[must_use]
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            next: AtomicU64::new(0),
        }
    }

    #[must_use]
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named `name`; `f` gets the context for
    /// child spans. Returns `f`'s value and the elapsed time.
    pub fn span<T>(
        &self,
        name: &'static str,
        key: &str,
        ctx: Ctx,
        f: impl FnOnce(Ctx) -> T,
    ) -> (T, Duration) {
        let id = self.next_id();
        let start = Instant::now();
        let child = Ctx {
            parent: self.on.then_some(id),
            group: ctx.group,
        };
        let value = f(child);
        let elapsed = start.elapsed();
        self.push(SpanRec {
            id,
            parent: ctx.parent,
            name,
            key: key.to_string(),
            group: ctx.group,
            start_us: self.us(start),
            end_us: self.us(start) + elapsed.as_secs_f64() * 1e6,
        });
        (value, elapsed)
    }

    /// Records a span measured elsewhere (e.g. from client timestamps)
    /// and returns the context for its children.
    pub fn record(
        &self,
        name: &'static str,
        key: &str,
        ctx: Ctx,
        start: Instant,
        end: Instant,
    ) -> Ctx {
        let id = self.next_id();
        let child = Ctx {
            parent: self.on.then_some(id),
            group: ctx.group,
        };
        if !self.on {
            return child;
        }
        self.push(SpanRec {
            id,
            parent: ctx.parent,
            name,
            key: key.to_string(),
            group: ctx.group,
            start_us: self.us(start),
            end_us: self.us(end),
        });
        child
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }

    fn push(&self, rec: SpanRec) {
        if self.on {
            self.spans.lock().expect("span buffer lock").push(rec);
        }
    }

    fn next_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Self time (duration minus the time covered by child spans) of
    /// every span, in µs, keyed by span id.
    fn self_us(spans: &[SpanRec]) -> BTreeMap<u64, f64> {
        let mut own: BTreeMap<u64, f64> = spans
            .iter()
            .map(|s| (s.id, s.end_us - s.start_us))
            .collect();
        for s in spans {
            if let Some(p) = s.parent {
                if let Some(v) = own.get_mut(&p) {
                    *v -= s.end_us - s.start_us;
                }
            }
        }
        own
    }

    /// Per-group sums of the self time (ms) of spans named `name` (and,
    /// with `key`, belonging to that circuit or job).
    #[must_use]
    pub fn self_ms_per_group(&self, name: &str, key: Option<&str>) -> Vec<f64> {
        let spans = self.spans.lock().expect("span buffer lock");
        let own = Self::self_us(&spans);
        let mut groups: BTreeMap<u32, f64> = BTreeMap::new();
        for s in spans.iter() {
            if s.name == name && key.is_none_or(|k| s.key == k) {
                *groups.entry(s.group).or_default() += own[&s.id] / 1e3;
            }
        }
        groups.into_values().collect()
    }

    /// Median over groups of [`Tracer::self_ms_per_group`].
    #[must_use]
    pub fn layer_ms(&self, name: &str, key: Option<&str>) -> f64 {
        median(&self.self_ms_per_group(name, key))
    }

    /// Self times (ms) of every span named `name`, one per span.
    #[must_use]
    pub fn each_self_ms(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span buffer lock");
        let own = Self::self_us(&spans);
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| own[&s.id] / 1e3)
            .collect()
    }

    /// Every span as one JSON line.
    #[must_use]
    pub fn jsonl(&self) -> String {
        let spans = self.spans.lock().expect("span buffer lock");
        let mut out = String::new();
        for s in spans.iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{parent},\"key\":\"{}\",\"group\":{},\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.name, s.id, s.key, s.group, s.start_us, s.end_us
            );
        }
        out
    }
}
