//! Metric names, exact virtual-clock summaries, the repeat loop and the
//! result line.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use crate::cpu::Cpus;

/// Unit of modeled (virtual-clock) time, kept apart from host seconds.
pub const VIRT_US: &str = "virt_us";

/// End-to-end metrics, printed by the untraced run (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("host_ops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("virt_ops_per_s", "1/virt_s"),
    ("virt_p50_us", VIRT_US),
    ("virt_p99_us", VIRT_US),
    ("virt_p999_us", VIRT_US),
];

/// Per-layer metrics, printed by the traced run (`--trace 1`). Every
/// workload prints all of them; a layer a workload never calls reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lb.steer_dram_ns", "ns"),
    ("lb.steer_flash_ns", "ns"),
    ("lb.steer_new_ns", "ns"),
    ("lb.steer_new_growth", "ratio"),
    ("lb.steer_dram_time_share", "ratio"),
    ("lb.dram_hit_ratio", "ratio"),
    ("lb.promotions", "count"),
    ("lb.spill_pages", "count"),
    ("lb.warm_ns", "ns"),
    ("gen.next_packet_ns", "ns"),
    ("svc.tree_lookup_ns", "ns"),
    ("svc.node_read_ns", "ns"),
    ("svc.kv_put_ns", "ns"),
    ("svc.kv_get_ns", "ns"),
    ("svc.log_append_ns", "ns"),
    ("seg.read_ns", "ns"),
    ("rpc.call_ns", "ns"),
    ("telemetry.overhead_frac", "ratio"),
    ("telemetry.spans_retained", "count"),
    ("virt.cp_net_share", "ratio"),
    ("virt.cp_nvme_share", "ratio"),
    ("virt.cp_service_share", "ratio"),
    ("virt.cp_queue_share", "ratio"),
    ("hdl.process_ns", "ns"),
    ("ebpf.insns_per_pkt", "insns/pkt"),
    ("corfu.append_ns", "ns"),
    ("virt.ban_durable_p99_us", VIRT_US),
    ("f2b.logged_per_ban", "ratio"),
    ("control.deploy_ns", "ns"),
    ("dpu.boot_ns", "ns"),
    ("tree.populate_ns", "ns"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.unattributed_frac", "ratio"),
];

/// Exact virtual-clock results and counts of one run: identical for
/// every run of one seed on one build, whatever the host does.
pub type Fingerprint = BTreeMap<String, u64>;

/// Correctness bookkeeping: operations checked and rejected.
#[derive(Debug, Default)]
pub struct Checks {
    /// Operations whose answer was checked.
    pub attempted: u64,
    /// Operations that errored or whose answer a check rejected.
    pub failed: u64,
    /// What went wrong, for the log (first few per kind).
    pub problems: Vec<String>,
}

impl Checks {
    /// Counts one checked operation; `ok` false makes it a failure
    /// described by `why()`.
    #[inline]
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 16 {
                self.problems.push(why());
            }
        }
    }

    /// A run-level failure that is not one operation's (determinism,
    /// twin agreement, sizing).
    pub fn fail_run(&mut self, why: String) {
        self.problems.push(why);
    }

    /// Folds another rep's checks in.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for p in other.problems {
            if self.problems.len() < 16 {
                self.problems.push(p);
            }
        }
    }
}

/// Nearest-rank percentile of a sorted slice.
fn rank(sorted: &[u64], q: f64) -> u64 {
    let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Exact percentile of unsorted `xs` (nearest rank).
pub fn percentile(xs: &[u64], q: f64) -> u64 {
    let mut v = xs.to_vec();
    v.sort_unstable();
    rank(&v, q)
}

/// Records the modeled per-op latencies (ns) of a phase and the modeled
/// time it spanned into `fp`: ops, p50/p99/p99.9 and the span.
///
/// Each run must time enough ops that at least ten lie beyond p99.9.
pub fn virt_latency(fp: &mut Fingerprint, checks: &mut Checks, lat: &[u64], span_ns: u64) {
    let mut v = lat.to_vec();
    v.sort_unstable();
    let n = v.len() as u64;
    if n < 10_000 || span_ns == 0 {
        checks.fail_run(format!(
            "{n} ops over {span_ns} virtual ns: too few for ten samples beyond p99.9"
        ));
        return;
    }
    fp.insert("virt.ops".into(), n);
    fp.insert("virt.span_ns".into(), span_ns);
    fp.insert("virt.p50_ns".into(), rank(&v, 0.50));
    fp.insert("virt.p99_ns".into(), rank(&v, 0.99));
    fp.insert("virt.p999_ns".into(), rank(&v, 0.999));
    fp.insert("virt.sum_ns".into(), v.iter().sum());
}

/// The `virt_*` end-to-end metrics from a fingerprint made by
/// [`virt_latency`].
fn virt_metrics(fp: &Fingerprint) -> Vec<(&'static str, f64)> {
    let get = |k: &str| fp.get(k).copied().unwrap_or(0) as f64;
    let span_s = get("virt.span_ns") / 1e9;
    vec![
        (
            "virt_ops_per_s",
            if span_s > 0.0 {
                get("virt.ops") / span_s
            } else {
                0.0
            },
        ),
        ("virt_p50_us", get("virt.p50_ns") / 1e3),
        ("virt_p99_us", get("virt.p99_ns") / 1e3),
        ("virt_p999_us", get("virt.p999_ns") / 1e3),
    ]
}

/// Ops per lap of a timed phase.
const LAP_OPS: u32 = 1_000;

/// Host time of a timed phase, lap by lap, one lap per [`LAP_OPS`] ops.
/// Repetitions of one instance do the same work lap for lap, so
/// [`repeat`] can keep each lap's fastest time.
pub struct Laps {
    last: Instant,
    open: u32,
    laps: Vec<Duration>,
}

impl Laps {
    /// Starts the first lap now.
    pub fn start() -> Laps {
        Laps {
            last: Instant::now(),
            open: 0,
            laps: Vec::new(),
        }
    }

    /// Counts one finished op; every [`LAP_OPS`]th closes a lap.
    #[inline]
    pub fn op(&mut self) {
        self.open += 1;
        if self.open == LAP_OPS {
            self.lap();
        }
    }

    fn lap(&mut self) {
        let now = Instant::now();
        self.laps.push(now - self.last);
        self.last = now;
        self.open = 0;
    }

    /// Ends the phase, closing a last, partial lap.
    pub fn finish(mut self) -> Vec<Duration> {
        if self.open > 0 {
            self.lap();
        }
        self.laps
    }
}

/// Keeps in `best` each lap's fastest time so far; `laps` times the same
/// work, lap for lap.
pub fn keep_fastest(best: &mut Vec<Duration>, laps: Vec<Duration>) {
    if best.is_empty() {
        *best = laps;
    } else {
        for (b, lap) in best.iter_mut().zip(laps) {
            *b = (*b).min(lap);
        }
    }
}

/// One repetition of a workload: fresh set-up, then the timed phase.
pub struct Rep {
    /// Host time from building the system to the first timed op.
    pub setup: Duration,
    /// Host time of the timed phase, lap by lap.
    pub laps: Vec<Duration>,
    /// Modeled latency of every op in the timed phase, ns.
    pub lat: Vec<u64>,
    /// Modeled time the timed phase spanned, ns.
    pub span_ns: u64,
    /// Exact virtual results and counts besides the latencies.
    pub fingerprint: Fingerprint,
    /// Correctness checks.
    pub checks: Checks,
}

/// What a timed phase produced on the virtual clock.
pub struct Phase {
    /// Modeled latency of every op, ns.
    pub lat: Vec<u64>,
    /// Modeled time the phase spanned, ns.
    pub span_ns: u64,
    /// Exact results and counts besides the latencies.
    pub fp: Fingerprint,
}

impl Phase {
    /// The repetition this phase, timed as `laps`, was part of.
    pub fn rep(self, setup: Duration, laps: Vec<Duration>, checks: Checks) -> Rep {
        Rep {
            setup,
            laps,
            lat: self.lat,
            span_ns: self.span_ns,
            fingerprint: self.fp,
            checks,
        }
    }

    /// The whole fingerprint, latency summary included.
    pub fn fingerprint(mut self, checks: &mut Checks) -> Fingerprint {
        virt_latency(&mut self.fp, checks, &self.lat, self.span_ns);
        self.fp
    }
}

/// Repeats `rep` until `budget` is spent and every one of `streams`
/// independent instances has run at least once; repetition `i` runs
/// instance `i % streams` from a fresh set-up, on allowed CPU
/// `i / streams` (modulo their number), so every round of instances runs
/// on the next CPU. Reports the set-up time (the median over CPUs of each
/// CPU's median), the host rate from each lap's fastest time over the
/// repetitions of its instance, and the virtual metrics over the pooled
/// ops of all instances. Every repetition of an instance must reach the
/// same virtual results.
pub fn repeat(budget: Duration, streams: usize, mut rep: impl FnMut(usize) -> Rep) -> Outcome {
    let start = Instant::now();
    let cpus = Cpus::current();
    let mut setups = vec![Vec::new(); cpus.as_ref().map_or(1, Cpus::len)];
    let mut rates = Vec::new();
    let mut checks = Checks::default();
    let mut first: Vec<Option<(Fingerprint, Vec<u64>, u64)>> = vec![None; streams];
    let mut fastest: Vec<Vec<Duration>> = vec![Vec::new(); streams];
    let mut i = 0;
    while i < streams || start.elapsed() < budget {
        let stream = i % streams;
        let round = i / streams;
        if let Some(cpus) = &cpus {
            cpus.pin(round);
        }
        let r = rep(stream);
        let slot = round % setups.len();
        setups[slot].push(r.setup.as_secs_f64());
        rates.push(r.lat.len() as f64 / r.laps.iter().sum::<Duration>().as_secs_f64());
        // Same instance, same work per lap (the latency check below fails
        // the run otherwise).
        keep_fastest(&mut fastest[stream], r.laps);
        checks.merge(r.checks);
        match &first[stream] {
            None => first[stream] = Some((r.fingerprint, r.lat, r.span_ns)),
            Some((f, lat, span)) if *f != r.fingerprint || *lat != r.lat || *span != r.span_ns => {
                let what = if *f != r.fingerprint {
                    diff(f, &r.fingerprint)
                } else {
                    "per-op latencies".into()
                };
                checks.fail_run(format!(
                    "repetition {i}: virtual results of instance {stream} differ from its first run ({what})"
                ));
            }
            Some(_) => {}
        }
        i += 1;
    }
    if let Some(cpus) = &cpus {
        cpus.restore();
    }
    eprintln!(
        "{i} repetitions over {streams} instance(s) and {} CPU(s); setup_s by CPU {:?}; host_ops_per_s {:?}",
        setups.len(),
        setups
            .iter()
            .map(|c| c.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>())
            .collect::<Vec<_>>(),
        rates.iter().map(|r| format!("{r:.0}")).collect::<Vec<_>>()
    );
    let mut per_cpu: Vec<f64> = setups
        .iter_mut()
        .filter(|c| !c.is_empty())
        .map(|c| median(c))
        .collect();
    let mut fingerprint = Fingerprint::new();
    let mut pooled = Vec::new();
    let mut span_ns = 0;
    for (stream, f) in first.into_iter().enumerate() {
        let (fp, lat, span) = f.expect("every instance ran");
        pooled.extend(lat);
        span_ns += span;
        for (k, v) in fp {
            let key = if streams == 1 {
                k
            } else {
                format!("i{stream}.{k}")
            };
            fingerprint.insert(key, v);
        }
    }
    virt_latency(&mut fingerprint, &mut checks, &pooled, span_ns);
    let fastest_s: f64 = fastest.iter().flatten().sum::<Duration>().as_secs_f64();
    let mut metrics = vec![
        ("setup_s", median(&mut per_cpu)),
        // Best of N, as Python's `timeit` advises, taken lap by lap. The
        // host is shared: other tenants' load slows the simulator in
        // bursts, and interference only ever slows a lap. Each lap's
        // fastest time is the closest to the simulator's own cost, and a
        // burst spoils only the laps it overlaps, not a whole repetition.
        ("host_ops_per_s", pooled.len() as f64 / fastest_s),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    metrics.extend(virt_metrics(&fingerprint));
    Outcome {
        checks,
        metrics,
        fingerprint,
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Describes the first keys on which two fingerprints differ.
pub fn diff(a: &Fingerprint, b: &Fingerprint) -> String {
    let mut keys: Vec<&String> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();
    keys.into_iter()
        .filter(|k| a.get(*k) != b.get(*k))
        .take(4)
        .map(|k| format!("{k}: {:?} vs {:?}", a.get(k), b.get(k)))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Peak resident set (`VmHWM`) of this process, MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one benchmark run produced.
pub struct Outcome {
    /// Correctness checks (feed `attempted`, `failed`, `correct`).
    pub checks: Checks,
    /// Metric values by name (units come from the tables above).
    pub metrics: Vec<(&'static str, f64)>,
    /// Exact virtual results and counts.
    pub fingerprint: Fingerprint,
}

impl Outcome {
    /// Prints the result line and returns the exit code: 0 only when
    /// every check passed.
    pub fn print(self, trace: bool) -> ExitCode {
        let table = if trace { PER_LAYER } else { END_TO_END };
        for (name, _) in &self.metrics {
            assert!(
                table.iter().any(|(n, _)| n == name),
                "metric {name} is not in the {} table",
                if trace { "per-layer" } else { "end-to-end" }
            );
        }
        let mut metrics = Vec::new();
        for (name, unit) in table {
            let value = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            let value = if value.is_finite() { value } else { 0.0 };
            eprintln!("  {name:<28} {value:>16.6} {unit}");
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        let fingerprint: Vec<String> = self
            .fingerprint
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let correct =
            self.checks.attempted > 0 && self.checks.failed == 0 && self.checks.problems.is_empty();
        for p in &self.checks.problems {
            eprintln!("FAILED: {p}");
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"fingerprint\": {{{}}}}}",
            self.checks.attempted.max(1),
            self.checks.failed,
            metrics.join(", "),
            fingerprint.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}
