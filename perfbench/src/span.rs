//! The benchmark's own host-clock spans.
//!
//! Spans wrap calls into the program's public API from the outside; the
//! program itself is not instrumented. A workload loop is written once,
//! generic over [`Probe`]: the untraced run passes [`Off`] (every probe
//! call compiles away), the traced run passes a [`Tracer`] that keeps the
//! spans in memory and writes them out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Span sink the workload loops are generic over.
pub trait Probe {
    /// Whether spans are recorded (lets loops skip work only a trace
    /// needs, such as outcome counter snapshots).
    const ON: bool;
    /// Tags the spans opened from now on with operation `op`.
    fn set_op(&mut self, op: u32);
    /// Opens a span for one public call into `layer`.
    fn open(&mut self, layer: &'static str, call: &'static str) -> u32;
    /// Closes the innermost open span, which must be `id`.
    fn close(&mut self, id: u32);
    /// Renames a span's call once its outcome is known.
    fn rename(&mut self, id: u32, call: &'static str);
}

/// The untraced run's probe: records nothing.
pub struct Off;

impl Probe for Off {
    const ON: bool = false;
    #[inline(always)]
    fn set_op(&mut self, _: u32) {}
    #[inline(always)]
    fn open(&mut self, _: &'static str, _: &'static str) -> u32 {
        0
    }
    #[inline(always)]
    fn close(&mut self, _: u32) {}
    #[inline(always)]
    fn rename(&mut self, _: u32, _: &'static str) {}
}

/// Share of the host time of a phase run with extra recording (`with`)
/// that the same phase did not need without it (`without`).
pub fn overhead(without: Duration, with: Duration) -> f64 {
    1.0 - without.as_secs_f64() / with.as_secs_f64()
}

/// Runs `f` inside a `layer`/`call` span.
#[inline(always)]
pub fn timed<P: Probe, R>(
    p: &mut P,
    layer: &'static str,
    call: &'static str,
    f: impl FnOnce() -> R,
) -> R {
    let id = p.open(layer, call);
    let r = f();
    p.close(id);
    r
}

const NO_PARENT: u32 = u32::MAX;

/// One host-clock span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Program layer the call goes into (`lb`, `svc`, `rpc`, ...).
    pub layer: &'static str,
    /// The call (`steer_dram`, `kv_put`, ...).
    pub call: &'static str,
    /// Start, ns since the tracer was created.
    pub start: u64,
    /// End, ns since the tracer was created.
    pub end: u64,
    /// Enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// Operation (packet or request) the span belongs to.
    pub op: u32,
}

impl Span {
    /// Duration in ns.
    pub fn ns(&self) -> u64 {
        self.end - self.start
    }
}

/// The traced run's probe: keeps every span in memory.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u32,
}

impl Tracer {
    /// Starts the traced run's wall clock.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
            open: Vec::new(),
            op: 0,
        }
    }

    #[inline(always)]
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Ends the traced run: its wall time plus the per-layer accounting.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open (a bug in a workload loop).
    pub fn finish(self) -> Traced {
        let wall_ns = self.now();
        assert!(self.open.is_empty(), "span left open");
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.ns();
            }
        }
        let mut calls: BTreeMap<(&'static str, &'static str), (u64, u64)> = BTreeMap::new();
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let c = calls.entry((s.layer, s.call)).or_default();
            c.0 += 1;
            c.1 += s.ns();
            *self_ns.entry(s.layer).or_default() += s.ns().saturating_sub(*child);
        }
        Traced {
            wall_ns,
            spans: self.spans,
            calls,
            self_ns,
        }
    }
}

impl Probe for Tracer {
    const ON: bool = true;

    #[inline(always)]
    fn set_op(&mut self, op: u32) {
        self.op = op;
    }

    #[inline(always)]
    fn open(&mut self, layer: &'static str, call: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start = self.now();
        self.spans.push(Span {
            layer,
            call,
            start,
            end: start,
            parent,
            op: self.op,
        });
        self.open.push(id);
        id
    }

    #[inline(always)]
    fn close(&mut self, id: u32) {
        let end = self.now();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end = end;
    }

    #[inline(always)]
    fn rename(&mut self, id: u32, call: &'static str) {
        self.spans[id as usize].call = call;
    }
}

/// A finished trace: spans plus per-call and per-layer totals.
pub struct Traced {
    /// Wall time of the whole traced run, ns.
    pub wall_ns: u64,
    /// Every span, in open order.
    pub spans: Vec<Span>,
    /// `(layer, call)` → (calls, total ns).
    pub calls: BTreeMap<(&'static str, &'static str), (u64, u64)>,
    /// Layer → self time (span time minus the time its child spans
    /// cover), ns.
    pub self_ns: BTreeMap<&'static str, u64>,
}

impl Traced {
    /// (calls, total ns) of `layer`/`call`; zeros when the workload never
    /// makes that call.
    fn call(&self, layer: &'static str, call: &'static str) -> (u64, u64) {
        self.calls.get(&(layer, call)).copied().unwrap_or((0, 0))
    }

    /// Mean host ns per call of `layer`/`call`; 0 when the workload never
    /// makes that call.
    pub fn mean_ns(&self, layer: &'static str, call: &'static str) -> f64 {
        match self.call(layer, call) {
            (0, _) => 0.0,
            (n, ns) => ns as f64 / n as f64,
        }
    }

    /// Number of `layer`/`call` spans.
    pub fn calls_of(&self, layer: &'static str, call: &'static str) -> u64 {
        self.call(layer, call).0
    }

    /// Total host ns in `layer`/`call`.
    pub fn total_ns(&self, layer: &'static str, call: &'static str) -> u64 {
        self.call(layer, call).1
    }

    /// Share of the wall time no layer's self time accounts for: the
    /// benchmark's own loop between spans. Layer self times plus this
    /// share make up the wall time exactly.
    pub fn unattributed_frac(&self) -> f64 {
        let attributed: u64 = self.self_ns.values().sum();
        (self.wall_ns as f64 - attributed as f64) / self.wall_ns as f64
    }

    /// Ratio of the mean duration of the last quarter of `layer`/`call`
    /// spans to that of the first quarter: above 1 when the call gets
    /// slower as the run's state grows.
    pub fn growth(&self, layer: &str, call: &str) -> f64 {
        let ns: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.layer == layer && s.call == call)
            .map(Span::ns)
            .collect();
        let q = ns.len() / 4;
        if q == 0 {
            return 0.0;
        }
        let mean = |xs: &[u64]| xs.iter().sum::<u64>() as f64 / xs.len() as f64;
        mean(&ns[ns.len() - q..]) / mean(&ns[..q])
    }

    /// Prints the per-layer table to stderr and writes the spans to
    /// `<out_dir>/trace-<workload>.tsv`.
    pub fn save(&self, out_dir: &Path, workload: &str) {
        self.print_layers();
        let path = out_dir.join(format!("trace-{workload}.tsv"));
        match self.write(&path) {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }

    fn print_layers(&self) {
        eprintln!("traced run wall: {:.3} s", self.wall_ns as f64 / 1e9);
        for (layer, ns) in &self.self_ns {
            eprintln!(
                "  layer {layer:<8} self {:>10.3} ms  {:>6.2}%",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / self.wall_ns as f64
            );
        }
        eprintln!(
            "  unattributed             {:>6.2}%",
            100.0 * self.unattributed_frac()
        );
        for ((layer, call), (n, ns)) in &self.calls {
            eprintln!(
                "  call {layer}.{call:<14} n={n:<8} mean {:>10.1} ns",
                *ns as f64 / *n as f64
            );
        }
    }

    /// Writes the spans as tab-separated `op layer call start_ns end_ns
    /// parent` lines (`parent` is a line index, `-` for none).
    fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "op\tlayer\tcall\tstart_ns\tend_ns\tparent")?;
        for s in &self.spans {
            write!(
                out,
                "{}\t{}\t{}\t{}\t{}\t",
                s.op, s.layer, s.call, s.start, s.end
            )?;
            if s.parent == NO_PARENT {
                writeln!(out, "-")?;
            } else {
                writeln!(out, "{}", s.parent)?;
            }
        }
        out.flush()
    }
}
