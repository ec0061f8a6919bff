//! `lb_spill` and `lb_churn`: the L4 load balancer's DRAM flow table and
//! its flash spill, read side and write side.

use std::time::{Duration, Instant};

use hyperion_apps::loadbalancer::{BackendId, LoadBalancer};
use hyperion_apps::trafficgen::TrafficGen;
use hyperion_sim::rng::Rng;
use hyperion_sim::time::Ns;

use crate::report::{self, Checks, Fingerprint, Laps, Outcome, Phase};
use crate::span::{overhead, timed, Off, Probe, Traced, Tracer};
use crate::Config;

/// Backend servers behind the balancer.
const BACKENDS: u32 = 16;
/// Flows the fabric-DRAM table holds.
const DRAM_FLOWS: usize = 50_000;
/// Spill SSD size (LBAs).
const SPILL_LBAS: u64 = 1 << 20;

/// `lb_spill`: flows installed in set-up, 4x what DRAM holds.
const SPILL_FLOWS: u64 = 200_000;
/// `lb_spill`: Zipf-0.9 packets sent in set-up, after the install, so
/// the Zipf head has been promoted from flash and the timed phase sees
/// the steady-state mix of DRAM hits and flash promotions.
const SPILL_WARM_PACKETS: usize = 30_000;
/// `lb_spill`: Zipf-0.9 packets in the timed phase.
const SPILL_PACKETS: usize = 20_000;

/// `lb_churn`: new flows in the timed phase, each evicting one flow and
/// programming one flash page.
const CHURN_FLOWS: usize = 20_000;
/// `lb_churn`: evicted flows re-steered after the timed phase to check
/// that their spilled state kept their backend.
const CHURN_RECHECK: usize = 1_000;

/// The balancer's counters that tell a steer's outcome apart.
const OUTCOMES: [&str; 4] = ["hits_dram", "hits_flash", "hits_staged", "new_flows"];

fn outcome_counts(lb: &LoadBalancer) -> [u64; 4] {
    OUTCOMES.map(|c| lb.counters.get(c))
}

/// Span call name for a steer, from the counter that moved across it.
fn outcome(before: [u64; 4], after: [u64; 4]) -> &'static str {
    match (0..4).find(|&i| after[i] > before[i]) {
        Some(0) => "steer_dram",
        Some(1) => "steer_flash",
        Some(2) => "steer_staged",
        Some(3) => "steer_new",
        _ => "steer_unknown",
    }
}

/// Steers one packet inside an `lb` span named by its outcome.
#[inline(always)]
fn steer<P: Probe>(p: &mut P, lb: &mut LoadBalancer, flow: u64, now: Ns) -> (BackendId, Ns) {
    let before = if P::ON { outcome_counts(lb) } else { [0; 4] };
    let id = p.open("lb", "steer");
    let r = lb.steer(flow, now);
    p.close(id);
    if P::ON {
        p.rename(id, outcome(before, outcome_counts(lb)));
    }
    r
}

/// The balancer's counters at one instant.
fn snapshot(lb: &LoadBalancer) -> Vec<(&'static str, u64)> {
    lb.counters.iter().collect()
}

/// Balancer counters into the fingerprint: totals as `lb.<name>`, and
/// what the timed phase added since `before` as `lb.phase_<name>`.
fn counters(fp: &mut Fingerprint, lb: &LoadBalancer, before: &[(&str, u64)]) {
    for (name, v) in lb.counters.iter() {
        let was = before.iter().find(|(n, _)| *n == name).map_or(0, |e| e.1);
        fp.insert(format!("lb.{name}"), v);
        fp.insert(format!("lb.phase_{name}"), v - was);
    }
    fp.insert("lb.total_flows".into(), lb.total_flows() as u64);
    fp.insert("lb.dram_flows".into(), lb.dram_flows() as u64);
}

// ---------------------------------------------------------------------------
// lb_spill
// ---------------------------------------------------------------------------

struct Spill {
    lb: LoadBalancer,
    gen: TrafficGen,
    /// Backend each flow got when set-up installed it.
    first: Vec<BackendId>,
    now: Ns,
}

/// Installs every flow (150k of them spill to flash), then sends
/// [`SPILL_WARM_PACKETS`] Zipf packets so the hot flows are back in DRAM.
fn spill_setup(seed: u64) -> Spill {
    let mut lb = LoadBalancer::new(BACKENDS, DRAM_FLOWS, SPILL_LBAS);
    let mut gen = TrafficGen::new(seed, SPILL_FLOWS, 0.0, 16);
    let mut first = Vec::with_capacity(SPILL_FLOWS as usize);
    let mut now = Ns::ZERO;
    for f in 0..SPILL_FLOWS {
        let (b, done) = lb.steer(f, now);
        first.push(b);
        now = done;
    }
    for _ in 0..SPILL_WARM_PACKETS {
        let (flow, _) = gen.next_packet();
        now = lb.steer(flow, now).1;
    }
    Spill {
        lb,
        gen,
        first,
        now,
    }
}

/// Closed loop, one packet in flight: Zipf packets back to back.
fn spill_phase<P: Probe>(s: &mut Spill, p: &mut P, laps: &mut Laps, checks: &mut Checks) -> Phase {
    let before = snapshot(&s.lb);
    let start = s.now;
    let mut lat = Vec::with_capacity(SPILL_PACKETS);
    let mut moved = 0u64;
    for i in 0..SPILL_PACKETS {
        p.set_op(i as u32);
        let (flow, _) = timed(p, "gen", "next_packet", || s.gen.next_packet());
        let (b, done) = steer(p, &mut s.lb, flow, s.now);
        lat.push((done - s.now).0);
        s.now = done;
        moved += u64::from(b != s.first[flow as usize]);
        laps.op();
    }
    let mut fp = Fingerprint::new();
    counters(&mut fp, &s.lb, &before);
    // Every flow was installed in set-up: a packet that opens a new flow
    // found its state lost, even if the hash gave it the same backend.
    let forgotten = fp.get("lb.phase_new_flows").copied().unwrap_or(0);
    checks.attempted += SPILL_PACKETS as u64;
    // A packet can fail both ways; count it once at most.
    checks.failed += (moved + forgotten).min(SPILL_PACKETS as u64);
    if moved > 0 {
        checks.fail_run(format!("{moved} re-seen flows changed backend"));
    }
    if forgotten > 0 {
        checks.fail_run(format!(
            "{forgotten} packets of installed flows opened a new flow"
        ));
    }
    Phase {
        lat,
        span_ns: (s.now - start).0,
        fp,
    }
}

/// `lb_spill`, untraced: end-to-end metrics.
pub fn spill(cfg: &Config) -> Outcome {
    report::repeat(cfg.budget, 1, |_| {
        let t0 = Instant::now();
        let mut s = spill_setup(cfg.seed);
        let setup = t0.elapsed();
        let mut checks = Checks::default();
        let mut laps = Laps::start();
        let phase = spill_phase(&mut s, &mut Off, &mut laps, &mut checks);
        phase.rep(setup, laps.finish(), checks)
    })
}

/// `lb_spill`, traced: per-layer metrics.
pub fn spill_traced(cfg: &Config) -> Outcome {
    let mut checks = Checks::default();
    // Untraced first: the reference results, and a warm heap for the two
    // timed phases that follow.
    let plain = spill_phase(
        &mut spill_setup(cfg.seed),
        &mut Off,
        &mut Laps::start(),
        &mut checks,
    )
    .fingerprint(&mut checks);

    let mut tr = Tracer::new();
    let mut s = timed(&mut tr, "lb", "warm", || spill_setup(cfg.seed));
    let t = Instant::now();
    let phase = spill_phase(&mut s, &mut tr, &mut Laps::start(), &mut checks);
    let traced_phase = t.elapsed();
    let traced = tr.finish();
    drop(s);
    let fp = phase.fingerprint(&mut checks);
    if fp != plain {
        checks.fail_run(format!(
            "traced replay diverged: {}",
            report::diff(&plain, &fp)
        ));
    }

    let mut s = spill_setup(cfg.seed);
    let t = Instant::now();
    spill_phase(&mut s, &mut Off, &mut Laps::start(), &mut Checks::default());
    let untraced = t.elapsed();

    let metrics = lb_layers(&traced, &fp, untraced, traced_phase);
    traced.save(&cfg.out_dir, "lb_spill");
    Outcome {
        checks,
        metrics,
        fingerprint: fp,
    }
}

// ---------------------------------------------------------------------------
// lb_churn
// ---------------------------------------------------------------------------

struct Churn {
    lb: LoadBalancer,
    rng: Rng,
    /// The first warm flows and their backends: the first evicted.
    oldest: Vec<(u64, BackendId)>,
    now: Ns,
}

/// Fills the DRAM table exactly (warm, nothing spilled yet), with
/// write-through spill: one flash page per eviction.
fn churn_setup(seed: u64) -> Churn {
    let mut lb = LoadBalancer::with_spill_batch(BACKENDS, DRAM_FLOWS, SPILL_LBAS, 1);
    let mut rng = Rng::seeded(seed);
    let mut oldest = Vec::with_capacity(CHURN_RECHECK);
    let mut now = Ns::ZERO;
    for _ in 0..DRAM_FLOWS {
        let flow = rng.next_u64();
        let (b, done) = lb.steer(flow, now);
        if oldest.len() < CHURN_RECHECK {
            oldest.push((flow, b));
        }
        now = done;
    }
    Churn {
        lb,
        rng,
        oldest,
        now,
    }
}

/// Connection storm: every packet opens a new flow.
fn churn_phase<P: Probe>(c: &mut Churn, p: &mut P, laps: &mut Laps, checks: &mut Checks) -> Phase {
    let before = snapshot(&c.lb);
    let start = c.now;
    let mut lat = Vec::with_capacity(CHURN_FLOWS);
    for i in 0..CHURN_FLOWS {
        p.set_op(i as u32);
        let flow = c.rng.next_u64();
        let (_, done) = steer(p, &mut c.lb, flow, c.now);
        lat.push((done - c.now).0);
        c.now = done;
        laps.op();
    }
    let mut fp = Fingerprint::new();
    counters(&mut fp, &c.lb, &before);
    let opened = fp.get("lb.phase_new_flows").copied().unwrap_or(0);
    checks.attempted += CHURN_FLOWS as u64;
    checks.failed += CHURN_FLOWS as u64 - opened;
    if opened != CHURN_FLOWS as u64 {
        checks.fail_run(format!(
            "{opened} of {CHURN_FLOWS} packets opened a new flow"
        ));
    }
    Phase {
        lat,
        span_ns: (c.now - start).0,
        fp,
    }
}

/// After the timed phase: the oldest flows were evicted first and now
/// live on flash; re-steering them must read their state back from flash
/// and give their first backend back. The backend alone proves little
/// (a forgotten flow hashes to the same one), so each must also be a
/// flash hit.
fn churn_recheck(c: &mut Churn, checks: &mut Checks, fp: &mut Fingerprint) {
    let flash_before = c.lb.counters.get("hits_flash");
    for &(flow, first) in &c.oldest {
        let hits = c.lb.counters.get("hits_flash");
        let (b, done) = c.lb.steer(flow, c.now);
        c.now = done;
        let from_flash = c.lb.counters.get("hits_flash") == hits + 1;
        checks.check(b == first && from_flash, || {
            format!(
                "spilled flow {flow:#x}: backend {b:?} (first {first:?}), read from flash: {from_flash}"
            )
        });
    }
    fp.insert(
        "lb.recheck_flash_hits".into(),
        c.lb.counters.get("hits_flash") - flash_before,
    );
    fp.insert("lb.recheck_end_ns".into(), c.now.0);
}

/// `lb_churn`, untraced: end-to-end metrics.
pub fn churn(cfg: &Config) -> Outcome {
    report::repeat(cfg.budget, 1, |_| {
        let t0 = Instant::now();
        let mut c = churn_setup(cfg.seed);
        let setup = t0.elapsed();
        let mut checks = Checks::default();
        let mut laps = Laps::start();
        let mut phase = churn_phase(&mut c, &mut Off, &mut laps, &mut checks);
        let laps = laps.finish();
        churn_recheck(&mut c, &mut checks, &mut phase.fp);
        phase.rep(setup, laps, checks)
    })
}

/// `lb_churn`, traced: per-layer metrics.
pub fn churn_traced(cfg: &Config) -> Outcome {
    let mut checks = Checks::default();
    // Untraced first: the reference results, and a warm heap for the two
    // timed phases that follow.
    let mut c = churn_setup(cfg.seed);
    let mut plain = churn_phase(&mut c, &mut Off, &mut Laps::start(), &mut checks);
    churn_recheck(&mut c, &mut checks, &mut plain.fp);
    let plain = plain.fingerprint(&mut checks);
    drop(c);

    let mut tr = Tracer::new();
    let mut c = timed(&mut tr, "lb", "warm", || churn_setup(cfg.seed));
    let t = Instant::now();
    let mut phase = churn_phase(&mut c, &mut tr, &mut Laps::start(), &mut checks);
    let traced_phase = t.elapsed();
    let traced = tr.finish();
    churn_recheck(&mut c, &mut checks, &mut phase.fp);
    drop(c);
    let fp = phase.fingerprint(&mut checks);
    if fp != plain {
        checks.fail_run(format!(
            "traced replay diverged: {}",
            report::diff(&plain, &fp)
        ));
    }

    let mut c = churn_setup(cfg.seed);
    let t = Instant::now();
    churn_phase(&mut c, &mut Off, &mut Laps::start(), &mut Checks::default());
    let untraced = t.elapsed();
    drop(c);

    let mut metrics = lb_layers(&traced, &fp, untraced, traced_phase);
    metrics.push(("lb.steer_new_growth", traced.growth("lb", "steer_new")));
    traced.save(&cfg.out_dir, "lb_churn");
    Outcome {
        checks,
        metrics,
        fingerprint: fp,
    }
}

// ---------------------------------------------------------------------------
// Shared per-layer accounting
// ---------------------------------------------------------------------------

fn lb_layers(
    traced: &Traced,
    fp: &Fingerprint,
    untraced: Duration,
    traced_phase: Duration,
) -> Vec<(&'static str, f64)> {
    let get = |k: &str| fp.get(k).copied().unwrap_or(0) as f64;
    let steer_total: u64 = ["steer_dram", "steer_flash", "steer_staged", "steer_new"]
        .iter()
        .map(|c| traced.total_ns("lb", c))
        .sum();
    let ops = get("virt.ops");
    vec![
        ("lb.steer_dram_ns", traced.mean_ns("lb", "steer_dram")),
        ("lb.steer_flash_ns", traced.mean_ns("lb", "steer_flash")),
        ("lb.steer_new_ns", traced.mean_ns("lb", "steer_new")),
        (
            "lb.steer_dram_time_share",
            traced.total_ns("lb", "steer_dram") as f64 / steer_total.max(1) as f64,
        ),
        (
            "lb.dram_hit_ratio",
            traced.calls_of("lb", "steer_dram") as f64 / ops,
        ),
        ("lb.promotions", get("lb.phase_promotions")),
        ("lb.spill_pages", get("lb.phase_spill_pages")),
        ("lb.warm_ns", traced.total_ns("lb", "warm") as f64),
        ("gen.next_packet_ns", traced.mean_ns("gen", "next_packet")),
        (
            "bench.trace_overhead_frac",
            overhead(untraced, traced_phase),
        ),
        ("bench.unattributed_frac", traced.unattributed_frac()),
    ]
}
