//! `fail2ban`: the eBPF classifier deployed through the control plane,
//! run on the DPU's fabric pipeline over Zipf traffic with attackers,
//! every ban persisted to the Corfu log.
//!
//! `run_on_dpu` wraps several layers (traffic generator, HDL pipeline
//! plus eBPF VM, Corfu log), so the per-packet virtual latencies and the
//! traced run come from a replay that makes the same layer calls itself,
//! in the same order, and must reach the same virtual results.

use std::time::Instant;

use hyperion::control::ControlPlane;
use hyperion::dpu::{DpuBuilder, HyperionDpu};
use hyperion_apps::fail2ban::{deploy, run_on_dpu, Fail2BanReport, CTX_LEN};
use hyperion_apps::trafficgen::TrafficGen;
use hyperion_fabric::slots::SlotId;
use hyperion_sim::time::Ns;
use hyperion_storage::LogEntry;

use crate::report::{self, Checks, Fingerprint, Outcome, Phase};
use crate::span::{overhead, timed, Off, Probe, Tracer};
use crate::Config;

/// Bitstream key of the DPU under test.
const AUTH_KEY: u64 = 0xC0FFEE;
/// Distinct flows in the traffic mix.
const FLOWS: u64 = 50_000;
/// Share of flows that are attackers.
const ATTACK_FRACTION: f64 = 0.1;
/// Packet payload bytes.
const PAYLOAD: usize = 64;
/// Packets per run of the classifier.
const PACKETS: u64 = 200_000;

struct F2b {
    dpu: HyperionDpu,
    cp: ControlPlane,
    slot: SlotId,
    live: Ns,
    gen: TrafficGen,
}

/// Boots the DPU and deploys the classifier through the control plane.
fn setup<P: Probe>(seed: u64, p: &mut P) -> F2b {
    let mut dpu = DpuBuilder::new().auth_key(AUTH_KEY).build();
    let booted = timed(p, "dpu", "boot", || dpu.boot(Ns::ZERO)).expect("fresh DPU boots");
    let mut cp = ControlPlane::new(AUTH_KEY);
    let (slot, live) = timed(p, "control", "deploy", || deploy(&mut dpu, &mut cp, booted))
        .expect("classifier deploys");
    F2b {
        dpu,
        cp,
        slot,
        live,
        gen: TrafficGen::new(seed, FLOWS, ATTACK_FRACTION, PAYLOAD),
    }
}

/// What the layer-by-layer replay saw.
struct Replay {
    /// Per packet: arrival to verdict, or to durability for a ban.
    lat: Vec<u64>,
    /// Per ban: append to durable.
    ban_durable: Vec<u64>,
    bans: u64,
    logged: u64,
    dropped: u64,
    insns: u64,
    end: Ns,
}

/// The calls `run_on_dpu` makes, one by one, with a span around each.
fn replay<P: Probe>(s: &mut F2b, p: &mut P) -> Replay {
    let mut r = Replay {
        lat: Vec::with_capacity(PACKETS as usize),
        ban_durable: Vec::new(),
        bans: 0,
        logged: 0,
        dropped: 0,
        insns: 0,
        end: s.live,
    };
    let mut now = s.live;
    for i in 0..PACKETS {
        p.set_op(i as u32);
        let (flow, packet) = timed(p, "gen", "next_packet", || s.gen.next_packet());
        let mut ctx = vec![0u8; CTX_LEN as usize];
        ctx[0..8].copy_from_slice(&packet.flow.hash64().to_le_bytes());
        ctx[8] = packet.payload[0];
        let kernel = s.cp.kernel_mut(s.slot).expect("kernel deployed");
        let (result, done) = timed(p, "hdl", "process", || {
            kernel.pipeline.process(&mut kernel.vm, &mut ctx, now)
        })
        .expect("verified kernel cannot fault");
        r.insns += result.insns;
        let arrival = now;
        now = done;
        match result.ret {
            1 => {
                r.bans += 1;
                let mut entry = Vec::with_capacity(16);
                entry.extend_from_slice(&flow.to_le_bytes());
                entry.extend_from_slice(&now.0.to_le_bytes());
                let (_, durable) = timed(p, "corfu", "append", || s.dpu.log.append(&entry, now))
                    .expect("log append");
                r.logged += 1;
                r.ban_durable.push((durable - now).0);
                r.lat.push((durable - arrival).0);
            }
            ret => {
                r.dropped += u64::from(ret == 2);
                r.lat.push((done - arrival).0);
            }
        }
    }
    r.end = now;
    r
}

/// Checks a finished run: every ban logged, and every logged flow (read
/// back from the log) an attacker.
fn check_bans(s: &mut F2b, bans: u64, logged: u64, end: Ns, checks: &mut Checks) {
    checks.check(logged == bans, || format!("{logged} bans logged of {bans}"));
    checks.check(s.dpu.log.tail() == logged, || {
        format!("log tail {} after {logged} appends", s.dpu.log.tail())
    });
    for pos in 0..s.dpu.log.tail() {
        let flow = match s.dpu.log.read(pos, end) {
            Ok((LogEntry::Data(d), _)) if d.len() >= 8 => {
                Some(u64::from_le_bytes(d[0..8].try_into().expect("8 bytes")))
            }
            _ => None,
        };
        checks.check(flow.is_some_and(|f| s.gen.is_attacker(f)), || {
            format!("log position {pos} holds {flow:?}, not an attacker flow")
        });
    }
}

fn report_fingerprint(rep: &Fail2BanReport) -> Fingerprint {
    let mut fp = Fingerprint::new();
    fp.insert("f2b.bans".into(), rep.bans);
    fp.insert("f2b.logged".into(), rep.logged);
    fp.insert("f2b.dropped".into(), rep.dropped);
    fp.insert("f2b.end_ns".into(), rep.end.0);
    fp
}

/// Folds the replay's counts into the fingerprint; they must agree with
/// the program's own run.
fn replay_fingerprint(r: &Replay, fp: &mut Fingerprint, checks: &mut Checks) {
    let program = fp.clone();
    let mut own = Fingerprint::new();
    own.insert("f2b.bans".into(), r.bans);
    own.insert("f2b.logged".into(), r.logged);
    own.insert("f2b.dropped".into(), r.dropped);
    own.insert("f2b.end_ns".into(), r.end.0);
    if own != program {
        checks.fail_run(format!(
            "layer-by-layer replay diverged from run_on_dpu: {}",
            report::diff(&program, &own)
        ));
    }
    fp.insert("f2b.insns".into(), r.insns);
    fp.insert(
        "f2b.ban_durable_p99_ns".into(),
        if r.ban_durable.is_empty() {
            0
        } else {
            report::percentile(&r.ban_durable, 0.99)
        },
    );
}

/// `fail2ban`, untraced: end-to-end metrics.
pub fn run(cfg: &Config) -> Outcome {
    // The replay is deterministic: made once, with the first repetition,
    // it gives the per-packet latencies, and every repetition's
    // `run_on_dpu` results are checked against it.
    let mut reference: Option<(Replay, u64)> = None;
    report::repeat(cfg.budget, 1, |_| {
        let t0 = Instant::now();
        let mut s = setup(cfg.seed, &mut Off);
        let setup_time = t0.elapsed();
        let t1 = Instant::now();
        let rep = run_on_dpu(&mut s.dpu, &mut s.cp, s.slot, &mut s.gen, PACKETS, s.live);
        let timed_phase = t1.elapsed();
        let mut checks = Checks::default();
        checks.attempted += PACKETS;
        check_bans(&mut s, rep.bans, rep.logged, rep.end, &mut checks);
        let mut fp = report_fingerprint(&rep);
        let (r, span_ns) = reference.get_or_insert_with(|| {
            let mut twin = setup(cfg.seed, &mut Off);
            let r = replay(&mut twin, &mut Off);
            let span_ns = (r.end - twin.live).0;
            (r, span_ns)
        });
        replay_fingerprint(r, &mut fp, &mut checks);
        Phase {
            span_ns: *span_ns,
            lat: r.lat.clone(),
            fp,
        }
        .rep(setup_time, vec![timed_phase], checks)
    })
}

/// `fail2ban`, traced: per-layer metrics.
pub fn run_traced(cfg: &Config) -> Outcome {
    let mut checks = Checks::default();
    // The program's own run first: the reference results, and a warm
    // heap for the two timed phases that follow.
    let mut s = setup(cfg.seed, &mut Off);
    let rep = run_on_dpu(&mut s.dpu, &mut s.cp, s.slot, &mut s.gen, PACKETS, s.live);
    checks.attempted += PACKETS;
    check_bans(&mut s, rep.bans, rep.logged, rep.end, &mut checks);
    let mut fp = report_fingerprint(&rep);
    drop(s);

    let mut tr = Tracer::new();
    let mut s = setup(cfg.seed, &mut tr);
    let t = Instant::now();
    let r = replay(&mut s, &mut tr);
    let traced_phase = t.elapsed();
    let traced = tr.finish();
    replay_fingerprint(&r, &mut fp, &mut checks);
    report::virt_latency(&mut fp, &mut checks, &r.lat, (r.end - s.live).0);
    drop(s);

    let mut s = setup(cfg.seed, &mut Off);
    let t = Instant::now();
    run_on_dpu(&mut s.dpu, &mut s.cp, s.slot, &mut s.gen, PACKETS, s.live);
    let untraced = t.elapsed();
    drop(s);

    let metrics = vec![
        ("gen.next_packet_ns", traced.mean_ns("gen", "next_packet")),
        ("hdl.process_ns", traced.mean_ns("hdl", "process")),
        ("ebpf.insns_per_pkt", r.insns as f64 / PACKETS as f64),
        ("corfu.append_ns", traced.mean_ns("corfu", "append")),
        (
            "virt.ban_durable_p99_us",
            fp.get("f2b.ban_durable_p99_ns").copied().unwrap_or(0) as f64 / 1e3,
        ),
        ("f2b.logged_per_ban", r.logged as f64 / r.bans.max(1) as f64),
        (
            "control.deploy_ns",
            traced.total_ns("control", "deploy") as f64,
        ),
        ("dpu.boot_ns", traced.total_ns("dpu", "boot") as f64),
        (
            "bench.trace_overhead_frac",
            overhead(untraced, traced_phase),
        ),
        ("bench.unattributed_frac", traced.unattributed_frac()),
    ];
    traced.save(&cfg.out_dir, "fail2ban");
    Outcome {
        checks,
        metrics,
        fingerprint: fp,
    }
}
