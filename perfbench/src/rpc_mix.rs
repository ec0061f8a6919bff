//! `rpc_mix`: eight closed-loop clients on one UDP network against one
//! booted DPU, through the typed service API, the RPC layer and the
//! single-level segment store.
//!
//! The untraced run is the operator's mode: the program's flight
//! recorder is on, and every op goes through the public `*_traced` entry
//! points. The traced run replays the same ops through the untraced
//! entry points (`dispatch`, `call`, `client_driven_lookup`) and requires
//! identical virtual latencies and responses; the difference in host
//! time is the recorder's overhead.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use bytes::Bytes;
use hyperion::dpu::{DpuBuilder, HyperionDpu};
use hyperion::services::{KvOp, LogOp, ServiceOp, ServiceResponse, TreeOp};
use hyperion_apps::pointer_chase::{
    client_driven_lookup, client_driven_lookup_traced, offloaded_lookup_traced, populate_tree,
};
use hyperion_mem::seglevel::{AllocHint, SegmentId};
use hyperion_net::rpc::{MethodId, RpcChannel};
use hyperion_net::transport::{Endpoint, EndpointKind, Transport, TransportKind};
use hyperion_net::Network;
use hyperion_sim::rng::{Rng, SplitMix64};
use hyperion_sim::time::Ns;
use hyperion_storage::BLOCK;
use hyperion_telemetry::critical_path;
use hyperion_telemetry::{Component, Recorder, SpanId};

use crate::report::{self, Checks, Fingerprint, Laps, Outcome, Phase};
use crate::span::{overhead, timed, Off, Probe, Tracer};
use crate::Config;

/// Bitstream key of the DPU under test.
const AUTH_KEY: u64 = 0x5EED;
/// Closed-loop clients.
const CLIENTS: usize = 8;
/// Keys in the B+ tree (`key -> key * 7`).
const TREE_KEYS: u64 = 50_000;
/// KV key space (small enough that gets mostly find an earlier put).
const KV_KEYS: u64 = 4_096;
/// Log append payload.
const LOG_ENTRY: usize = 512;
/// NVMe-resident segments and their size.
const SEGMENTS: u64 = 64;
const SEGMENT_BYTES: u64 = 64 * 1024;
/// Bytes per segment read.
const READ_BYTES: u64 = 4096;
/// Independent instances per run, each with its own DPU, network and
/// request stream: the modeled tail is bursty, so one run pools several.
const INSTANCES: usize = 32;
/// Requests in each instance's timed phase.
const OPS: usize = 25_000;
/// Timed passes each with and without the recorder for
/// `telemetry.overhead_frac`.
const OVERHEAD_PASSES: usize = 6;
/// Ops per recorder when the traced run computes critical-path shares
/// (keeps each analysis small).
const CP_CHUNK: usize = 512;

/// One request.
#[derive(Debug, Clone)]
enum Req {
    /// Client walks the tree, one node-read RPC per level.
    ClientLookup(u64),
    /// One RPC; the DPU walks the tree.
    Lookup(u64),
    Put(u64, u64),
    Get(u64),
    Append(Bytes),
    /// 4 KiB from (segment, offset).
    SegRead(u64, u64),
}

impl Req {
    fn kind(&self) -> u64 {
        match self {
            Req::ClientLookup(_) => 0,
            Req::Lookup(_) => 1,
            Req::Put(..) => 2,
            Req::Get(_) => 3,
            Req::Append(_) => 4,
            Req::SegRead(..) => 5,
        }
    }
}

/// Draws the request stream: an even mix of the six kinds.
fn requests(seed: u64) -> Vec<Req> {
    let mut rng = Rng::seeded(seed);
    (0..OPS)
        .map(|_| match rng.next_below(6) {
            0 => Req::ClientLookup(rng.next_below(TREE_KEYS)),
            1 => Req::Lookup(rng.next_below(TREE_KEYS)),
            // u64::MAX is the LSM's tombstone; keep values below it.
            2 => Req::Put(rng.next_below(KV_KEYS), rng.next_u64() >> 1),
            3 => Req::Get(rng.next_below(KV_KEYS)),
            4 => {
                let mut b = vec![0u8; LOG_ENTRY];
                rng.fill_bytes(&mut b);
                Req::Append(Bytes::from(b))
            }
            _ => Req::SegRead(
                rng.next_below(SEGMENTS),
                rng.next_below(SEGMENT_BYTES / READ_BYTES) * READ_BYTES,
            ),
        })
        .collect()
}

/// Seed of instance `k` of a run with seed `seed`.
fn instance_seed(seed: u64, k: usize) -> u64 {
    let mut sm = SplitMix64::new(seed);
    (0..k).for_each(|_| {
        sm.next_u64();
    });
    sm.next_u64()
}

/// Contents written to segment `seg` in set-up.
fn segment_image(seg: u64) -> Vec<u8> {
    let mut rng = Rng::seeded(0x5E6_0000 ^ seg);
    let mut b = vec![0u8; SEGMENT_BYTES as usize];
    rng.fill_bytes(&mut b);
    b
}

struct System {
    dpu: HyperionDpu,
    net: Network,
    channels: Vec<RpcChannel>,
    /// Per-client virtual clock.
    clocks: Vec<Ns>,
    /// Segment contents, for checking reads.
    images: Vec<Vec<u8>>,
    reqs: Vec<Req>,
    start: Ns,
}

/// Boots the DPU, populates the tree (warm), writes the segments, wires
/// the clients, and draws the request stream.
fn setup<P: Probe>(seed: u64, p: &mut P) -> System {
    let mut dpu = DpuBuilder::new().auth_key(AUTH_KEY).build();
    let t = timed(p, "dpu", "boot", || dpu.boot(Ns::ZERO)).expect("fresh DPU boots");
    let mut t = timed(p, "tree", "populate", || {
        populate_tree(&mut dpu, TREE_KEYS, t)
    });
    let images: Vec<Vec<u8>> = (0..SEGMENTS).map(segment_image).collect();
    timed(p, "seg", "create_write", || {
        for (i, image) in images.iter().enumerate() {
            let id = SegmentId(i as u128);
            t = dpu
                .segments
                .create(id, SEGMENT_BYTES, AllocHint::Capacity, t)
                .expect("segment fits");
            t = dpu.segments.write(id, 0, image, t).expect("segment write");
        }
    });
    let mut net = Network::new();
    let server = Endpoint::new(net.add_node(), EndpointKind::Hardware);
    let channels = (0..CLIENTS)
        .map(|_| {
            let client = Endpoint::new(net.add_node(), EndpointKind::Kernel);
            RpcChannel::new(client, server, Transport::new(TransportKind::Udp))
        })
        .collect();
    System {
        dpu,
        net,
        channels,
        clocks: vec![t; CLIENTS],
        images,
        reqs: requests(seed),
        start: t,
    }
}

/// How a pass reaches the program.
enum Mode<'a> {
    /// Flight recorder on, `*_traced` entry points.
    Recorded(&'a mut Recorder),
    /// Untraced entry points.
    Plain,
}

/// What a pass produced: every op's virtual latency and a digest of
/// every response.
#[derive(Debug, PartialEq)]
struct PassResult {
    lat: Vec<u64>,
    digest: u64,
    end: Ns,
    per_kind: [u64; 6],
    log_tail: u64,
}

/// FNV-1a step.
fn mix(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

/// The answer an op returned, reduced to a number for the digest.
fn value_of(v: Option<u64>) -> u64 {
    v.unwrap_or(u64::MAX)
}

/// The answer of an op whose call returned an error (no value the
/// workload puts can take it: values stay below `u64::MAX >> 1`).
const ERR: u64 = u64::MAX - 1;

/// Mutable per-pass reference state for the checks.
struct Reference {
    kv: HashMap<u64, u64>,
    last_position: Option<u64>,
}

/// Runs every request, always from the client with the earliest
/// virtual clock (ties to the lowest index).
fn pass<P: Probe>(
    sys: &mut System,
    mut mode: Mode<'_>,
    p: &mut P,
    laps: &mut Laps,
    checks: &mut Checks,
) -> PassResult {
    let mut reference = Reference {
        kv: HashMap::new(),
        last_position: None,
    };
    let mut lat = Vec::with_capacity(OPS);
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut per_kind = [0u64; 6];
    let reqs = std::mem::take(&mut sys.reqs);
    for (i, req) in reqs.iter().enumerate() {
        let c = (0..CLIENTS)
            .min_by_key(|&c| (sys.clocks[c], c))
            .expect("clients exist");
        let now = sys.clocks[c];
        p.set_op(i as u32);
        let op_span = p.open("bench", "op");
        let (done, answer) = match &mut mode {
            Mode::Recorded(rec) => recorded_op(sys, c, req, now, rec),
            Mode::Plain => plain_op(sys, c, req, now, p),
        };
        check(req, answer, &mut reference, checks);
        p.close(op_span);
        sys.clocks[c] = done;
        lat.push((done - now).0);
        per_kind[req.kind() as usize] += 1;
        digest = mix(mix(mix(digest, req.kind()), (done - now).0), answer);
        laps.op();
    }
    sys.reqs = reqs;
    PassResult {
        lat,
        digest,
        end: sys.clocks.iter().copied().max().expect("clients exist"),
        per_kind,
        log_tail: sys.dpu.log.tail(),
    }
}

/// Checks one answer against the reference semantics.
fn check(req: &Req, answer: u64, r: &mut Reference, checks: &mut Checks) {
    if answer == ERR {
        checks.check(false, || format!("{req:?} returned an error"));
        return;
    }
    match req {
        Req::ClientLookup(k) | Req::Lookup(k) => checks.check(answer == k * 7, || {
            format!("tree lookup {k} returned {answer}, expected {}", k * 7)
        }),
        Req::Put(k, v) => {
            checks.check(answer == 0, || format!("kv put {k} failed"));
            r.kv.insert(*k, *v);
        }
        Req::Get(k) => {
            let want = value_of(r.kv.get(k).copied());
            checks.check(answer == want, || {
                format!("kv get {k} returned {answer}, last put {want}")
            })
        }
        Req::Append(_) => {
            let ok = r.last_position.is_none_or(|last| answer > last);
            checks.check(ok, || {
                format!("log position {answer} after {:?}", r.last_position)
            });
            r.last_position = Some(answer);
        }
        Req::SegRead(seg, off) => checks.check(answer == SEG_MATCH, || {
            format!("segment {seg} offset {off} returned wrong bytes")
        }),
    }
}

/// Answer of a segment read whose bytes are the ones set-up wrote.
const SEG_MATCH: u64 = 1;

/// A segment read's answer: [`SEG_MATCH`] if `data` equals what set-up
/// wrote at (`seg`, `off`), else 0. A plain slice compare, so the check
/// costs little next to the read it checks.
fn seg_answer(sys: &System, seg: u64, off: u64, data: &[u8]) -> u64 {
    let want = &sys.images[seg as usize][off as usize..(off + READ_BYTES) as usize];
    u64::from(data == want)
}

/// A service op's answer as a number: value, position, or an error mark.
fn answer_of(resp: &ServiceResponse) -> u64 {
    match resp {
        ServiceResponse::Ok => 0,
        ServiceResponse::Value(v) => value_of(*v),
        ServiceResponse::Appended { position } => *position,
        _ => ERR,
    }
}

/// Request/response payload bytes per request kind.
fn payloads(req: &Req) -> (u64, u64) {
    match req {
        Req::ClientLookup(_) | Req::Lookup(_) => (16, 16),
        Req::Put(..) => (16, 8),
        Req::Get(_) => (8, 16),
        Req::Append(d) => (d.len() as u64, 8),
        Req::SegRead(..) => (16, READ_BYTES),
    }
}

fn service_op(req: &Req) -> ServiceOp {
    match req {
        Req::Lookup(key) => TreeOp::Lookup { key: *key }.into(),
        Req::Put(key, value) => KvOp::Put {
            key: *key,
            value: *value,
        }
        .into(),
        Req::Get(key) => KvOp::Get { key: *key }.into(),
        Req::Append(data) => LogOp::Append { data: data.clone() }.into(),
        Req::ClientLookup(_) | Req::SegRead(..) => unreachable!("not a single service op"),
    }
}

/// Operator mode: one op through the `*_traced` entry points, under a
/// root span so the critical-path analyzer sees one request.
fn recorded_op(sys: &mut System, c: usize, req: &Req, now: Ns, rec: &mut Recorder) -> (Ns, u64) {
    let ch = &mut sys.channels[c];
    match req {
        Req::ClientLookup(key) => {
            let r = client_driven_lookup_traced(&mut sys.dpu, ch, &mut sys.net, *key, now, rec);
            (r.done, value_of(r.value))
        }
        Req::Lookup(key) => {
            let r = offloaded_lookup_traced(&mut sys.dpu, ch, &mut sys.net, *key, now, rec);
            (r.done, value_of(r.value))
        }
        Req::SegRead(seg, off) => {
            let root = rec.open(Component::Service, "rpc:seg.read", now);
            let Ok((data, served)) =
                sys.dpu
                    .segments
                    .read(SegmentId(*seg as u128), *off, READ_BYTES, now)
            else {
                rec.close(root, now);
                return (now, ERR);
            };
            let (up, down) = payloads(req);
            let Ok(d) = ch.call_traced(&mut sys.net, MethodId(6), now, up, down, served - now, rec)
            else {
                rec.close(root, now);
                return (now, ERR);
            };
            nvme_hop(rec, root);
            rec.close(root, d.done);
            rec.record_op("rpc:seg.read", d.done - now);
            (d.done, seg_answer(sys, *seg, *off, &data))
        }
        _ => {
            let (label, _) = labels(req);
            let root = rec.open(Component::Service, label, now);
            let Ok((resp, served)) = sys.dpu.dispatch_traced(now, service_op(req), rec) else {
                rec.close(root, now);
                return (now, ERR);
            };
            let (up, down) = payloads(req);
            let Ok(d) = ch.call_traced(&mut sys.net, MethodId(3), now, up, down, served - now, rec)
            else {
                rec.close(root, now);
                return (now, ERR);
            };
            rec.close(root, d.done);
            rec.record_op(label, d.done - now);
            (d.done, answer_of(&resp))
        }
    }
}

/// Charges a segment read's server time to NVMe, as E1 records its
/// `segments.read`: `call_traced` records the server residency as a
/// `server:work` service hop, so the flash read goes over exactly that
/// interval, one level deeper, and the critical-path analyzer (deepest
/// span wins, ties to the later one) counts it once, as NVMe. Skipped
/// once the recorder's span table is full.
fn nvme_hop(rec: &mut Recorder, root: SpanId) {
    let Some(work) = rec
        .spans()
        .get(root.as_index()..)
        .and_then(|own| own.iter().rev().find(|s| s.name == "server:work"))
    else {
        return;
    };
    let (start, end) = (work.start, work.end.expect("hop is closed"));
    let serve = rec.open(Component::Service, "rpc:seg.serve", start);
    rec.record_hop(Component::Nvme, "segment:read", start, end);
    rec.close(serve, end);
}

/// A single service op's root-span label on the program's recorder and
/// its call name in the benchmark's spans.
fn labels(req: &Req) -> (&'static str, &'static str) {
    match req {
        Req::Lookup(_) => ("rpc:tree.lookup", "tree_lookup"),
        Req::Put(..) => ("rpc:kv.put", "kv_put"),
        Req::Get(_) => ("rpc:kv.get", "kv_get"),
        Req::Append(_) => ("rpc:log.append", "log_append"),
        Req::ClientLookup(_) | Req::SegRead(..) => unreachable!("not a single service op"),
    }
}

/// One op through the untraced entry points. With spans on, the
/// client-driven walk is made call by call (node read, then RPC, per
/// level) so each layer gets its own span; with spans off it is the
/// program's `client_driven_lookup`.
fn plain_op<P: Probe>(sys: &mut System, c: usize, req: &Req, now: Ns, p: &mut P) -> (Ns, u64) {
    let (up, down) = payloads(req);
    match req {
        Req::ClientLookup(key) if !P::ON => {
            let ch = &mut sys.channels[c];
            let r = client_driven_lookup(&mut sys.dpu, ch, &mut sys.net, *key, now);
            (r.done, value_of(r.value))
        }
        Req::ClientLookup(key) => walk(sys, c, *key, now, p),
        Req::SegRead(seg, off) => {
            let Ok((data, served)) = timed(p, "seg", "read", || {
                sys.dpu
                    .segments
                    .read(SegmentId(*seg as u128), *off, READ_BYTES, now)
            }) else {
                return (now, ERR);
            };
            let ch = &mut sys.channels[c];
            let Ok(d) = timed(p, "rpc", "call", || {
                ch.call(&mut sys.net, MethodId(6), now, up, down, served - now)
            }) else {
                return (now, ERR);
            };
            (d.done, seg_answer(sys, *seg, *off, &data))
        }
        _ => {
            let method = if matches!(req, Req::Lookup(_)) { 1 } else { 3 };
            let Ok((resp, served)) = timed(p, "svc", labels(req).1, || {
                sys.dpu.dispatch(now, service_op(req))
            }) else {
                return (now, ERR);
            };
            let ch = &mut sys.channels[c];
            let Ok(d) = timed(p, "rpc", "call", || {
                ch.call(&mut sys.net, MethodId(method), now, up, down, served - now)
            }) else {
                return (now, ERR);
            };
            (d.done, answer_of(&resp))
        }
    }
}

/// The client-driven lookup, layer call by layer call: the same calls
/// `client_driven_lookup` makes, in the same order.
fn walk<P: Probe>(sys: &mut System, c: usize, key: u64, now: Ns, p: &mut P) -> (Ns, u64) {
    let tree = sys.dpu.btree.as_ref().expect("tree exists");
    let mut lba = tree.root_lba();
    let height = tree.height();
    let mut t = now;
    let mut value = None;
    for _ in 0..height {
        let Ok((ServiceResponse::Node(data), served)) = timed(p, "svc", "node_read", || {
            sys.dpu.dispatch(t, TreeOp::NodeRead { lba })
        }) else {
            return (t, ERR);
        };
        let ch = &mut sys.channels[c];
        let Ok(d) = timed(p, "rpc", "call", || {
            ch.call(&mut sys.net, MethodId(2), t, 16, BLOCK, served - t)
        }) else {
            return (t, ERR);
        };
        t = d.done;
        // Node layout of storage::btree: tag, count, then keys and
        // values (leaf) or separators and children (internal).
        let word = |i: usize| {
            u64::from_le_bytes(data[16 + i * 8..24 + i * 8].try_into().expect("8 bytes"))
        };
        let tag = u32::from_le_bytes(data[0..4].try_into().expect("4 bytes"));
        let n = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes")) as usize;
        if tag == 1 {
            value = (0..n).find(|&i| word(i) == key).map(|i| word(n + i));
        } else {
            let idx = (0..n).find(|&i| word(i) > key).unwrap_or(n);
            lba = word(n + idx);
        }
    }
    (t, value_of(value))
}

fn phase(r: PassResult, sys: &System) -> Phase {
    let mut fp = Fingerprint::new();
    fp.insert("rpc.digest".into(), r.digest);
    fp.insert("rpc.end_ns".into(), r.end.0);
    fp.insert("log.tail".into(), r.log_tail);
    for (k, n) in r.per_kind.iter().enumerate() {
        fp.insert(format!("rpc.kind{k}"), *n);
    }
    fp.insert("tree.keys".into(), TREE_KEYS);
    fp.insert(
        "tree.height".into(),
        sys.dpu.btree.as_ref().map_or(0, |t| t.height() as u64),
    );
    Phase {
        span_ns: (r.end - sys.start).0,
        lat: r.lat,
        fp,
    }
}

/// `rpc_mix`, untraced (operator mode, flight recorder on): end-to-end
/// metrics.
pub fn run(cfg: &Config) -> Outcome {
    report::repeat(cfg.budget, INSTANCES, |k| {
        let t0 = Instant::now();
        let mut sys = setup(instance_seed(cfg.seed, k), &mut Off);
        let mut rec = Recorder::new("rpc_mix");
        let setup_time = t0.elapsed();
        let mut checks = Checks::default();
        let mut laps = Laps::start();
        let r = pass(
            &mut sys,
            Mode::Recorded(&mut rec),
            &mut Off,
            &mut laps,
            &mut checks,
        );
        let laps = laps.finish();
        let mut phase = phase(r, &sys);
        phase
            .fp
            .insert("telemetry.spans_retained".into(), rec.spans().len() as u64);
        phase.rep(setup_time, laps, checks)
    })
}

/// Critical-path shares over the whole request stream: the same
/// recorded ops, with a fresh recorder (utilization plane on) every
/// [`CP_CHUNK`] ops so each analysis stays small.
fn critical_path_shares(seed: u64, reference: &PassResult, checks: &mut Checks) -> [f64; 4] {
    let mut sys = setup(seed, &mut Off);
    let reqs = std::mem::take(&mut sys.reqs);
    let mut lat = Vec::with_capacity(OPS);
    // net, nvme, service (served time) and queue (waiting) ns.
    let mut ns = [0u64; 4];
    let mut total = 0u64;
    for chunk in reqs.chunks(CP_CHUNK) {
        let mut rec = Recorder::new("rpc_mix-cp");
        // The utilization plane turns busy-wire waits into queue edges;
        // timing is identical with it on.
        rec.enable_util();
        for req in chunk {
            let c = (0..CLIENTS)
                .min_by_key(|&c| (sys.clocks[c], c))
                .expect("clients exist");
            let now = sys.clocks[c];
            let (done, _) = recorded_op(&mut sys, c, req, now, &mut rec);
            sys.clocks[c] = done;
            lat.push((done - now).0);
        }
        for path in critical_path::analyze(&rec) {
            total += path.duration().0;
            for h in path.hops {
                ns[3] += h.queue_ns.0;
                let served = h.ns.0 - h.queue_ns.0;
                match h.component {
                    Component::Net => ns[0] += served,
                    Component::Nvme => ns[1] += served,
                    Component::Service => ns[2] += served,
                    _ => {}
                }
            }
        }
    }
    if lat != reference.lat {
        checks.fail_run("critical-path pass reached different virtual latencies".into());
    }
    ns.map(|x| x as f64 / total.max(1) as f64)
}

/// Host time, lap by lap, of one pass from a fresh set-up, with the
/// flight recorder on (operator mode) or through the untraced entry
/// points.
fn pass_laps(seed: u64, recorder: bool) -> Vec<Duration> {
    let mut sys = setup(seed, &mut Off);
    let mut rec = Recorder::new("rpc_mix");
    let mode = if recorder {
        Mode::Recorded(&mut rec)
    } else {
        Mode::Plain
    };
    let mut laps = Laps::start();
    pass(&mut sys, mode, &mut Off, &mut laps, &mut Checks::default());
    laps.finish()
}

/// `rpc_mix`, traced: per-layer metrics, the recorder's overhead, and the
/// traced-twin agreement check, all on the run's first instance.
pub fn run_traced(cfg: &Config) -> Outcome {
    let mut checks = Checks::default();
    let seed = instance_seed(cfg.seed, 0);

    // B0: the untraced twins (`dispatch`, `call`, `client_driven_lookup`),
    // no spans of any kind; also warms the heap for the timed passes.
    let plain = pass(
        &mut setup(seed, &mut Off),
        Mode::Plain,
        &mut Off,
        &mut Laps::start(),
        &mut checks,
    );

    // A: operator mode, as the untraced run measures it.
    let mut recorded_sys = setup(seed, &mut Off);
    let mut rec = Recorder::new("rpc_mix");
    let recorded = pass(
        &mut recorded_sys,
        Mode::Recorded(&mut rec),
        &mut Off,
        &mut Laps::start(),
        &mut checks,
    );
    let spans_retained = rec.spans().len() as u64;
    drop(rec);
    if plain != recorded {
        checks.fail_run(format!(
            "untraced twins disagree with the *_traced entry points: latencies equal {}, digests {:#x} vs {:#x}",
            plain.lat == recorded.lat,
            plain.digest,
            recorded.digest
        ));
    }

    // B: the untraced twins again, alternated with A. The recorder costs
    // less than one pass varies on a shared host, so each keeps every
    // lap's fastest time.
    let (mut recorder_laps, mut untraced_laps) = (Vec::new(), Vec::new());
    let mut untraced = Duration::ZERO;
    for i in 0..OVERHEAD_PASSES {
        report::keep_fastest(&mut recorder_laps, pass_laps(seed, true));
        let laps = pass_laps(seed, false);
        if i == 0 {
            // One pass, to set against the one traced pass below.
            untraced = laps.iter().sum();
        }
        report::keep_fastest(&mut untraced_laps, laps);
    }

    // C: the benchmark's spans around each layer call.
    let mut tr = Tracer::new();
    let mut sys = setup(seed, &mut tr);
    let t = Instant::now();
    let layered = pass(
        &mut sys,
        Mode::Plain,
        &mut tr,
        &mut Laps::start(),
        &mut checks,
    );
    let traced_phase = t.elapsed();
    let traced = tr.finish();
    if layered != recorded {
        checks.fail_run("layer-by-layer replay diverged from the recorded pass".into());
    }
    drop(sys);

    let cp = critical_path_shares(seed, &recorded, &mut checks);
    let mut fp = phase(recorded, &recorded_sys).fingerprint(&mut checks);
    fp.insert("telemetry.spans_retained".into(), spans_retained);
    let metrics = vec![
        ("svc.tree_lookup_ns", traced.mean_ns("svc", "tree_lookup")),
        ("svc.node_read_ns", traced.mean_ns("svc", "node_read")),
        ("svc.kv_put_ns", traced.mean_ns("svc", "kv_put")),
        ("svc.kv_get_ns", traced.mean_ns("svc", "kv_get")),
        ("svc.log_append_ns", traced.mean_ns("svc", "log_append")),
        ("seg.read_ns", traced.mean_ns("seg", "read")),
        ("rpc.call_ns", traced.mean_ns("rpc", "call")),
        (
            "telemetry.overhead_frac",
            overhead(untraced_laps.iter().sum(), recorder_laps.iter().sum()),
        ),
        ("telemetry.spans_retained", spans_retained as f64),
        ("virt.cp_net_share", cp[0]),
        ("virt.cp_nvme_share", cp[1]),
        ("virt.cp_service_share", cp[2]),
        ("virt.cp_queue_share", cp[3]),
        ("dpu.boot_ns", traced.total_ns("dpu", "boot") as f64),
        (
            "tree.populate_ns",
            traced.total_ns("tree", "populate") as f64,
        ),
        (
            "bench.trace_overhead_frac",
            overhead(untraced, traced_phase),
        ),
        ("bench.unattributed_frac", traced.unattributed_frac()),
    ];
    traced.save(&cfg.out_dir, "rpc_mix");
    Outcome {
        checks,
        metrics,
        fingerprint: fp,
    }
}
