//! Criterion benches: one per experiment (E1–E10, F2).
//!
//! Each bench (a) regenerates its experiment table once — printed to
//! stderr so `cargo bench` output contains the same rows EXPERIMENTS.md
//! records — and (b) measures the hot code path that experiment exercises,
//! so regressions in the artifact (verifier, compiler, structures, models)
//! show up as wall-clock changes.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use hyperion::control::ControlPlane;
use hyperion::dpu::DpuBuilder;
use hyperion_baseline::pairwise::{run_pattern, Pattern};
use hyperion_bench::experiments;
use hyperion_ebpf::{assemble, verify, Vm};
use hyperion_mem::seglevel::{AllocHint, SegmentId};
use hyperion_mem::vmpage::PageWalker;
use hyperion_sim::time::Ns;
use hyperion_storage::corfu::CorfuLog;

fn print_tables(id: &str, tables: Vec<hyperion_bench::Table>) {
    for t in tables {
        eprintln!("[{id}]\n{t}");
    }
}

fn bench_e1(c: &mut Criterion) {
    print_tables("e1", experiments::e1::run());
    let mut dpu = DpuBuilder::new().auth_key(1).build();
    let t0 = dpu.boot(Ns::ZERO).expect("boot");
    dpu.segments
        .create(SegmentId(1), 4096, AllocHint::Durable, t0)
        .expect("create");
    let mut t = t0;
    c.bench_function("e1/dpu_segment_read_4k", |b| {
        b.iter(|| {
            let (data, done) = dpu.segments.read(SegmentId(1), 0, 4096, t).expect("read");
            t = done;
            black_box(data);
        })
    });
}

fn bench_e2(c: &mut Criterion) {
    print_tables("e2", experiments::e2::run());
    c.bench_function("e2/hyperion_pattern_4k", |b| {
        b.iter(|| black_box(run_pattern(Pattern::Hyperion, 4096, Ns::ZERO)))
    });
    c.bench_function("e2/bounce_pattern_4k", |b| {
        b.iter(|| black_box(run_pattern(Pattern::GpuWithNetwork, 4096, Ns::ZERO)))
    });
}

fn bench_e3(c: &mut Criterion) {
    print_tables("e3", experiments::e3::run());
    let mut walker = PageWalker::new();
    let mut addr = 0u64;
    c.bench_function("e3/page_walk_translate", |b| {
        b.iter(|| {
            addr = addr.wrapping_add(0x5000);
            black_box(walker.translate(addr))
        })
    });
}

fn bench_e4(c: &mut Criterion) {
    print_tables("e4", experiments::e4::run());
    let (name, source, ctx) = experiments::e4::programs().remove(0);
    let program = assemble(name, &source, ctx).expect("asm");
    let verified = verify(&program).expect("verify");
    let mut vm = Vm::new();
    let mut packet = vec![0u8; ctx as usize];
    c.bench_function("e4/vm_interpret_filter", |b| {
        b.iter(|| black_box(vm.run(&program, &mut packet).expect("run")))
    });
    c.bench_function("e4/compile_to_pipeline", |b| {
        b.iter(|| {
            black_box(
                hyperion_hdl::compile(&verified, hyperion_fabric::ClockDomain::new(250))
                    .expect("compile"),
            )
        })
    });
}

fn bench_e5(c: &mut Criterion) {
    print_tables("e5", experiments::e5::run());
    let batch = hyperion_storage::columnar::ColumnBatch::new(
        vec!["id".into(), "v".into()],
        vec![(0..10_000u64).collect(), (0..10_000u64).collect()],
    )
    .expect("batch");
    let (mut store, ds, t0) =
        hyperion_apps::analytics::build_dataset(&batch, 1_000, "/t/f.col", Ns::ZERO);
    let pred = hyperion_storage::columnar::Predicate::between("id", 0, 99);
    c.bench_function("e5/dpu_selective_scan", |b| {
        b.iter(|| {
            black_box(hyperion_apps::analytics::dpu_scan(
                &mut store,
                &ds,
                &["v"],
                Some(&pred),
                t0,
            ))
        })
    });
}

fn bench_e6(c: &mut Criterion) {
    print_tables("e6", experiments::e6::run());
    let mut dpu = DpuBuilder::new().auth_key(1).build();
    let t0 = dpu.boot(Ns::ZERO).expect("boot");
    let t0 = hyperion_apps::pointer_chase::populate_tree(&mut dpu, 5_000, t0);
    let mut net = hyperion_net::Network::new();
    let client = hyperion_net::Endpoint::new(net.add_node(), hyperion_net::EndpointKind::Kernel);
    let server = hyperion_net::Endpoint::new(net.add_node(), hyperion_net::EndpointKind::Hardware);
    let mut ch = hyperion_net::RpcChannel::new(
        client,
        server,
        hyperion_net::Transport::new(hyperion_net::TransportKind::Udp),
    );
    let mut t = t0;
    let mut key = 0u64;
    c.bench_function("e6/offloaded_lookup", |b| {
        b.iter(|| {
            key = (key + 97) % 5_000;
            let r =
                hyperion_apps::pointer_chase::offloaded_lookup(&mut dpu, &mut ch, &mut net, key, t);
            t = r.done;
            black_box(r)
        })
    });
}

fn bench_e7(c: &mut Criterion) {
    print_tables("e7", experiments::e7::run());
    let mut lb = hyperion_apps::LoadBalancer::new(16, 10_000, 1 << 16);
    let mut t = Ns::ZERO;
    let mut flow = 0u64;
    c.bench_function("e7/lb_steer_hot", |b| {
        b.iter(|| {
            flow = (flow + 1) % 1_000;
            let (backend, done) = lb.steer(flow, t);
            t = done;
            black_box(backend)
        })
    });
    // The state size E7b and the lb_spill benchmark run at: a full
    // 50k-flow DRAM table under Zipf-0.9 traffic, every steer a DRAM hit
    // that re-orders the LRU.
    let mut lb = hyperion_apps::LoadBalancer::new(16, 50_000, 1 << 20);
    let mut t = Ns::ZERO;
    for f in 0..50_000 {
        t = lb.steer(f, t).1;
    }
    let mut gen = hyperion_apps::TrafficGen::new(7, 50_000, 0.0, 16);
    c.bench_function("e7/lb_steer_full", |b| {
        b.iter(|| {
            let (flow, _) = gen.next_packet();
            let (backend, done) = lb.steer(flow, t);
            t = done;
            black_box(backend)
        })
    });
}

fn bench_e8(c: &mut Criterion) {
    print_tables("e8", experiments::e8::run());
    c.bench_function("e8/tenancy_run_small", |b| {
        b.iter(|| {
            // Fresh DPU per run: slots are consumed by each deployment.
            let mut dpu = DpuBuilder::new().auth_key(0xC0FFEE).build();
            let t0 = dpu.boot(Ns::ZERO).expect("boot");
            let mut cp = ControlPlane::new(0xC0FFEE);
            black_box(
                hyperion::tenancy::run_with_co_tenants(&mut dpu, &mut cp, 50, Ns(1_000), 0, t0)
                    .expect("run")
                    .reconfigurations,
            )
        })
    });
}

fn bench_e9(c: &mut Criterion) {
    print_tables("e9", experiments::e9::run());
    let mut log = CorfuLog::new(4, 1 << 20);
    let mut t = Ns::ZERO;
    c.bench_function("e9/corfu_append_512b", |b| {
        b.iter(|| {
            let (pos, done) = log.append(&[7u8; 512], t).expect("append");
            t = done;
            black_box(pos)
        })
    });
}

fn bench_e10(c: &mut Criterion) {
    print_tables("e10", experiments::e10::run());
    let program = experiments::e10::synthetic_program(256);
    c.bench_function("e10/verify_256_insns", |b| {
        b.iter(|| black_box(verify(&program).expect("verify")))
    });
}

fn bench_e11(c: &mut Criterion) {
    print_tables("e11", experiments::e11::run());
    let program = assemble(
        "wide",
        "mov r3, 1\nmov r4, 2\nadd r3, r4\nmov r0, r3\nexit",
        0,
    )
    .expect("asm");
    let verified = verify(&program).expect("verify");
    c.bench_function("e11/schedule_with_lanes", |b| {
        b.iter(|| black_box(hyperion_hdl::schedule_with_lanes(&verified, 4)))
    });
}

fn bench_e12(c: &mut Criterion) {
    print_tables("e12", experiments::e12::run());
    let (mut cluster, t0) = hyperion::cluster::DpuCluster::boot(4, 0xC0FFEE, Ns::ZERO);
    let mut t = t0;
    let mut k = 0u64;
    c.bench_function("e12/partitioned_put", |b| {
        b.iter(|| {
            k += 1;
            let (_, _, done) = cluster
                .serve_partitioned(
                    k,
                    hyperion::services::ServiceRequest::KvPut { key: k, value: k },
                    t,
                )
                .expect("put");
            t = done;
            black_box(k)
        })
    });
}

fn bench_f2(c: &mut Criterion) {
    print_tables("f2", experiments::figure2::run());
    c.bench_function("f2/full_boot", |b| {
        b.iter(|| {
            let mut dpu = DpuBuilder::new().auth_key(1).build();
            black_box(dpu.boot(Ns::ZERO).expect("boot"))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_e1, bench_e2, bench_e3, bench_e4, bench_e5, bench_e6,
              bench_e7, bench_e8, bench_e9, bench_e10, bench_e11, bench_e12,
              bench_f2
}
criterion_main!(benches);
