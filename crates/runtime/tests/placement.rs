//! Block-placement tests: block homes follow the layout's slab map, with
//! owner-compute chunk affinity, multicast for broadcast-shaped reads and
//! envelope batching. All of that must be invisible in the results —
//! collected blocks and scalars bitwise-identical to a 1-worker run of the
//! same program — while the multicast/batching counters show it carried
//! the broadcast traffic, and the fault machinery (retry, dedup, crash
//! recovery) must hold with multicast and batching active.
//!
//! Values in these programs are small integers scaled by powers of two, so
//! every sum is exact in f64 regardless of the order placement-induced
//! scheduling produces — any bitwise deviation is a real protocol bug.

use proptest::prelude::*;
use sia_bytecode::ConstBindings;
use sia_runtime::{CrashSchedule, FaultConfig, FaultPlan, RunOutput, Sip, SipConfig};

/// `F` is read as `F(N)` inside `pardo M, N`: a strict subset of the pardo
/// indices, so every worker needs every F block — the multicast shape.
/// Owner-compute hands each worker the rows `M` of its `R(M,N)` slab, and
/// `F`'s slabs split `N` the same way, so a worker holds only its own
/// share of `F` and must receive every other block: point to point that
/// is exactly (W−1) × the n blocks of `F`.
const BCAST: &str = "sial bcast
aoindex M = 1, n
aoindex N = 1, n
distributed F(M)
distributed R(M,N)
temp f(M)
temp g(M)
temp q(M,N)
pardo M
f(M) = M + 0.5
put F(M) = f(M)
endpardo
sip_barrier
pardo M, N
get F(N)
g(M) = 2.0
q(M,N) = g(M) * F(N)
put R(M,N) = q(M,N)
endpardo
sip_barrier
endsial
";

/// The broadcast shape plus a third phase that transposes `R` into `S`.
/// Under owner-compute the puts are local and pushed broadcast blocks ride
/// a few batched envelopes, so on its own the shape gives a seeded fault
/// plan little to hit; `get R(N,M)` is homed in another slab than
/// `S(M,N)` off the diagonal and keeps gets on the fabric.
const FAULTED: &str = "sial faulted
aoindex M = 1, n
aoindex N = 1, n
distributed F(M)
distributed R(M,N)
distributed S(M,N)
temp f(M)
temp g(M)
temp q(M,N)
pardo M
f(M) = M + 0.5
put F(M) = f(M)
endpardo
sip_barrier
pardo M, N
get F(N)
g(M) = 2.0
q(M,N) = g(M) * F(N)
put R(M,N) = q(M,N)
endpardo
sip_barrier
pardo M, N
get R(N,M)
q(M,N) = R(N,M)
put S(M,N) = q(M,N)
endpardo
sip_barrier
endsial
";

/// Contraction shape with a do-loop get (not broadcast-shaped) plus a
/// pardo-aligned put (the owner-compute affinity path) and a scalar
/// reduction.
const CONTRACT: &str = "sial ctr
aoindex M = 1, n
aoindex N = 1, n
aoindex L = 1, n
distributed T(L,N)
distributed R(M,N)
temp t(L,N)
temp v(M,L)
temp p(M,N)
temp acc(M,N)
scalar rnorm
pardo L, N
t(L,N) = L + 10.0 * N
put T(L,N) = t(L,N)
endpardo L, N
sip_barrier
pardo M, N
acc(M,N) = 0.0
do L
get T(L,N)
v(M,L) = 2.0
p(M,N) = v(M,L) * T(L,N)
acc(M,N) += p(M,N)
enddo L
put R(M,N) = acc(M,N)
endpardo M, N
sip_barrier
pardo M, N
get R(M,N)
rnorm += R(M,N) * R(M,N)
endpardo M, N
sip_barrier
execute sip_allreduce rnorm
endsial
";

fn config(workers: usize, seg: usize) -> SipConfig {
    SipConfig::builder()
        .workers(workers)
        .io_servers(0)
        .segment_size(seg)
        .collect_distributed(true)
        .build()
        .unwrap()
}

fn bindings(n: i64) -> ConstBindings {
    [("n".to_string(), n)].into_iter().collect()
}

fn run(src: &str, n: i64, config: SipConfig) -> RunOutput {
    let program = sial_frontend::compile(src).unwrap();
    Sip::new(config).run(program, &bindings(n)).unwrap()
}
fn assert_bitwise_equal(a: &RunOutput, b: &RunOutput) {
    assert_eq!(
        a.collected.keys().collect::<Vec<_>>(),
        b.collected.keys().collect::<Vec<_>>()
    );
    for (name, blocks) in &a.collected {
        let other = &b.collected[name];
        assert_eq!(blocks.len(), other.len(), "{name}: block count");
        for (key, block) in blocks {
            let ob = &other[key];
            let bits: Vec<u64> = block.data().iter().map(|x| x.to_bits()).collect();
            let obits: Vec<u64> = ob.data().iter().map(|x| x.to_bits()).collect();
            assert_eq!(bits, obits, "{name}{key:?}: bitwise mismatch");
        }
    }
    assert_eq!(
        a.scalars.keys().collect::<Vec<_>>(),
        b.scalars.keys().collect::<Vec<_>>()
    );
    for (name, v) in &a.scalars {
        assert_eq!(
            v.to_bits(),
            b.scalars[name].to_bits(),
            "scalar {name}: {} vs {}",
            v,
            b.scalars[name]
        );
    }
}

#[test]
fn broadcast_shape_matches_one_worker_bitwise() {
    let one = run(BCAST, 8, config(1, 4));
    for workers in 2..=4 {
        let many = run(BCAST, 8, config(workers, 4));
        assert_bitwise_equal(&one, &many);
        assert!(
            many.profile.metrics.plan.multicast_blocks > 0,
            "{workers} workers: the broadcast shape must actually exercise multicast: {:?}",
            many.profile.metrics.plan
        );
    }
}

#[test]
fn contraction_matches_one_worker_bitwise() {
    let one = run(CONTRACT, 6, config(1, 3));
    // All values are exact integers in f64, so the reduction is
    // order-independent: n=6 seg=3 gives ‖R‖² = 744874704 exactly.
    assert_eq!(one.scalars["rnorm"], 744_874_704.0);
    for workers in 2..=4 {
        assert_bitwise_equal(&one, &run(CONTRACT, 6, config(workers, 3)));
    }
}

/// Multicast and envelope batching carry the broadcast operand: blocks
/// ride the trees, staged forwards coalesce, and demand fetches stay below
/// the (W−1) × broadcast-blocks that this shape needs point to point
/// (every worker fetching each block it does not home, once). Without the
/// push every one of those fetches is made, so the bound fails.
#[test]
fn multicast_and_batching_replace_point_to_point_gets() {
    let workers = 4;
    let cfg = config(workers, 4);
    let (_, plan) = Sip::new(cfg.clone())
        .plan(sial_frontend::compile(BCAST).unwrap(), &bindings(12))
        .unwrap();
    let bcast_blocks = plan.summary.broadcast_blocks;
    assert_eq!(bcast_blocks, 12, "F(N) is the one broadcast operand");
    let out = run(BCAST, 12, cfg);
    let m = &out.profile.metrics;
    assert!(
        m.plan.multicast_blocks > 0,
        "broadcast blocks must ride multicast trees: {:?}",
        m.plan
    );
    assert!(
        m.plan.coalesced_messages > 0,
        "envelope batching must coalesce staged forwards: {:?}",
        m.plan
    );
    let point_to_point = (workers as u64 - 1) * bcast_blocks;
    assert!(
        m.comm.fetches < point_to_point,
        "{} fetches, not below the point-to-point {point_to_point}",
        m.comm.fetches
    );
}

/// Seeded drops/dups/delays with multicast and batching active: dropped
/// multicast pushes fall back to demand GETs, batched envelopes retry as
/// units, and per-message OpId dedup still suppresses duplicates — the
/// collected result stays bitwise-exact against one worker.
#[test]
fn seeded_faults_match_one_worker_bitwise() {
    let one = run(FAULTED, 8, config(1, 4));
    for workers in 2..=4 {
        let mut plan = FaultPlan::seeded(0xCAFE);
        plan.drop = 0.05;
        plan.duplicate = 0.02;
        plan.delay = 0.02;
        let cfg = SipConfig::builder()
            .workers(workers)
            .io_servers(0)
            .segment_size(4)
            .collect_distributed(true)
            .fault(FaultConfig::new(plan))
            .build()
            .unwrap();
        let faulty = run(FAULTED, 8, cfg);

        assert_bitwise_equal(&one, &faulty);
        assert!(
            faulty.profile.metrics.plan.multicast_blocks > 0,
            "{workers} workers: multicast must be active: {:?}",
            faulty.profile.metrics.plan
        );
        assert!(
            faulty.profile.metrics.fabric.perturbed() > 0,
            "{workers} workers: the plan must actually have perturbed traffic: {:?}",
            faulty.profile.metrics.fabric
        );
    }
}

/// A worker crash mid-pardo: the dead rank's homes re-hash to survivors
/// and the master requeues its chunks — still exact against one worker.
#[test]
fn worker_crash_matches_one_worker_bitwise() {
    let one = run(BCAST, 8, config(1, 4));
    for workers in 2..=4 {
        let mut plan = FaultPlan::seeded(0x5EEDED);
        plan.drop = 0.03;
        let mut fault = FaultConfig::new(plan);
        fault.crash = Some(CrashSchedule {
            worker: 1,
            after_iterations: 3,
        });
        let cfg = SipConfig::builder()
            .workers(workers)
            .io_servers(0)
            .segment_size(4)
            .collect_distributed(true)
            .fault(fault)
            .build()
            .unwrap();
        let faulty = run(BCAST, 8, cfg);

        assert_bitwise_equal(&one, &faulty);
        assert_eq!(faulty.profile.metrics.recovery.ranks_died, 1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For arbitrary problem sizes, worker counts and segment sizes, the
    /// distributed run is observationally identical to one worker —
    /// bitwise on every collected block and scalar.
    #[test]
    fn any_worker_count_equals_one_worker_for_arbitrary_shapes(
        n in 2i64..10,
        workers in 1usize..5,
        seg in 2usize..5,
    ) {
        let one = run(BCAST, n, config(1, seg));
        let many = run(BCAST, n, config(workers, seg));
        assert_bitwise_equal(&one, &many);
    }
}
