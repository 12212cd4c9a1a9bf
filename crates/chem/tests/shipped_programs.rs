//! The shipped `programs/*.sial` run clean and keep honest books:
//!
//! * a correct program never gets a runtime finding, at any worker count —
//!   in particular no `possible barrier misuse` from a home that has not
//!   yet seen the barrier release its peers already crossed — nor under a
//!   seeded lossy fabric, where retries and duplicate suppression are live;
//! * every copy-on-write copy is counted, with its bytes;
//! * a configuration whose dry run exceeds the worker pool is refused
//!   before anything launches.

use sia_bytecode::ConstBindings;
use sia_chem::register_integrals;
use sia_runtime::{
    FaultConfig, FaultPlan, RunOutput, RuntimeError, SegmentConfig, Sip, SipConfig, SuperRegistry,
};

fn program(name: &str) -> sia_bytecode::Program {
    let path = format!("{}/../../programs/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    sial_frontend::compile(&src).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn bindings(pairs: &[(&str, i64)]) -> ConstBindings {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

fn config(workers: usize, io_servers: usize, seg: usize, threshold: f64) -> SipConfig {
    SipConfig::builder()
        .workers(workers)
        .io_servers(io_servers)
        .segments(SegmentConfig {
            default: seg,
            nsub: 2,
            ..Default::default()
        })
        .sparsity_threshold(threshold)
        .build()
        .unwrap()
}

/// `sial run … --chem`: the chemistry kernels, with the occupied count
/// taken from the `nocc` binding.
fn chem_sip(cfg: SipConfig, binds: &ConstBindings) -> Sip {
    let seg = cfg.segments.default;
    let nocc = binds.get("nocc").map_or(seg, |&o| o as usize * seg);
    let mut registry = SuperRegistry::new();
    register_integrals(&mut registry, seg, nocc);
    Sip::new(cfg).with_registry(registry)
}

struct Case {
    file: &'static str,
    binds: &'static [(&'static str, i64)],
    io_servers: usize,
    threshold: f64,
    repeats: usize,
}

const CASES: &[Case] = &[
    Case {
        file: "mp2.sial",
        binds: &[("nocc", 2), ("nvrt", 4)],
        io_servers: 0,
        threshold: 0.0,
        repeats: 20,
    },
    Case {
        file: "mp2_screened.sial",
        binds: &[("nocc", 2), ("nvrt", 4)],
        io_servers: 0,
        threshold: 1e-10,
        repeats: 2,
    },
    Case {
        file: "contraction.sial",
        binds: &[("norb", 3), ("nocc", 2)],
        io_servers: 0,
        threshold: 0.0,
        repeats: 2,
    },
    Case {
        file: "triangular.sial",
        binds: &[("n", 4)],
        io_servers: 0,
        threshold: 0.0,
        repeats: 2,
    },
    Case {
        file: "checkpoint_demo.sial",
        binds: &[("n", 4)],
        io_servers: 2,
        threshold: 0.0,
        repeats: 2,
    },
];

/// Runs one case and fails on any runtime finding; `label` names the run
/// in the failure message.
fn run_clean(case: &Case, workers: usize, fault: Option<FaultPlan>, label: &str) -> RunOutput {
    let prog = program(case.file);
    let binds = bindings(case.binds);
    let mut cfg = config(workers, case.io_servers, 4, case.threshold);
    cfg.fault = fault.map(FaultConfig::new);
    cfg.validate().unwrap();
    let out = chem_sip(cfg, &binds)
        .run(prog, &binds)
        .unwrap_or_else(|e| panic!("{} ×{workers}, {label}: {e}", case.file));
    assert!(
        out.warnings.is_empty(),
        "{} with {workers} workers, {label}: {:?}",
        case.file,
        out.warnings
    );
    out
}

#[test]
fn shipped_programs_report_no_findings() {
    for case in CASES {
        for workers in [1, 2, 4] {
            for run in 0..case.repeats {
                run_clean(case, workers, None, &format!("run {run}"));
            }
        }
    }
}

#[test]
fn shipped_programs_report_no_findings_under_seeded_faults() {
    for case in CASES {
        // Summed over worker counts and seeds: `triangular.sial` sends only
        // a handful of remote puts per run.
        let mut perturbed = 0;
        for workers in [2, 4] {
            for seed in 1..=4 {
                let mut plan = FaultPlan::seeded(seed);
                plan.drop = 0.05;
                plan.duplicate = 0.02;
                plan.delay = 0.05;
                let out = run_clean(case, workers, Some(plan), &format!("seed {seed}"));
                perturbed += out.profile.metrics.fabric.perturbed();
            }
        }
        assert!(
            perturbed > 0,
            "{}: the fault plan touched no message",
            case.file
        );
    }
}

#[test]
fn mp2_counts_one_deep_copy_per_scale() {
    // `T(i,a,j,b) = 2.0 * Vd(i,a,j,b)` lowers to a zero-copy share of the
    // home block followed by `T *= 2`, which must copy-on-write: exactly
    // one counted copy of one block per iteration on a single worker (the
    // other mutations find `T` already unique).
    let (nocc, nvrt, seg) = (2i64, 4i64, 4usize);
    let binds = bindings(&[("nocc", nocc), ("nvrt", nvrt)]);
    let out = chem_sip(config(1, 0, seg, 0.0), &binds)
        .run(program("mp2.sial"), &binds)
        .unwrap();
    let scales = (nocc * nocc * nvrt * nvrt) as u64;
    let block_bytes = (seg.pow(4) * std::mem::size_of::<f64>()) as u64;
    let m = &out.profile.metrics.memory;
    assert_eq!(m.deep_copies, scales, "{m:?}");
    assert_eq!(m.bytes_deep_copied, scales * block_bytes, "{m:?}");
}

#[test]
fn contraction_beyond_the_pool_is_refused_before_launch() {
    // 2 × 16,384 blocks of 32 KiB over two workers: ~514 MiB a worker
    // against the 256 MiB default pool. Only the dry run may execute.
    let binds = bindings(&[("norb", 16), ("nocc", 8)]);
    let cfg = config(2, 0, 8, 0.0);
    let pool = cfg.pool_bytes as u64;
    let sip = chem_sip(cfg, &binds);
    let estimate = sip.dry_run(program("contraction.sial"), &binds).unwrap();
    assert!(estimate.per_worker_bytes > pool, "{estimate:?}");
    match sip.run(program("contraction.sial"), &binds) {
        Err(RuntimeError::Infeasible {
            needed_per_worker,
            budget,
            sufficient_workers,
        }) => {
            assert_eq!(needed_per_worker, estimate.per_worker_bytes);
            assert_eq!(budget, pool);
            assert!(sufficient_workers > 2);
        }
        other => panic!("expected Infeasible, got {:?}", other.map(|_| ())),
    }
}
