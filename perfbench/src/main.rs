//! `perfbench` — the outside-in benchmark of the SIA: `sial run`-style
//! batch jobs driven only through public entry points, timed from this
//! code, every result checked against an independent oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mp2 --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures one untraced pass and reports the end-to-end
//! metrics; `--trace 1` runs an untraced and a traced pass (half the time
//! each), measures the kernel references, reports the per-layer metrics
//! and writes the traced pass's spans as Chrome trace JSON under
//! `.bench_out/`. Every metric is printed by name with its unit; the last
//! line is the JSON result. The exit code is nonzero when any job fails:
//! an error, or a result the oracle rejects. See `perfbench/README.md`.

mod batch;
mod host;
mod layers;
mod oracle;
mod setup;
mod spans;
mod stats;

use batch::{Batch, Prepared};
use host::{HostFacts, KernelRefs};
use layers::Counters;
use oracle::Tally;
use setup::Stages;
use spans::Tracer;
use stats::{median, ratio, Json, Metrics};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// Seconds of repeated set-ups before the first job.
const SETUP_SECONDS: f64 = 0.25;
/// After each untraced job, set-ups run again for this share of the job's
/// time. The host's speed drifts from second to second, so `setup_s` and
/// the set-up layer times, medians over all set-ups, sample the whole pass
/// and not one moment of it.
const SETUP_SHARE: f64 = 0.04;

/// The measurements of one pass.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds from asking for each finished job to its checked result.
    pub job_s: Vec<f64>,
    pub tally: Tally,
    pub counters: Counters,
    /// Share of host CPU time stolen by the hypervisor during the pass.
    pub steal_frac: f64,
}

/// splitmix64: the benchmark's only source of randomness, seeded by
/// `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !batch::WORKLOADS.iter().any(|b| b.name == a.workload) {
        let names: Vec<_> = batch::WORKLOADS.iter().map(|b| b.name).collect();
        return Err(format!(
            "--workload must be one of {} (got {:?})",
            names.join(", "),
            a.workload
        ));
    }
    if a.seconds.is_nan() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Everything a run measured, for the metric listing.
struct Run {
    /// Every set-up of the run, the cold first one included.
    setup_s: Vec<f64>,
    stages: Vec<Stages>,
    untraced: Pass,
    traced: Option<Pass>,
    refs: Option<KernelRefs>,
    /// VmHWM through set-up and the cold first job.
    peak_rss_mib: f64,
    /// VmHWM over the untraced pass.
    peak_rss_run_mib: f64,
    /// The untimed first job.
    cold_job_s: f64,
    reference_s: f64,
    spans: usize,
}

fn run(args: &Args) -> Result<bool, String> {
    let host = HostFacts::probe();
    let self_test = oracle::self_test(args.seed);
    if let Err(e) = &self_test {
        eprintln!("perfbench: oracle self-test failed: {e}");
    }
    let out_dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_out");
    let work_dir = out_dir.join(format!("{}-{}", args.workload, std::process::id()));
    std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
    let mut tracer = Tracer::new(args.trace);
    let run = run_batch(args, &mut tracer, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    let run = run?;

    let mut tally = run.untraced.tally;
    if let Some(t) = &run.traced {
        tally.merge(&t.tally);
    }
    let correct = self_test.is_ok() && tally.failed == 0;
    let e2e = end_to_end(&run);
    let layers = per_layer(&run);

    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    if args.trace {
        let path = out_dir.join(format!("trace-{tag}.json"));
        std::fs::write(&path, tracer.to_chrome_json())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("trace: {} spans -> {}", run.spans, path.display());
    }
    let mut record = Json::default();
    record.open('{');
    record.key("schema");
    record.str("sia.perfbench.v1");
    record.key("workload");
    record.str(&args.workload);
    record.key("seed");
    record.num(args.seed as f64);
    record.key("seconds");
    record.num(args.seconds);
    record.key("trace");
    record.bool(args.trace);
    record.key("host");
    host.write(&mut record);
    record.key("steal_frac");
    record.num(run.untraced.steal_frac);
    record.key("correct");
    record.bool(correct);
    record.key("attempted");
    record.int(tally.attempted);
    record.key("failed");
    record.int(tally.failed);
    record.key("end_to_end");
    record.0.push_str(&e2e.to_json());
    record.key("per_layer");
    record.0.push_str(&layers.to_json());
    record.close('}');
    let path = out_dir.join(format!("result-{tag}.json"));
    std::fs::write(&path, &record.0).map_err(|e| format!("{}: {e}", path.display()))?;

    println!(
        "host: nproc={} cpu={:?} gemm={} llc={} B rustc={:?} rev={} profile={}",
        host.nproc,
        host.cpu_model,
        host.microkernel,
        host.llc_bytes,
        host.rustc,
        host.git_rev,
        host.profile
    );
    println!(
        "workload {}: seed {}, {} s, attempted {}, failed {}, wrong {}, \
         oracle reference {:.3} s, host steal {:.1}% over the untraced pass",
        args.workload,
        args.seed,
        args.seconds,
        tally.attempted,
        tally.failed,
        tally.wrong,
        run.reference_s,
        run.untraced.steal_frac * 100.0
    );
    // `failed_frac` is listed with the end-to-end metrics but is not one
    // of the bounded ones: it is 0 on a healthy run, so no share of a
    // median can bound it; `correct` gates it instead.
    let mut failed = Metrics::default();
    failed.note(
        "failed_frac",
        tally.failed_frac(),
        "ratio",
        format!("{} of {} jobs", tally.failed, tally.attempted),
    );
    println!("end-to-end:");
    list(&e2e);
    list(&failed);
    if !layers.0.is_empty() {
        println!("per-layer:");
        list(&layers);
    }
    println!("record: {}", path.display());

    let metrics = if args.trace { &layers } else { &e2e };
    let mut last = Json::default();
    last.open('{');
    last.key("correct");
    last.bool(correct);
    last.key("attempted");
    last.int(tally.attempted);
    last.key("failed");
    last.int(tally.failed);
    last.key("metrics");
    last.0.push_str(&metrics.to_json());
    last.close('}');
    println!("{}", last.0);
    Ok(correct)
}

fn list(metrics: &Metrics) {
    for m in &metrics.0 {
        println!(
            "  {:<34} {:>16.6} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn run_batch(args: &Args, tracer: &mut Tracer, work_dir: &Path) -> Result<Run, String> {
    let b = batch::WORKLOADS
        .iter()
        .find(|b| b.name == args.workload)
        .expect("workload validated");
    let mut setup_s = Vec::new();
    let mut stages = Vec::new();
    let prepared = set_ups(b, tracer, SETUP_SECONDS, &mut setup_s, &mut stages)?;
    let t = Instant::now();
    let expect = b.expect();
    let reference_s = t.elapsed().as_secs_f64();

    let mut ids = 0;
    let mut quiet = Tracer::new(false);
    // One untimed job first: a one-job pass, reported as the cold start.
    // The process then holds what a one-shot `sial run` would, so its peak
    // is the user's; later jobs' peaks vary with what the allocator kept.
    host::reset_peak_rss();
    let warmup = prepared.closed_loop(&expect, &mut quiet, 0.0, work_dir, &mut ids, |_| {});
    let peak_rss_mib = host::peak_rss_mib();
    let untraced_s = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut quiet_setups = Tracer::new(false);
    let mut setup_err = Ok(());
    host::reset_peak_rss();
    let mut untraced = prepared.closed_loop(
        &expect,
        &mut quiet,
        untraced_s,
        work_dir,
        &mut ids,
        |job_s| {
            if setup_err.is_ok() {
                let budget = SETUP_SHARE * job_s;
                setup_err =
                    set_ups(b, &mut quiet_setups, budget, &mut setup_s, &mut stages).map(drop);
            }
        },
    );
    let peak_rss_run_mib = host::peak_rss_mib();
    setup_err?;
    let traced = args.trace.then(|| {
        let half = args.seconds / 2.0;
        prepared.closed_loop(&expect, tracer, half, work_dir, &mut ids, |_| {})
    });
    let refs = args.trace.then(|| measure_refs(tracer));
    untraced.tally.merge(&warmup.tally);
    Ok(Run {
        setup_s,
        stages,
        untraced,
        traced,
        refs,
        peak_rss_mib,
        peak_rss_run_mib,
        cold_job_s: warmup.job_s.first().copied().unwrap_or(0.0),
        reference_s,
        spans: tracer.len(),
    })
}

/// Sets `b` up again and again for `seconds` (at least once), recording
/// each set-up's time and stages; returns the last set-up.
fn set_ups<'a>(
    b: &'a Batch,
    tr: &mut Tracer,
    seconds: f64,
    setup_s: &mut Vec<f64>,
    stages: &mut Vec<Stages>,
) -> Result<Prepared<'a>, String> {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let (p, st) = b.set_up(tr)?;
        setup_s.push(t.elapsed().as_secs_f64());
        stages.push(st);
        if start.elapsed().as_secs_f64() >= seconds {
            return Ok(p);
        }
    }
}

fn measure_refs(tracer: &mut Tracer) -> KernelRefs {
    tracer
        .time("kernel.references", 0, None, KernelRefs::measure)
        .0
}

fn end_to_end(run: &Run) -> Metrics {
    let p = &run.untraced;
    let n = p.job_s.len();
    let mut m = Metrics::default();
    m.note(
        "job_s",
        median(&p.job_s),
        "s",
        format!("median of {n} jobs"),
    );
    m.note(
        "setup_s",
        median(&run.setup_s),
        "s",
        format!(
            "median of {} set-ups: {SETUP_SECONDS} s before the first job, \
             then {SETUP_SHARE} of each job's time",
            run.setup_s.len()
        ),
    );
    m.note(
        "peak_rss_mib",
        run.peak_rss_mib,
        "MiB",
        "VmHWM through set-up and the first job".into(),
    );
    m
}

fn per_layer(run: &Run) -> Metrics {
    let mut m = Metrics::default();
    let Some(traced) = &run.traced else {
        return m;
    };
    let c = &traced.counters;

    let set_up = format!("median of {} set-ups", run.stages.len());
    m.note(
        "setup.cold_first_s",
        run.setup_s[0],
        "s",
        "the first set-up of the process".into(),
    );
    type Field = fn(&Stages) -> f64;
    let stage = |f: Field| median(&run.stages.iter().map(f).collect::<Vec<_>>());
    let stages: [(&'static str, Field, &'static str); 7] = [
        ("frontend.compile_s", |s| s.compile_s, "s"),
        ("bytecode.roundtrip_s", |s| s.roundtrip_s, "s"),
        ("bytecode.wire_bytes", |s| s.wire_bytes, "bytes"),
        ("verify.check_s", |s| s.verify_s, "s"),
        ("dryrun.estimate_s", |s| s.dryrun_s, "s"),
        ("dryrun.per_worker_bytes", |s| s.per_worker_bytes, "bytes"),
        ("plan.plan_s", |s| s.plan_s, "s"),
    ];
    for (name, f, unit) in stages {
        m.note(name, stage(f), unit, set_up.clone());
    }

    let per_job = format!("per job, mean of {} jobs", c.jobs);
    let totals = [
        ("wait.chunk_assign_s", c.wait_chunk_assign_s, "s"),
        ("interp.iterations", c.iterations, "count"),
        ("interp.busy_compute_s", c.busy_compute_s, "s"),
        ("interp.busy_control_s", c.busy_control_s, "s"),
        ("interp.busy_io_s", c.busy_io_s, "s"),
        ("interp.busy_sync_s", c.busy_sync_s, "s"),
        ("interp.findings", c.findings, "count"),
        ("kernel.contract_s", c.contract_s, "s"),
        ("kernel.elementwise_s", c.elementwise_s, "s"),
        ("contract.contractions", c.contractions, "count"),
        ("pack.packed_bytes", c.packed_bytes, "bytes"),
        ("chem.super_s", c.chem_s, "s"),
        ("cache.hits", c.cache_hits, "count"),
        ("cache.misses", c.cache_misses, "count"),
        ("cache.evictions", c.cache_evictions, "count"),
        ("cache.refetches", c.cache_refetches, "count"),
        ("memory.high_water_bytes", c.high_water_bytes, "bytes"),
        ("memory.deep_copies", c.deep_copies, "count"),
        ("memory.clones_avoided", c.clones_avoided, "count"),
        ("fabric.messages", c.fabric_messages, "count"),
        ("fabric.bytes", c.fabric_bytes, "bytes"),
        ("comm.flight_s", c.flight_s, "s"),
        ("comm.exposed_s", c.exposed_s, "s"),
        ("wait.block_arrival_s", c.wait_block_arrival_s, "s"),
        ("wait.ack_drain_s", c.wait_ack_drain_s, "s"),
        ("wait.sip_barrier_s", c.wait_sip_barrier_s, "s"),
        ("wait.collective_s", c.wait_collective_s, "s"),
        ("sparse.blocks_skipped", c.sparse_blocks_skipped, "count"),
        (
            "sparse.bytes_not_shipped",
            c.sparse_bytes_not_shipped,
            "bytes",
        ),
        ("sparse.flops_avoided", c.sparse_flops_avoided, "flop"),
    ];
    for (name, total, unit) in totals {
        m.note(name, total / c.jobs.max(1.0), unit, per_job.clone());
    }

    let gflops = ratio(c.contract_flops, c.contract_s) * 1e-9;
    let refs = run.refs.as_ref();
    let ref_gemm = refs.map_or(0.0, |r| r.gemm_gflop_per_s);
    let computed = || "computed from block shapes".to_string();
    m.note("kernel.contract_gflop_per_s", gflops, "GFLOP/s", computed());
    m.note(
        "kernel.contract_frac_of_ref",
        ratio(gflops, ref_gemm),
        "ratio",
        "against kernel.ref_gemm_gflop_per_s".into(),
    );
    m.note(
        "kernel.elementwise_gb_per_s",
        ratio(c.elementwise_bytes, c.elementwise_s) * 1e-9,
        "GB/s",
        computed(),
    );
    m.note(
        "kernel.ref_gemm_gflop_per_s",
        ref_gemm,
        "GFLOP/s",
        format!("dgemm {0}x{0}x{0}, 1 thread, 2n^3 flops", host::GEMM_N),
    );
    m.note(
        "kernel.ref_memcpy_gb_per_s",
        refs.map_or(0.0, |r| r.memcpy_gb_per_s),
        "GB/s",
        format!(
            "copy within a {}-byte array (4x LLC)",
            refs.map_or(0, |r| r.memcpy_bytes)
        ),
    );
    let ratios = [
        ("cache.hit_ratio", c.cache_hits, c.cache_misses),
        ("pack.pool_hit_ratio", c.pack_pool_hits, c.pack_pool_misses),
        ("comm.overlap", c.flight_s - c.exposed_s, c.exposed_s),
    ];
    for (name, good, bad) in ratios {
        m.note(name, ratio(good, good + bad), "ratio", String::new());
    }
    m.note(
        "dryrun.estimate_over_high_water",
        ratio(c.dry_run_per_worker_bytes, c.high_water_bytes),
        "ratio",
        "per-worker estimate / measured high water".into(),
    );
    m.note(
        "plan.predicted_over_actual_bytes",
        ratio(c.plan_predicted_bytes, c.plan_actual_bytes),
        "ratio",
        String::new(),
    );
    let kept = if c.sparse_blocks_skipped == 0.0 {
        1.0
    } else {
        ratio(c.contractions, c.contractions + c.sparse_blocks_skipped)
    };
    m.note(
        "sparse.kept_frac",
        kept,
        "ratio",
        "contractions run / contractions issued".into(),
    );
    m.note(
        "host.steal_frac",
        traced.steal_frac,
        "ratio",
        "host CPU time stolen by the hypervisor during the pass".into(),
    );
    m.note(
        "ledger.residual_frac",
        1.0 - ratio(c.busy_s + c.wait_s, c.worker_wall_s),
        "ratio",
        "worker wall not covered by per-pc busy plus wait".into(),
    );
    m.note(
        "job.cold_first_s",
        run.cold_job_s,
        "s",
        "the untimed first job".into(),
    );
    m.note(
        "peak_rss_run_mib",
        run.peak_rss_run_mib,
        "MiB",
        format!(
            "VmHWM over the untraced pass ({} jobs)",
            run.untraced.job_s.len()
        ),
    );
    m.note(
        "trace.overhead_frac",
        ratio(median(&traced.job_s), median(&run.untraced.job_s)) - 1.0,
        "ratio",
        format!(
            "traced job_s median ({} jobs) / untraced ({} jobs) - 1",
            traced.job_s.len(),
            run.untraced.job_s.len()
        ),
    );
    let mut all = traced.tally;
    all.merge(&run.untraced.tally);
    m.note(
        "failed_frac",
        all.failed_frac(),
        "ratio",
        format!("{} of {} jobs", all.failed, all.attempted),
    );
    m
}
