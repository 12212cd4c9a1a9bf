//! Ablations of the SIP's design choices (the decisions §V and §VII argue
//! for), each run against the alternative. (Ablation 1, block placement,
//! retired with the placement alternatives; its record is in
//! EXPERIMENTS.md.)
//!
//! 2. **Guided chunk scheduling** (§V-B: "the chunk size decreases as the
//!    computation proceeds"): guided vs fixed-size vs single-task chunks, in
//!    the simulator at scale (tail imbalance vs master traffic).
//! 3. **Asynchronous overlap** (§V, "maximize asynchrony"): prefetch pipeline
//!    on vs off across communication/computation balances.
//!
//! ```text
//! cargo run --release -p sia-bench --bin ablations
//! ```

use sia_bench::{fmt_pct, FigTable};
use sia_chem::{ccsd_iteration, RDX};
use sia_runtime::scheduler::ChunkPolicy;
use sia_sim::{machine::CRAY_XT5, simulate, SimConfig};

fn scheduling_ablation() {
    let trace = ccsd_iteration(&RDX, 15, 1).trace(1000, 1).expect("trace");
    let procs = 8000u64;
    let mut table = FigTable::new(
        "Ablation 2: chunk scheduling at 8000 simulated XT5 cores (RDX CCSD)",
        &["policy", "time (s)", "efficiency vs guided", "wait"],
    );
    let mut guided_time = None;
    for (name, policy) in [
        ("guided ÷2 (SIP)", ChunkPolicy::Guided { factor: 2 }),
        ("fixed 64-task chunks", ChunkPolicy::Fixed { size: 64 }),
        ("fixed 8-task chunks", ChunkPolicy::Fixed { size: 8 }),
        ("single-task chunks", ChunkPolicy::Fixed { size: 1 }),
    ] {
        let mut cfg = SimConfig::sip(CRAY_XT5, procs);
        cfg.chunk_policy = policy;
        let r = simulate(&trace, &cfg);
        let guided = *guided_time.get_or_insert(r.total_time);
        table.row(vec![
            name.into(),
            format!("{:.1}", r.total_time),
            fmt_pct(guided / r.total_time),
            fmt_pct(r.wait_fraction),
        ]);
    }
    table.print();
    println!(
        "guided matches the best fixed size without knowing it in advance;\n\
         oversized chunks pay tail imbalance, single-task chunks pay master\n\
         round trips.\n"
    );
    let _ = table.write_tsv("ablation_scheduling");
}

fn overlap_ablation() {
    // Sweep the communication:computation balance; report the overlap win.
    let mut table = FigTable::new(
        "Ablation 3: prefetch overlap across comm/comp balances (sim, 512 cores)",
        &[
            "flops per fetched byte",
            "no overlap (s)",
            "overlap (s)",
            "speedup",
        ],
    );
    for flops_per_byte in [1u64, 8, 64, 512] {
        let bytes_per_iter = 1_000_000u64;
        let trace = sia_runtime::trace::Trace {
            phases: vec![sia_runtime::trace::TracePhase::Pardo {
                pc: 0,
                iterations: 20_000,
                per_iter: sia_runtime::trace::IterProfile {
                    gets: 2,
                    get_bytes: bytes_per_iter,
                    flops: flops_per_byte * bytes_per_iter,
                    ..Default::default()
                },
            }],
        };
        let mut off = SimConfig::sip(CRAY_XT5, 512);
        off.prefetch_depth = 0;
        let mut on = off;
        on.prefetch_depth = 2;
        let t_off = simulate(&trace, &off).total_time;
        let t_on = simulate(&trace, &on).total_time;
        table.row(vec![
            flops_per_byte.to_string(),
            format!("{t_off:.2}"),
            format!("{t_on:.2}"),
            format!("{:.2}×", t_off / t_on),
        ]);
    }
    table.print();
    println!(
        "overlap buys the most when communication and computation are\n\
         comparable — the regime the paper's block granularity is chosen for."
    );
    let _ = table.write_tsv("ablation_overlap");
}

fn main() {
    scheduling_ablation();
    overlap_ablation();
}
