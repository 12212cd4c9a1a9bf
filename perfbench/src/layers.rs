//! Per-layer counters of one job, read from what the system's calls return:
//! a job's `RunOutput`, reduced to per-pc busy lines plus a
//! `(section, key) → value` view of its metrics registry, so a layer reads
//! the same way on every workload.
//!
//! Kernel time is classified per pc from the `Program`'s instruction kind,
//! never from profile text. Flops and bytes are *computed* from block
//! shapes (`seg^rank` elements per block) times execution counts.

use sia_bytecode::{BlockRef, Instruction, InstructionClass, Program};
use sia_runtime::metrics::Value;
use sia_runtime::RunOutput;
use std::collections::{BTreeMap, BTreeSet};

/// The `sia-chem` kernels (registered by `register_integrals`).
const CHEM_KERNELS: [&str; 7] = [
    "compute_integrals",
    "compute_screened_integrals",
    "compute_oei",
    "compute_eps_occ",
    "compute_eps_virt",
    "invert_denominator",
    "scale_by_denominator",
];

macro_rules! counters {
    ($($field:ident),* $(,)?) => {
        /// Additive per-job quantities (seconds, counts, bytes), summed over
        /// the jobs of a pass.
        #[derive(Debug, Default, Clone, Copy)]
        pub struct Counters {
            pub jobs: f64,
            $(pub $field: f64,)*
        }

        impl Counters {
            pub fn add(&mut self, o: &Counters) {
                self.jobs += o.jobs;
                $(self.$field += o.$field;)*
            }
        }
    };
}

counters!(
    worker_wall_s,
    busy_s,
    wait_s,
    busy_compute_s,
    busy_control_s,
    busy_io_s,
    busy_sync_s,
    iterations,
    findings,
    contract_s,
    contract_flops,
    elementwise_s,
    elementwise_bytes,
    chem_s,
    contractions,
    packed_bytes,
    pack_pool_hits,
    pack_pool_misses,
    cache_hits,
    cache_misses,
    cache_evictions,
    cache_refetches,
    high_water_bytes,
    deep_copies,
    clones_avoided,
    fabric_messages,
    fabric_bytes,
    flight_s,
    exposed_s,
    wait_block_arrival_s,
    wait_ack_drain_s,
    wait_sip_barrier_s,
    wait_collective_s,
    wait_chunk_assign_s,
    sparse_blocks_skipped,
    sparse_bytes_not_shipped,
    sparse_flops_avoided,
    plan_predicted_bytes,
    plan_actual_bytes,
    dry_run_per_worker_bytes,
);

/// What one instruction costs, computed from its block shapes.
enum Kind {
    Contract { flops: f64 },
    Elementwise { bytes: f64 },
    Chem,
    Other,
}

fn block_elems(p: &Program, r: &BlockRef, seg: usize) -> f64 {
    (seg as f64).powi(p.arrays[r.array.index()].dims.len() as i32)
}

fn classify(p: &Program, pc: u32, seg: usize) -> Kind {
    let bytes =
        |refs: &[&BlockRef]| -> f64 { refs.iter().map(|r| 8.0 * block_elems(p, r, seg)).sum() };
    match p.code.get(pc as usize) {
        Some(Instruction::BlockContract { dest, a, b, .. }) => {
            // One multiply-add per point of the joint index space.
            let distinct: BTreeSet<_> = [dest, a, b]
                .iter()
                .flat_map(|r| r.indices.iter().copied())
                .collect();
            Kind::Contract {
                flops: 2.0 * (seg as f64).powi(distinct.len() as i32),
            }
        }
        Some(Instruction::BlockFill { dest, .. }) => Kind::Elementwise {
            bytes: bytes(&[dest]),
        },
        Some(Instruction::BlockCopy { dest, src }) => Kind::Elementwise {
            bytes: bytes(&[dest, src]),
        },
        Some(Instruction::BlockAccumulate { dest, src, .. }) => Kind::Elementwise {
            bytes: bytes(&[dest, dest, src]),
        },
        Some(Instruction::BlockScale { dest, .. }) => Kind::Elementwise {
            bytes: bytes(&[dest, dest]),
        },
        Some(Instruction::ExecuteSuper { name, .. })
            if p.strings
                .get(name.index())
                .is_some_and(|n| CHEM_KERNELS.contains(&n.as_str())) =>
        {
            Kind::Chem
        }
        _ => Kind::Other,
    }
}

/// One profile line: pc, executions, busy seconds (summed over workers).
pub struct Line {
    pub pc: u32,
    pub count: f64,
    pub busy_s: f64,
}

/// A job's run, reduced to per-pc lines and a view of its metrics registry.
pub struct JobProfile {
    pub lines: Vec<Line>,
    /// Warnings on a correct program.
    pub findings: f64,
    pub fabric_messages: f64,
    pub fabric_bytes: f64,
    pub worker_wall_s: f64,
    pub iterations: f64,
    pub dry_run_per_worker_bytes: f64,
    /// `(section, key)` → value of the metrics registry.
    pub registry: BTreeMap<(String, String), f64>,
}

impl JobProfile {
    pub fn from_run(out: &RunOutput) -> Self {
        let mut registry = BTreeMap::new();
        for s in out.profile.metrics.sections() {
            for f in s.fields {
                let v = match f.value {
                    Value::U64(v) => v as f64,
                    Value::F64(v) => v,
                    Value::Bool(b) => b as u8 as f64,
                };
                registry.insert((s.name.to_string(), f.key.to_string()), v);
            }
        }
        JobProfile {
            lines: out
                .profile
                .lines
                .iter()
                .map(|l| Line {
                    pc: l.pc,
                    count: l.count as f64,
                    busy_s: l.busy.as_secs_f64(),
                })
                .collect(),
            findings: out.warnings.len() as f64,
            fabric_messages: out.traffic.messages as f64,
            fabric_bytes: out.traffic.bytes as f64,
            worker_wall_s: out
                .profile
                .worker_totals
                .iter()
                .map(|d| d.as_secs_f64())
                .sum(),
            iterations: out.profile.iterations as f64,
            dry_run_per_worker_bytes: out.dry_run.per_worker_bytes as f64,
            registry,
        }
    }

    fn get(&self, section: &str, key: &str) -> f64 {
        self.registry
            .get(&(section.to_string(), key.to_string()))
            .copied()
            .unwrap_or(0.0)
    }

    /// Reduces the profile to the per-layer counters of one job.
    pub fn counters(&self, program: &Program, seg: usize) -> Counters {
        let ns = |section: &str, key: &str| self.get(section, key) * 1e-9;
        let mut c = Counters {
            jobs: 1.0,
            worker_wall_s: self.worker_wall_s,
            iterations: self.iterations,
            findings: self.findings,
            fabric_messages: self.fabric_messages,
            fabric_bytes: self.fabric_bytes,
            dry_run_per_worker_bytes: self.dry_run_per_worker_bytes,
            wait_s: ns("wait", "total_ns"),
            contractions: self.get("contract", "contractions"),
            packed_bytes: self.get("pack", "packed_bytes"),
            pack_pool_hits: self.get("pack", "pack_pool_hits"),
            pack_pool_misses: self.get("pack", "pack_pool_misses"),
            cache_hits: self.get("cache", "hits"),
            cache_misses: self.get("cache", "misses"),
            cache_evictions: self.get("cache", "evictions"),
            cache_refetches: self.get("cache", "refetches"),
            high_water_bytes: self.get("memory", "high_water_bytes"),
            deep_copies: self.get("memory", "deep_copies"),
            clones_avoided: self.get("memory", "clones_avoided"),
            flight_s: ns("comm", "flight_ns"),
            exposed_s: ns("comm", "exposed_ns"),
            wait_block_arrival_s: ns("wait", "block_arrival"),
            wait_ack_drain_s: ns("wait", "ack_drain"),
            wait_sip_barrier_s: ns("wait", "sip_barrier"),
            wait_collective_s: ns("wait", "collective"),
            wait_chunk_assign_s: ns("wait", "chunk_assign"),
            sparse_blocks_skipped: self.get("sparse", "blocks_skipped"),
            sparse_bytes_not_shipped: self.get("sparse", "bytes_not_shipped"),
            sparse_flops_avoided: self.get("sparse", "flops_avoided"),
            plan_predicted_bytes: self.get("comm_plan", "predicted_bytes"),
            plan_actual_bytes: self.get("comm_plan", "actual_bytes"),
            ..Counters::default()
        };
        for l in &self.lines {
            c.busy_s += l.busy_s;
            let class = program
                .code
                .get(l.pc as usize)
                .map(Instruction::class)
                .unwrap_or(InstructionClass::Control);
            *match class {
                InstructionClass::Compute => &mut c.busy_compute_s,
                InstructionClass::Control => &mut c.busy_control_s,
                InstructionClass::Io => &mut c.busy_io_s,
                InstructionClass::Sync => &mut c.busy_sync_s,
            } += l.busy_s;
            match classify(program, l.pc, seg) {
                Kind::Contract { flops } => {
                    c.contract_s += l.busy_s;
                    c.contract_flops += flops * l.count;
                }
                Kind::Elementwise { bytes } => {
                    c.elementwise_s += l.busy_s;
                    c.elementwise_bytes += bytes * l.count;
                }
                Kind::Chem => c.chem_s += l.busy_s,
                Kind::Other => {}
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contraction_flops_come_from_the_joint_index_space() {
        let src = include_str!("../../programs/contraction.sial");
        let p = sial_frontend::compile(src).unwrap();
        let flops: Vec<f64> = (0..p.code.len() as u32)
            .filter_map(|pc| match classify(&p, pc, 8) {
                Kind::Contract { flops } => Some(flops),
                _ => None,
            })
            .collect();
        // V(M,N,L,S) * T(L,S,I,J): a 64×64×64 GEMM; R*R: a 4096-term dot.
        assert!(flops.contains(&(2.0 * 64.0 * 64.0 * 64.0)), "{flops:?}");
        assert!(flops.contains(&(2.0 * 4096.0)), "{flops:?}");
    }
}
