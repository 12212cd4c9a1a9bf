//! The batch workloads: one `Sip::run` at a time in a closed loop, as
//! `sial run` does it, on 2 workers with default segment, cache and
//! placement settings.

use crate::host;
use crate::layers::{Counters, JobProfile};
use crate::oracle::{self, Expect};
use crate::setup::{self, Stages};
use crate::spans::Tracer;
use crate::Pass;
use sia_bytecode::{ConstBindings, Program};
use sia_chem::register_integrals;
use sia_runtime::{Sip, SipConfig, SuperRegistry};
use std::path::Path;
use std::time::Instant;

/// One batch workload.
pub struct Batch {
    pub name: &'static str,
    source: &'static str,
    bindings: [(&'static str, i64); 2],
    /// Elements per segment (every index kind).
    pub seg: usize,
    threshold: f64,
    /// The scalar the oracle checks.
    scalar: &'static str,
}

pub const WORKLOADS: [Batch; 3] = [
    Batch {
        name: "mp2",
        source: include_str!("../../programs/mp2.sial"),
        bindings: [("nocc", 4), ("nvrt", 12)],
        seg: 8,
        threshold: 0.0,
        scalar: "emp2",
    },
    Batch {
        name: "mp2_screened",
        source: include_str!("../../programs/mp2_screened.sial"),
        bindings: [("nocc", 4), ("nvrt", 12)],
        seg: 8,
        threshold: 1e-10,
        scalar: "emp2",
    },
    Batch {
        name: "contraction",
        source: include_str!("../../programs/contraction.sial"),
        bindings: [("norb", 8), ("nocc", 2)],
        seg: 8,
        threshold: 0.0,
        scalar: "rnorm",
    },
];

/// A batch workload after set-up: the program jobs run and the SIP
/// configuration.
pub struct Prepared<'a> {
    batch: &'a Batch,
    program: Program,
    bindings: ConstBindings,
    config: SipConfig,
    registry: SuperRegistry,
}

impl Batch {
    fn bind(&self, name: &str) -> i64 {
        self.bindings
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0, |b| b.1)
    }

    /// The oracle's reference for this workload's checked scalar (computed
    /// once per run, outside set-up).
    pub fn expect(&self) -> Expect {
        let b = |n| self.bind(n) as usize;
        match self.name {
            "mp2" => Expect {
                value: oracle::mp2_energy(b("nocc"), b("nvrt"), self.seg, false),
                tol: oracle::DENSE,
            },
            "mp2_screened" => Expect {
                value: oracle::mp2_energy(b("nocc"), b("nvrt"), self.seg, true),
                tol: oracle::SCREENED,
            },
            _ => Expect {
                value: oracle::contraction_rnorm(b("norb"), b("nocc"), self.seg),
                tol: oracle::DENSE,
            },
        }
    }

    /// One set-up: compile, wire round trip, verify, dry run and plan.
    /// Returns the prepared workload and the stage times.
    pub fn set_up(&self, tr: &mut Tracer) -> Result<(Prepared<'_>, Stages), String> {
        let config = SipConfig::builder()
            .workers(2)
            .segment_size(self.seg)
            .sparsity_threshold(self.threshold)
            .build()
            .map_err(|e| e.to_string())?;
        let mut registry = SuperRegistry::new();
        // Occupied orbitals for the denominators: `nocc` segments.
        register_integrals(
            &mut registry,
            self.seg,
            self.bind("nocc") as usize * self.seg,
        );
        let bindings: ConstBindings = self
            .bindings
            .iter()
            .map(|&(k, v)| (k.to_string(), v))
            .collect();
        let span = tr.begin("setup", 0, None, Instant::now());
        let (program, compile_s) = setup::compile(tr, span, self.source)?;
        let sip = Sip::new(config.clone()).with_registry(registry.clone());
        let (program, mut stages) = setup::layers(tr, span, &sip, &program, &bindings)?;
        tr.end(span, Instant::now());
        stages.compile_s = compile_s;
        let prepared = Prepared {
            batch: self,
            program,
            bindings,
            config,
            registry,
        };
        Ok((prepared, stages))
    }
}

impl Prepared<'_> {
    /// Runs jobs back to back until `seconds` have passed (at least one).
    /// Each job's time runs from the `Sip::run` call to its oracle-checked
    /// result against `expect`; `after_job` gets it once the job is done.
    /// `job_ids` numbers the jobs across passes.
    pub fn closed_loop(
        &self,
        expect: &Expect,
        tr: &mut Tracer,
        seconds: f64,
        work_dir: &Path,
        job_ids: &mut u64,
        mut after_job: impl FnMut(f64),
    ) -> Pass {
        let mut pass = Pass::default();
        let ticks = host::cpu_ticks();
        let start = Instant::now();
        while pass.tally.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
            *job_ids += 1;
            let job = *job_ids;
            let dir = work_dir.join(format!("job-{job}"));
            let mut config = self.config.clone();
            config.run_dir = Some(dir.clone());
            let sip = Sip::new(config).with_registry(self.registry.clone());
            let program = self.program.clone();

            let t0 = Instant::now();
            let span = tr.begin("job", job, None, t0);
            let (out, _) = tr.time("sip.run", job, span, || sip.run(program, &self.bindings));
            tr.time("oracle.check", job, span, || match &out {
                Ok(o) => pass
                    .tally
                    .check(expect, o.scalars.get(self.batch.scalar).copied()),
                Err(_) => {
                    pass.tally.fail();
                    false
                }
            });
            let t1 = Instant::now();
            tr.end(span, t1);

            let _ = std::fs::remove_dir_all(&dir);
            let job_s = t1.duration_since(t0).as_secs_f64();
            match out {
                Ok(o) => {
                    pass.job_s.push(job_s);
                    let counters: Counters =
                        JobProfile::from_run(&o).counters(&self.program, self.batch.seg);
                    pass.counters.add(&counters);
                }
                Err(e) => eprintln!("perfbench: {} job {job}: {e}", self.batch.name),
            }
            after_job(job_s);
        }
        pass.steal_frac = host::steal_frac(ticks, host::cpu_ticks());
        pass
    }
}
