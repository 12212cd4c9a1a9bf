//! # sia-core — the public facade of the Super Instruction Architecture
//!
//! One import point for the whole system: compile SIAL, run it on the SIP,
//! inspect profiles, or trace-and-simulate at supercomputer scale.
//!
//! ```
//! use sia_core::Sia;
//!
//! let src = r#"
//! sial hello_blocks
//! aoindex i = 1, n
//! distributed X(i)
//! temp t(i)
//! scalar total
//! pardo i
//!   t(i) = 1.5
//!   put X(i) = t(i)
//! endpardo i
//! sip_barrier
//! pardo i
//!   get X(i)
//!   total += X(i) * X(i)
//! endpardo i
//! sip_barrier
//! execute sip_allreduce total
//! endsial
//! "#;
//!
//! let out = Sia::builder()
//!     .workers(2)
//!     .segment_size(4)
//!     .bind("n", 3)
//!     .run(src)
//!     .unwrap();
//! assert!((out.scalars["total"] - 3.0 * 4.0 * 2.25).abs() < 1e-9);
//! ```

pub use sia_blocks as blocks;
pub use sia_bytecode as bytecode;
pub use sia_fabric as fabric;
pub use sia_runtime as runtime;
pub use sia_sim as sim;
pub use sial_frontend as frontend;

pub use sia_bytecode::{ConstBindings, Program};
pub use sia_fabric::{FaultPlan, FaultSnapshot};
pub use sia_runtime::{
    CommKind, CommPlan, ConfigError, CrashSchedule, FaultConfig, FaultStats, MemoryEstimate, Merge,
    Metrics, ProfileReport, RecoveryStats, RunOutput, RuntimeError, SegmentConfig, Sip, SipConfig,
    SipConfigBuilder, SuperArg, SuperEnv, SuperRegistry, TraceSink, TraceTimeline, WaitCause,
};
pub use sia_sim::{MachineModel, SimConfig, SimReport};
pub use sial_frontend::CompileError;

use sia_runtime::trace::{default_cost_model, generate, CostModel, Trace};
use sia_runtime::{Layout, Topology};
use std::sync::Arc;

/// Everything that can go wrong driving the SIA end to end.
#[derive(Debug)]
pub enum SiaError {
    /// SIAL compilation failed.
    Compile(CompileError),
    /// The configuration is invalid (e.g. a zero segment size).
    Config(ConfigError),
    /// The SIP rejected or aborted the run.
    Runtime(RuntimeError),
}

impl std::fmt::Display for SiaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SiaError::Compile(e) => write!(f, "{e}"),
            SiaError::Config(e) => write!(f, "{e}"),
            SiaError::Runtime(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SiaError {}

impl From<CompileError> for SiaError {
    fn from(e: CompileError) -> Self {
        SiaError::Compile(e)
    }
}

impl From<ConfigError> for SiaError {
    fn from(e: ConfigError) -> Self {
        SiaError::Config(e)
    }
}

impl From<RuntimeError> for SiaError {
    fn from(e: RuntimeError) -> Self {
        SiaError::Runtime(e)
    }
}

/// Compiles SIAL source to SIA bytecode.
pub fn compile(source: &str) -> Result<Program, CompileError> {
    sial_frontend::compile(source)
}

/// Renders a human-readable bytecode listing.
pub fn disassemble(program: &Program) -> String {
    sia_bytecode::disassemble(program)
}

/// Builder-style entry point: configure the SIP, bind constants, register
/// kernels, then run or trace.
pub struct Sia {
    config: SipConfig,
    registry: SuperRegistry,
    bindings: ConstBindings,
    cost_model: CostModel,
}

impl Sia {
    /// Starts a builder with defaults (2 workers, 1 I/O server, segment 8).
    pub fn builder() -> Self {
        Sia {
            config: SipConfig::builder()
                .collect_distributed(true)
                .build()
                .expect("default config is valid"),
            registry: SuperRegistry::new(),
            bindings: ConstBindings::new(),
            cost_model: default_cost_model(),
        }
    }

    /// Sets the worker count.
    pub fn workers(mut self, n: usize) -> Self {
        self.config.workers = n;
        self
    }

    /// Sets the I/O server count (0 disables served arrays).
    pub fn io_servers(mut self, n: usize) -> Self {
        self.config.io_servers = n;
        self
    }

    /// Sets the default segment size — the paper's key tuning parameter,
    /// deliberately *not* expressible in SIAL source.
    pub fn segment_size(mut self, seg: usize) -> Self {
        self.config.segments.default = seg;
        self
    }

    /// Sets subsegments per segment (for subindices).
    pub fn subsegments(mut self, nsub: usize) -> Self {
        self.config.segments.nsub = nsub;
        self
    }

    /// Sets the prefetch look-ahead depth.
    pub fn prefetch_depth(mut self, d: usize) -> Self {
        self.config.prefetch_depth = d;
        self
    }

    /// Sets the worker block-cache capacity.
    pub fn cache_blocks(mut self, n: usize) -> Self {
        self.config.cache_blocks = n;
        self
    }

    /// Sets a per-worker memory budget the dry run enforces.
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.config.memory_budget = Some(bytes);
        self
    }

    /// Overrides the whole configuration.
    pub fn config(mut self, config: SipConfig) -> Self {
        self.config = config;
        self
    }

    /// Binds a symbolic constant.
    pub fn bind(mut self, name: &str, value: i64) -> Self {
        self.bindings.insert(name.to_string(), value);
        self
    }

    /// Registers a super instruction.
    pub fn register(
        mut self,
        name: &str,
        f: impl Fn(&mut [SuperArg], &SuperEnv) -> Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        self.registry.register(name, f);
        self
    }

    /// Replaces the registry wholesale.
    pub fn registry(mut self, registry: SuperRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Sets the cost model used by [`Sia::trace`] for `execute` kernels.
    pub fn cost_model(mut self, cm: CostModel) -> Self {
        self.cost_model = cm;
        self
    }

    /// Compiles and runs SIAL source on the real SIP.
    pub fn run(self, source: &str) -> Result<RunOutput, SiaError> {
        let program = compile(source)?;
        self.run_program(program)
    }

    /// Runs an already compiled program.
    pub fn run_program(self, program: Program) -> Result<RunOutput, SiaError> {
        self.config.validate()?;
        Ok(Sip::new(self.config)
            .with_registry(self.registry)
            .run(program, &self.bindings)?)
    }

    /// Dry-runs only: the memory estimate without execution.
    pub fn dry_run(self, source: &str) -> Result<MemoryEstimate, SiaError> {
        let program = compile(source)?;
        self.config.validate()?;
        Ok(Sip::new(self.config).dry_run(program, &self.bindings)?)
    }

    /// Compiles and traces SIAL source for the scale simulator, using this
    /// builder's bindings/segments and the given (simulated) topology.
    pub fn trace(self, source: &str, workers: usize, io_servers: usize) -> Result<Trace, SiaError> {
        let program = compile(source)?;
        self.config.validate()?;
        let layout = Layout::new(
            Arc::new(program),
            &self.bindings,
            self.config.segments,
            Topology::new(workers, io_servers),
        )?;
        Ok(generate(&layout, &self.cost_model)?)
    }
}

impl Default for Sia {
    fn default() -> Self {
        Self::builder()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
sial core_facade
aoindex i = 1, n
distributed X(i)
temp t(i)
scalar s
pardo i
  t(i) = 2.0
  put X(i) = t(i)
endpardo i
sip_barrier
pardo i
  get X(i)
  s += X(i) * X(i)
endpardo i
sip_barrier
execute sip_allreduce s
endsial
"#;

    #[test]
    fn builder_run() {
        let out = Sia::builder()
            .workers(2)
            .segment_size(4)
            .bind("n", 4)
            .run(SRC)
            .unwrap();
        assert!((out.scalars["s"] - 4.0 * 4.0 * 4.0).abs() < 1e-9);
    }

    #[test]
    fn compile_error_surfaces() {
        let err = Sia::builder()
            .run("sial broken\npardo\nendsial")
            .unwrap_err();
        assert!(matches!(err, SiaError::Compile(_)));
        assert!(err.to_string().contains("error"));
    }

    #[test]
    fn runtime_error_surfaces() {
        // Unbound constant.
        let err = Sia::builder().run(SRC).unwrap_err();
        assert!(matches!(err, SiaError::Runtime(_)));
    }

    /// The facade's setters write the config directly, so each entry point
    /// validates it: a zero segment size (default or per index kind) or
    /// worker count is a typed error, not a panic.
    #[test]
    fn invalid_config_is_an_error_not_a_panic() {
        let runs: [fn(Sia) -> Result<(), SiaError>; 3] = [
            |s| s.run(SRC).map(drop),
            |s| s.dry_run(SRC).map(drop),
            |s| s.trace(SRC, 4, 1).map(drop),
        ];
        for run in runs {
            let zero_seg = Sia::builder().segment_size(0).bind("n", 4);
            assert!(matches!(run(zero_seg), Err(SiaError::Config(_))));
            let zero_workers = Sia::builder().workers(0).bind("n", 4);
            assert!(matches!(run(zero_workers), Err(SiaError::Config(_))));
            let deep_prefetch = Sia::builder()
                .cache_blocks(2)
                .prefetch_depth(3)
                .bind("n", 4);
            assert!(matches!(run(deep_prefetch), Err(SiaError::Config(_))));
            let zero_ao = Sia::builder()
                .config(SipConfig {
                    segments: SegmentConfig {
                        ao: Some(0),
                        ..SegmentConfig::default()
                    },
                    ..SipConfig::default()
                })
                .bind("n", 4);
            assert!(matches!(run(zero_ao), Err(SiaError::Config(_))));
        }
        let err = Sia::builder().segment_size(0).run(SRC).unwrap_err();
        assert!(err.to_string().contains("segment size"), "{err}");
    }

    #[test]
    fn dry_run_estimates() {
        let est = Sia::builder()
            .workers(4)
            .segment_size(4)
            .bind("n", 8)
            .dry_run(SRC)
            .unwrap();
        assert!(est.per_worker_bytes > 0);
    }

    #[test]
    fn trace_from_builder() {
        let t = Sia::builder()
            .segment_size(4)
            .bind("n", 8)
            .trace(SRC, 16, 1)
            .unwrap();
        assert!(t.total_flops() > 0);
    }

    #[test]
    fn disassemble_roundtrip() {
        let p = compile(SRC).unwrap();
        let listing = disassemble(&p);
        assert!(listing.contains("pardo i"));
        assert!(listing.contains("put X(i) = t(i)"));
    }

    #[test]
    fn custom_kernel_registration() {
        let src = r#"
sial kernel_test
aoindex i = 1, n
temp t(i)
scalar s
pardo i
  execute negate_fill t(i)
  s += t(i) * t(i)
endpardo i
sip_barrier
execute sip_allreduce s
endsial
"#;
        let out = Sia::builder()
            .workers(2)
            .segment_size(4)
            .bind("n", 2)
            .register("negate_fill", |args, _env| {
                args[0].block_mut()?.fill(-3.0);
                Ok(())
            })
            .run(src)
            .unwrap();
        assert!((out.scalars["s"] - 2.0 * 4.0 * 9.0).abs() < 1e-9);
    }
}
