//! The set-up layers of a job, each timed around one public entry point:
//! `sial_frontend::compile`, the bytecode wire encode/decode round trip,
//! `verify::check_program`, `Sip::dry_run` and `Sip::plan`.

use crate::spans::{SpanId, Tracer};
use sia_bytecode::{decode_program, encode_program, ConstBindings, Program};
use sia_runtime::verify::check_program;
use sia_runtime::Sip;

/// Seconds per set-up layer for one program, plus the sizes they report.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stages {
    pub compile_s: f64,
    pub roundtrip_s: f64,
    pub verify_s: f64,
    pub dryrun_s: f64,
    pub plan_s: f64,
    pub wire_bytes: f64,
    pub per_worker_bytes: f64,
}

/// Compiles `source` (timed), failing on any compile error.
pub fn compile(tr: &mut Tracer, parent: SpanId, source: &str) -> Result<(Program, f64), String> {
    let (p, s) = tr.time("frontend.compile", 0, parent, || {
        sial_frontend::compile(source)
    });
    Ok((p.map_err(|e| format!("compile: {e}"))?, s))
}

/// Runs the set-up layers after compilation on `program`: wire round trip,
/// verification (any finding is an error), dry run and plan. Returns the
/// decoded program — the one jobs run — and the stage times.
pub fn layers(
    tr: &mut Tracer,
    parent: SpanId,
    sip: &Sip,
    program: &Program,
    bindings: &ConstBindings,
) -> Result<(Program, Stages), String> {
    let mut st = Stages::default();
    let (decoded, s) = tr.time("bytecode.roundtrip", 0, parent, || {
        let wire = encode_program(program);
        decode_program(&wire).map(|p| (p, wire.len()))
    });
    let (decoded, wire_len) = decoded.map_err(|e| format!("wire round trip: {e}"))?;
    st.roundtrip_s = s;
    st.wire_bytes = wire_len as f64;
    if decoded != *program {
        return Err("wire round trip changed the program".into());
    }
    let (diags, s) = tr.time("verify.check", 0, parent, || check_program(&decoded));
    st.verify_s = s;
    if let Some(d) = diags.first() {
        return Err(format!("verifier: pc {}: {}", d.pc, d.message));
    }
    let copy = decoded.clone();
    let (est, s) = tr.time("dryrun.estimate", 0, parent, || sip.dry_run(copy, bindings));
    st.dryrun_s = s;
    st.per_worker_bytes = est.map_err(|e| format!("dry run: {e}"))?.per_worker_bytes as f64;
    let copy = decoded.clone();
    let (plan, s) = tr.time("plan.plan", 0, parent, || sip.plan(copy, bindings));
    st.plan_s = s;
    plan.map_err(|e| format!("plan: {e}"))?;
    Ok((decoded, st))
}
