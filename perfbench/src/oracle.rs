//! The independent oracle: reference results from plain dense loops over the
//! synthetic integral definitions (`sia_chem::integrals`).
//! Nothing here touches `sia-blocks`, the bytecode, or the SIP: no blocks,
//! no segments in flight, no fabric — only the mathematical definition of
//! what each program computes.

use sia_chem::integrals::{eri, eri_screened, orbital_energy};

/// How closely a result must match its reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Dense runs: relative 1e-10. The reduction order varies between runs
    /// and worker counts, so the last digits of a sum differ.
    Relative(f64),
    /// Screened runs: absolute 1e-8, the bound the screening threshold is
    /// held to (dropped blocks contribute below it).
    Absolute(f64),
}

pub const DENSE: Tolerance = Tolerance::Relative(1e-10);
pub const SCREENED: Tolerance = Tolerance::Absolute(1e-8);

/// A reference value and the tolerance a result is held to.
#[derive(Debug, Clone, Copy)]
pub struct Expect {
    pub value: f64,
    pub tol: Tolerance,
}

impl Expect {
    /// Does `got` match the reference?
    pub fn accepts(&self, got: f64) -> bool {
        let err = (got - self.value).abs();
        match self.tol {
            Tolerance::Relative(r) => err <= r * self.value.abs(),
            Tolerance::Absolute(a) => err <= a,
        }
    }
}

/// Attempted/failed job counts. A job fails when it returns an error,
/// fails the oracle, is refused at admission, or misses its deadline.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Failures that were wrong results (the others are errors, refusals
    /// and timeouts).
    pub wrong: u64,
}

impl Tally {
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    pub fn fail(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Records a finished job's scalar against its reference; returns
    /// whether it matched.
    pub fn check(&mut self, expect: &Expect, got: Option<f64>) -> bool {
        let good = got.is_some_and(|g| expect.accepts(g));
        if good {
            self.ok();
        } else {
            self.fail();
            self.wrong += 1;
        }
        good
    }

    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.wrong += o.wrong;
    }

    pub fn failed_frac(&self) -> f64 {
        crate::stats::ratio(self.failed as f64, self.attempted as f64)
    }
}

/// `E_MP2` of `programs/mp2.sial` (or `mp2_screened.sial` when `screened`)
/// at `nocc`/`nvrt` segments of `seg` orbitals:
/// `Σ t_iajb v_iajb` with `v_iajb = (ia|jb)`, `x_iajb = (ib|ja)` and
/// `t = (2v − x) / (ε_i + ε_j − ε_a − ε_b)`.
pub fn mp2_energy(nocc: usize, nvrt: usize, seg: usize, screened: bool) -> f64 {
    let f = if screened { eri_screened } else { eri };
    let (no, nv) = (nocc * seg, nvrt * seg);
    let eo: Vec<f64> = (0..no).map(|p| orbital_energy(p, no)).collect();
    let ev: Vec<f64> = (0..nv).map(|p| orbital_energy(p + no, no)).collect();
    let mut e = 0.0;
    for i in 0..no {
        for a in 0..nv {
            for j in 0..no {
                for b in 0..nv {
                    let v = f(i, a, j, b);
                    let x = f(i, b, j, a);
                    e += (2.0 * v - x) / (eo[i] + eo[j] - ev[a] - ev[b]) * v;
                }
            }
        }
    }
    e
}

/// `||R||²` of `programs/contraction.sial` at `norb`/`nocc` segments of
/// `seg`: `R(μν,ij) = Σ_λσ (μν|λσ) T(λσ,ij)` with `T(λσ,ij) = (λσ|ij)`.
/// The λσ sum runs four μν rows at a time so each `T` row is read once
/// per four rows.
pub fn contraction_rnorm(norb: usize, nocc: usize, seg: usize) -> f64 {
    let (nao, no) = (norb * seg, nocc * seg);
    let (nls, nij) = (nao * nao, no * no);
    let mut t = vec![0.0; nls * nij];
    for l in 0..nao {
        for s in 0..nao {
            for i in 0..no {
                for j in 0..no {
                    t[(l * nao + s) * nij + i * no + j] = eri(l, s, i, j);
                }
            }
        }
    }
    const ROWS: usize = 4;
    let mut v = vec![0.0; ROWS * nls];
    let mut r = vec![0.0; ROWS * nij];
    let mut total = 0.0;
    let rows: Vec<(usize, usize)> = (0..nao)
        .flat_map(|m| (0..nao).map(move |n| (m, n)))
        .collect();
    for chunk in rows.chunks(ROWS) {
        for (q, &(m, n)) in chunk.iter().enumerate() {
            for l in 0..nao {
                for s in 0..nao {
                    v[q * nls + l * nao + s] = eri(m, n, l, s);
                }
            }
        }
        r.iter_mut().for_each(|x| *x = 0.0);
        for ls in 0..nls {
            let trow = &t[ls * nij..(ls + 1) * nij];
            for q in 0..chunk.len() {
                let c = v[q * nls + ls];
                for (acc, &tv) in r[q * nij..(q + 1) * nij].iter_mut().zip(trow) {
                    *acc += c * tv;
                }
            }
        }
        total += r[..chunk.len() * nij].iter().map(|x| x * x).sum::<f64>();
    }
    total
}

/// The oracle's self-test: a result perturbed just outside its tolerance
/// (by a seed-chosen factor) must be rejected and counted as a failed job,
/// while the exact result is accepted. Returns a description of the first
/// violated expectation.
pub fn self_test(seed: u64) -> Result<(), String> {
    let mut rng = crate::Rng::new(seed);
    for expect in [
        Expect {
            value: mp2_energy(1, 2, 4, false),
            tol: DENSE,
        },
        Expect {
            value: mp2_energy(1, 2, 4, true),
            tol: SCREENED,
        },
    ] {
        let bound = match expect.tol {
            Tolerance::Relative(r) => r * expect.value.abs(),
            Tolerance::Absolute(a) => a,
        };
        let sign = if rng.next_f64() < 0.5 { -1.0 } else { 1.0 };
        let perturbed = expect.value + sign * bound * (2.0 + 8.0 * rng.next_f64());
        let mut tally = Tally::default();
        if !tally.check(&expect, Some(expect.value)) {
            return Err(format!("exact result {} rejected", expect.value));
        }
        if tally.check(&expect, Some(perturbed)) {
            return Err(format!(
                "perturbed result {perturbed} accepted against {}",
                expect.value
            ));
        }
        if tally.check(&expect, None) {
            return Err("a missing result was accepted".into());
        }
        if tally.failed_frac() != 2.0 / 3.0 {
            return Err(format!(
                "failed_frac {} after 1 good + 2 bad jobs",
                tally.failed_frac()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_test_passes_for_many_seeds() {
        for seed in 0..64 {
            self_test(seed).unwrap();
        }
    }

    #[test]
    fn contraction_matches_naive_sum() {
        let (nao, no) = (4, 2);
        let mut want = 0.0;
        for m in 0..nao {
            for n in 0..nao {
                for i in 0..no {
                    for j in 0..no {
                        let mut r = 0.0;
                        for l in 0..nao {
                            for s in 0..nao {
                                r += eri(m, n, l, s) * eri(l, s, i, j);
                            }
                        }
                        want += r * r;
                    }
                }
            }
        }
        let got = contraction_rnorm(2, 1, 2);
        assert!((got - want).abs() <= 1e-12 * want, "{got} vs {want}");
    }

    #[test]
    fn screened_mp2_is_close_to_but_not_dense_mp2() {
        let dense = mp2_energy(1, 2, 4, false);
        let screened = mp2_energy(1, 2, 4, true);
        assert!(dense.is_finite() && screened.is_finite());
        assert_ne!(dense, screened);
    }
}
