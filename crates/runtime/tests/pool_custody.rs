//! The worker's block pool is the one source of block payload storage, and
//! its accounting follows custody: blocks that leave the worker (puts, home
//! and local inserts) stop counting against `pool_bytes`, and copy-on-write
//! copies land in the pool without ever changing another holder's data.

use sia_bytecode::ConstBindings;
use sia_runtime::{SegmentConfig, Sip, SipConfig};

fn bindings(pairs: &[(&str, i64)]) -> ConstBindings {
    pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
}

fn config(workers: usize, seg: usize) -> SipConfig {
    SipConfig::builder()
        .workers(workers)
        .segments(SegmentConfig {
            default: seg,
            ..Default::default()
        })
        .cache_blocks(2)
        .collect_distributed(true)
        .build()
        .unwrap()
}

/// Every iteration fills a temp, permutes it into a second temp (pooled
/// storage) and accumulate-puts that into a distributed block.
const PERMUTED_PUTS_SRC: &str = r#"
sial permuted_puts
aoindex i = 1, n
aoindex j = 1, n
aoindex k = 1, m
distributed D(i,j)
temp t(j,i)
temp u(i,j)
pardo i, j
  do k
    t(j,i) = k
    u(i,j) = t(j,i)
    put D(i,j) += u(i,j)
  enddo k
endpardo i, j
sip_barrier
endsial
"#;

#[test]
fn permuted_puts_many_times_the_pool_complete() {
    let (n, m, seg) = (2i64, 32i64, 32usize);
    let block_bytes = (seg * seg * 8) as u64;
    let binds = bindings(&[("n", n), ("m", m)]);
    let program = sial_frontend::compile(PERMUTED_PUTS_SRC).unwrap();
    for workers in [1, 2] {
        let probe = Sip::new(config(workers, seg));
        let estimate = probe.dry_run(program.clone(), &binds).unwrap();
        // The smallest pool the dry run accepts, with a block to spare.
        let pool_bytes = estimate.per_worker_bytes + block_bytes;
        let put_bytes = (n * n * m) as u64 * block_bytes;
        assert!(put_bytes >= 8 * pool_bytes / workers as u64);
        let mut cfg = config(workers, seg);
        cfg.pool_bytes = pool_bytes as usize;
        let out = Sip::new(cfg)
            .run(program.clone(), &binds)
            .unwrap_or_else(|e| panic!("{workers} workers: {e}"));
        let want = (m * (m + 1) / 2) as f64;
        for i in 1..=n {
            for j in 1..=n {
                let b = &out.collected["D"][&vec![i, j]];
                assert!(b.data().iter().all(|&v| v == want), "D({i},{j})");
            }
        }
    }
}

/// `u = X` shares the home (or cached) block; `u *= 3` must copy it into
/// the pool before scaling, and `u += X` then finds `u` unique.
const COW_SRC: &str = r#"
sial cow
aoindex i = 1, n
aoindex j = 1, n
distributed X(i,j)
distributed Y(i,j)
temp t(i,j)
temp u(i,j)
pardo i, j
  t(i,j) = i + 10.0 * j
  put X(i,j) = t(i,j)
endpardo i, j
sip_barrier
pardo i, j
  get X(i,j)
  u(i,j) = X(i,j)
  u(i,j) *= 3.0
  u(i,j) += X(i,j)
  put Y(i,j) = u(i,j)
endpardo i, j
sip_barrier
endsial
"#;

#[test]
fn copy_on_write_never_changes_the_other_holder() {
    let n = 4i64;
    let seg = 4usize;
    let program = sial_frontend::compile(COW_SRC).unwrap();
    for workers in [1, 2, 3] {
        let out = Sip::new(config(workers, seg))
            .run(program.clone(), &bindings(&[("n", n)]))
            .unwrap();
        for i in 1..=n {
            for j in 1..=n {
                let x = (i + 10 * j) as f64;
                let key = vec![i, j];
                assert!(out.collected["X"][&key].data().iter().all(|&v| v == x));
                assert!(out.collected["Y"][&key]
                    .data()
                    .iter()
                    .all(|&v| v == 4.0 * x));
            }
        }
        let m = &out.profile.metrics.memory;
        let blocks = (n * n) as u64;
        assert_eq!(m.deep_copies, blocks, "one copy per `*=`: {m:?}");
        assert_eq!(m.bytes_deep_copied, blocks * (seg * seg * 8) as u64);
    }
}
