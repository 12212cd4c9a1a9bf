//! Fault-tolerance state and the epoch-checkpoint file format.
//!
//! All of this is live only when [`SipConfig::fault`](crate::SipConfig) is
//! set; a fault-free run never allocates an [`FtState`] and keeps the exact
//! counter-based ack tracking of the original hot path.
//!
//! The recovery protocol (see DESIGN.md "Fault model & recovery"):
//!
//! * Every PUT/PREPARE carries a content-derived [`OpId`]; receivers keep a
//!   window of applied ids and suppress duplicates, which makes sender
//!   retries, fabric duplication, *and* chunk re-execution idempotent.
//! * Senders retain tracked operations (payload included) until acked, and
//!   retry with exponential backoff.
//! * Each worker checkpoints its authoritative distributed blocks (plus the
//!   applied-op window) to `run_dir` at every `sip_barrier` release; when
//!   the master declares a rank dead it restores that rank's last
//!   checkpoint to the surviving homes, broadcasts the death, and survivors
//!   replay their current-epoch put journals that were homed at the corpse.

use crate::layout::FaultConfig;
use crate::msg::{BlockKey, OpId, SipMsg};
use sia_blocks::{Block, BlockHandle, Shape};
use sia_bytecode::{ArrayId, PutMode};
use sia_fabric::ReqId;
use std::collections::{HashMap, VecDeque};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// How long an unacknowledged GET/REQUEST/PUT/PREPARE waits before its
/// first retry (tuned for in-process fabrics: tens of milliseconds).
pub(crate) const RETRY_TIMEOUT: Duration = Duration::from_millis(40);
/// Multiplier applied to the timeout after each retry.
pub(crate) const RETRY_BACKOFF: f64 = 2.0;
/// Retries before an operation fails with a `Comm { Timeout }` error.
pub(crate) const MAX_RETRIES: u32 = 8;
/// How often workers beacon a heartbeat to the master.
pub(crate) const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(10);
/// Silence span after which the master declares a worker dead.
pub(crate) const LIVENESS_TIMEOUT: Duration = Duration::from_millis(300);

/// A tracked, unacknowledged PUT or PREPARE. The payload is retained so the
/// operation can be retried (or re-routed to a new home) verbatim; the
/// handle shares the wire message's allocation, so retention is free.
#[derive(Debug, Clone)]
pub(crate) struct PendingOp {
    pub key: BlockKey,
    pub data: BlockHandle,
    pub mode: PutMode,
    /// True for PREPARE (served, homed at an I/O server), false for PUT.
    pub served: bool,
    pub sent_at: Instant,
    /// Current timeout (grows by the backoff factor per retry).
    pub timeout: Duration,
    pub attempts: u32,
}

/// A tracked, unanswered GET or REQUEST.
#[derive(Debug, Clone)]
pub(crate) struct FetchState {
    pub req: ReqId,
    /// True for REQUEST (served), false for GET (distributed).
    pub served: bool,
    pub sent_at: Instant,
    pub timeout: Duration,
    pub attempts: u32,
}

/// A journaled remote put (replayed to the new home if the old home dies
/// within the current barrier epoch).
#[derive(Debug, Clone)]
pub(crate) struct JournalEntry {
    pub op: u64,
    pub key: BlockKey,
    pub data: BlockHandle,
    pub mode: PutMode,
}

/// A re-queued chunk handed to a worker already parked at the post-pardo
/// barrier.
#[derive(Debug)]
pub(crate) struct TakeoverChunk {
    pub pardo_pc: u32,
    pub epoch: u64,
    pub chunk: u64,
    pub iters: Vec<Vec<i64>>,
}

/// Per-worker fault-tolerance state (absent on fault-free runs).
#[derive(Debug)]
pub(crate) struct FtState {
    pub cfg: FaultConfig,
    /// Unacknowledged tracked operations, keyed by op id.
    pub pending: HashMap<u64, PendingOp>,
    /// Remote distributed puts of the current barrier epoch (cleared at
    /// `sip_barrier` release). Only kept when a crash is expected.
    pub journal: Vec<JournalEntry>,
    /// Op ids applied at this rank (home side), tagged with the barrier
    /// epoch they arrived in; pruned two epochs back.
    pub applied: HashMap<u64, u64>,
    /// Unanswered fetches by block key.
    pub fetches: HashMap<BlockKey, FetchState>,
    /// Dead workers by worker index (agreed via `RankDead` broadcasts).
    pub dead: Vec<bool>,
    /// Last heartbeat sent to the master.
    pub last_beat: Instant,
    /// Chunk-ack accounting: chunks execute FIFO, so the head entry is the
    /// chunk the next completed iteration belongs to.
    pub chunk_acks: VecDeque<(u64, usize)>,
    /// Re-queued chunks received while parked at a barrier.
    pub takeovers: VecDeque<TakeoverChunk>,
    /// This worker executed its scheduled crash.
    pub crashed: bool,
    /// A takeover chunk is being executed (puts count as pardo-context for
    /// op-id derivation even though `Worker::pardo` is `None`).
    pub in_takeover: bool,
}

impl FtState {
    pub(crate) fn new(cfg: FaultConfig, workers: usize) -> Self {
        FtState {
            cfg,
            pending: HashMap::new(),
            journal: Vec::new(),
            applied: HashMap::new(),
            fetches: HashMap::new(),
            dead: vec![false; workers],
            last_beat: Instant::now(),
            chunk_acks: VecDeque::new(),
            takeovers: VecDeque::new(),
            crashed: false,
            in_takeover: false,
        }
    }

    /// Records an applied op id; returns false when it was already applied
    /// (i.e. this is a duplicate to suppress).
    pub(crate) fn note_applied(&mut self, op: u64, epoch: u64) -> bool {
        self.applied.insert(op, epoch).is_none()
    }

    /// Drops applied-op records old enough that no retry or replay can
    /// still reference them (journals clear at each barrier, so anything
    /// two epochs back is unreachable).
    pub(crate) fn prune_applied(&mut self, current_epoch: u64) {
        self.applied.retain(|_, e| *e + 2 > current_epoch);
    }

    /// Arms (or re-arms) a tracked PUT/PREPARE flight and returns the wire
    /// message to send. This is the single construction point for flights:
    /// first sends, journal replays after a rank death, and the fault-free
    /// path (via [`flight_msg`]) all build the same shape. The retained
    /// pending payload and the wire payload share one allocation. `epoch`
    /// is the sender's barrier epoch, stamped on PUTs.
    pub(crate) fn arm_flight(
        &mut self,
        op: OpId,
        key: BlockKey,
        data: BlockHandle,
        mode: PutMode,
        served: bool,
        epoch: u64,
    ) -> SipMsg {
        self.pending.insert(
            op.0,
            PendingOp {
                key,
                data: data.clone(),
                mode,
                served,
                sent_at: Instant::now(),
                timeout: RETRY_TIMEOUT,
                attempts: 0,
            },
        );
        flight_msg(op, key, data, mode, served, epoch)
    }
}

/// Builds the wire message for a PUT (distributed home, stamped with the
/// sender's barrier `epoch`) or PREPARE (served, I/O server) flight.
pub(crate) fn flight_msg(
    op: OpId,
    key: BlockKey,
    data: BlockHandle,
    mode: PutMode,
    served: bool,
    epoch: u64,
) -> SipMsg {
    if served {
        SipMsg::PrepareBlock {
            key,
            data,
            mode,
            op,
        }
    } else {
        SipMsg::PutBlock {
            key,
            data,
            mode,
            op,
            epoch: Some(epoch),
        }
    }
}

/// Derives a content-based op id: FNV-1a over the instruction pc, the
/// barrier epoch, the destination key, the full index environment, and a
/// per-iteration sequence number (disambiguating two textually identical
/// puts executed under the same environment, e.g. a procedure called
/// twice). Outside pardos (SPMD execution) the worker index is mixed in so
/// each worker's accumulate counts once; inside pardos (and takeover
/// replays) it is *not*, so a re-executed iteration reproduces the same id
/// on any worker.
pub(crate) fn derive_op_id(
    pc: u32,
    epoch: u64,
    key: &BlockKey,
    env: &[i64],
    seq: u64,
    spmd_worker: Option<usize>,
) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        h ^= v;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    mix(pc as u64);
    mix(epoch);
    mix(key.array.0 as u64);
    for &s in key.segs() {
        mix(s as u64);
    }
    for &v in env {
        mix(v as u64);
    }
    mix(seq);
    if let Some(w) = spmd_worker {
        mix(0x5350_4d44); // "SPMD" tag keeps pardo/non-pardo ids disjoint
        mix(w as u64);
    }
    if h == 0 {
        h = 1; // 0 is the untracked sentinel
    }
    h
}

// ---- epoch checkpoint files -------------------------------------------------

const EPOCH_MAGIC: &[u8; 8] = b"SIAEPCK1";

/// Path of worker `widx`'s epoch checkpoint inside `run_dir`.
pub(crate) fn epoch_ckpt_path(run_dir: &Path, widx: usize) -> PathBuf {
    run_dir.join(format!("ftckpt_w{widx}.bin"))
}

/// Writes a worker's epoch checkpoint: its authoritative distributed blocks
/// plus the applied-op window, atomically (tmp + rename) so a reader only
/// ever sees a complete epoch. The snapshot handles share the authoritative
/// store's allocations — no block is copied to be checkpointed.
pub(crate) fn write_epoch_checkpoint(
    path: &Path,
    epoch: u64,
    blocks: &[(BlockKey, BlockHandle)],
    applied: &HashMap<u64, u64>,
) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
        f.write_all(EPOCH_MAGIC)?;
        f.write_all(&epoch.to_le_bytes())?;
        f.write_all(&(blocks.len() as u64).to_le_bytes())?;
        for (key, block) in blocks {
            f.write_all(&key.array.0.to_le_bytes())?;
            f.write_all(&[key.rank])?;
            for s in key.segs() {
                f.write_all(&s.to_le_bytes())?;
            }
            let dims = block.shape().dims();
            f.write_all(&(dims.len() as u32).to_le_bytes())?;
            for &d in dims {
                f.write_all(&(d as u64).to_le_bytes())?;
            }
            for &v in block.data() {
                f.write_all(&v.to_le_bytes())?;
            }
        }
        f.write_all(&(applied.len() as u64).to_le_bytes())?;
        for (&op, &ep) in applied {
            f.write_all(&op.to_le_bytes())?;
            f.write_all(&ep.to_le_bytes())?;
        }
        f.flush()?;
    }
    std::fs::rename(&tmp, path)
}

/// Reads an epoch checkpoint back. Returns `(epoch, blocks, applied ops)`.
#[allow(clippy::type_complexity)]
pub(crate) fn read_epoch_checkpoint(
    path: &Path,
) -> std::io::Result<(u64, Vec<(BlockKey, Block)>, Vec<u64>)> {
    let mut f = std::io::BufReader::new(std::fs::File::open(path)?);
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let mut magic = [0u8; 8];
    f.read_exact(&mut magic)?;
    if &magic != EPOCH_MAGIC {
        return Err(bad("bad epoch checkpoint magic"));
    }
    let mut u64buf = [0u8; 8];
    f.read_exact(&mut u64buf)?;
    let epoch = u64::from_le_bytes(u64buf);
    f.read_exact(&mut u64buf)?;
    let nblocks = u64::from_le_bytes(u64buf) as usize;
    let mut blocks = Vec::with_capacity(nblocks);
    for _ in 0..nblocks {
        let mut u32buf = [0u8; 4];
        f.read_exact(&mut u32buf)?;
        let array = ArrayId(u32::from_le_bytes(u32buf));
        let mut rank = [0u8; 1];
        f.read_exact(&mut rank)?;
        let rank = rank[0] as usize;
        if rank > 8 {
            return Err(bad("block rank > 8"));
        }
        let mut segs = Vec::with_capacity(rank);
        for _ in 0..rank {
            f.read_exact(&mut u32buf)?;
            segs.push(i32::from_le_bytes(u32buf) as i64);
        }
        let key = BlockKey::new(array, &segs);
        f.read_exact(&mut u32buf)?;
        let ndims = u32::from_le_bytes(u32buf) as usize;
        if ndims > 8 {
            return Err(bad("block dims > 8"));
        }
        let mut dims = Vec::with_capacity(ndims);
        for _ in 0..ndims {
            f.read_exact(&mut u64buf)?;
            dims.push(u64::from_le_bytes(u64buf) as usize);
        }
        let shape = Shape::new(&dims);
        let mut block = Block::zeros(shape);
        for v in block.data_mut() {
            f.read_exact(&mut u64buf)?;
            *v = f64::from_le_bytes(u64buf);
        }
        blocks.push((key, block));
    }
    f.read_exact(&mut u64buf)?;
    let nops = u64::from_le_bytes(u64buf) as usize;
    let mut ops = Vec::with_capacity(nops);
    for _ in 0..nops {
        f.read_exact(&mut u64buf)?;
        ops.push(u64::from_le_bytes(u64buf));
        f.read_exact(&mut u64buf)?; // epoch tag, not needed by the restorer
    }
    Ok((epoch, blocks, ops))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_id_stable_and_context_sensitive() {
        let key = BlockKey::new(ArrayId(2), &[1, 3]);
        let env = [1, 3, 0, 2];
        let a = derive_op_id(10, 1, &key, &env, 0, None);
        let b = derive_op_id(10, 1, &key, &env, 0, None);
        assert_eq!(a, b, "same context must reproduce the id");
        assert_ne!(a, 0);
        assert_ne!(a, derive_op_id(11, 1, &key, &env, 0, None), "pc matters");
        assert_ne!(a, derive_op_id(10, 2, &key, &env, 0, None), "epoch matters");
        assert_ne!(
            a,
            derive_op_id(10, 1, &key, &env, 1, None),
            "occurrence sequence matters"
        );
        assert_ne!(
            a,
            derive_op_id(10, 1, &key, &[1, 3, 0, 9], 0, None),
            "index env matters"
        );
        let w0 = derive_op_id(10, 1, &key, &env, 0, Some(0));
        let w1 = derive_op_id(10, 1, &key, &env, 0, Some(1));
        assert_ne!(w0, w1, "SPMD puts must count once per worker");
        assert_ne!(a, w0, "pardo and SPMD ids must not collide");
    }

    #[test]
    fn epoch_checkpoint_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sia-ft-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = epoch_ckpt_path(&dir, 1);
        let key = BlockKey::new(ArrayId(4), &[2, 1]);
        let mut block = Block::zeros(Shape::new(&[2, 3]));
        for (i, v) in block.data_mut().iter_mut().enumerate() {
            *v = i as f64 * 0.5;
        }
        let mut applied = HashMap::new();
        applied.insert(77u64, 3u64);
        applied.insert(99u64, 3u64);
        write_epoch_checkpoint(&path, 3, &[(key, block.clone().into())], &applied).unwrap();
        let (epoch, blocks, ops) = read_epoch_checkpoint(&path).unwrap();
        assert_eq!(epoch, 3);
        assert_eq!(blocks.len(), 1);
        assert_eq!(blocks[0].0, key);
        assert_eq!(blocks[0].1.data(), block.data());
        let mut ops = ops;
        ops.sort_unstable();
        assert_eq!(ops, vec![77, 99]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
