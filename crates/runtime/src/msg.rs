//! The SIP wire protocol: messages exchanged between master, workers, and
//! I/O servers over the fabric.

use sia_blocks::BlockHandle;
use sia_bytecode::{ArrayId, PutMode};
use sia_fabric::{Message, Rank, ReqId};

/// Identifies one side-effecting operation (a PUT or PREPARE) so receivers
/// can suppress duplicates from retries, fabric-level duplication, or chunk
/// re-execution after a rank failure.
///
/// Ids are *content-derived* (instruction pc, index environment, epoch), not
/// allocated: a re-executed pardo iteration produces the same id on a
/// different worker, which is exactly what makes re-queueing chunks after a
/// crash idempotent. `OpId::NONE` marks untracked operations.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct OpId(pub u64);

impl OpId {
    /// The "untracked" sentinel.
    pub const NONE: OpId = OpId(0);

    /// True when the operation carries a real id.
    pub fn is_tracked(&self) -> bool {
        self.0 != 0
    }
}

impl std::fmt::Debug for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op{:x}", self.0)
    }
}

/// Identifies one block of one array by its segment numbers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockKey {
    /// The array.
    pub array: ArrayId,
    /// Segment number per dimension (1-based), padded with 0.
    pub segs: [i32; 8],
    /// Number of meaningful entries in `segs`.
    pub rank: u8,
}

impl BlockKey {
    /// Builds a key from a slice of segment numbers.
    pub fn new(array: ArrayId, segs: &[i64]) -> Self {
        assert!(segs.len() <= 8, "rank too large");
        let mut s = [0i32; 8];
        for (i, &v) in segs.iter().enumerate() {
            s[i] = v as i32;
        }
        BlockKey {
            array,
            segs: s,
            rank: segs.len() as u8,
        }
    }

    /// The meaningful segment numbers.
    pub fn segs(&self) -> &[i32] {
        &self.segs[..self.rank as usize]
    }

    /// A stable small hash used for home placement (the "simple, static
    /// strategy" of §V-B). FNV-1a over array id and segments.
    pub fn placement_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        mix(self.array.0 as u64);
        for &s in self.segs() {
            mix(s as u64);
        }
        h
    }
}

impl std::fmt::Debug for BlockKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "B{}{:?}", self.array.0, self.segs())
    }
}

/// Which barrier a coordination message refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BarrierKind {
    /// `sip_barrier` — distributed arrays.
    Sip,
    /// `server_barrier` — served arrays.
    Server,
}

/// One SIP protocol message.
#[derive(Debug, Clone)]
pub enum SipMsg {
    // ---- scheduling (worker <-> master) ------------------------------------
    /// Worker asks for a chunk of pardo iterations.
    ChunkRequest {
        /// Pc of the `PardoStart`.
        pardo_pc: u32,
        /// Which encounter of this pardo (a pardo inside a `do` loop runs
        /// once per outer iteration; every encounter gets a fresh iteration
        /// space).
        epoch: u64,
    },
    /// Master assigns a chunk of iterations (index values per iteration).
    ChunkAssign {
        /// Pc of the `PardoStart`.
        pardo_pc: u32,
        /// The encounter this chunk belongs to.
        epoch: u64,
        /// Chunk id within this (pardo, epoch), acknowledged by `ChunkDone`.
        chunk: u64,
        /// Each iteration's value per pardo index.
        iters: Vec<Vec<i64>>,
    },
    /// Master: the pardo's iteration space is exhausted.
    NoMoreChunks {
        /// Pc of the `PardoStart`.
        pardo_pc: u32,
        /// The encounter that is exhausted.
        epoch: u64,
    },
    /// Worker acknowledges completion of an assigned chunk (sent under fault
    /// tolerance so the master can re-queue work lost with a dead rank).
    ChunkDone {
        /// Pc of the `PardoStart`.
        pardo_pc: u32,
        /// The encounter the chunk belonged to.
        epoch: u64,
        /// The chunk id from `ChunkAssign`/`Takeover`.
        chunk: u64,
    },
    /// Master hands a re-queued chunk to a worker already parked at the
    /// barrier after the pardo (recovery path).
    Takeover {
        /// Pc of the `PardoStart`.
        pardo_pc: u32,
        /// The encounter the chunk belonged to.
        epoch: u64,
        /// Chunk id, acknowledged by `ChunkDone`.
        chunk: u64,
        /// Each iteration's value per pardo index.
        iters: Vec<Vec<i64>>,
    },

    // ---- block traffic (worker <-> worker / io server) ----------------------
    /// Fetch a distributed block from its home.
    GetBlock {
        /// The block wanted.
        key: BlockKey,
        /// Correlates the `BlockData` reply.
        req: ReqId,
        /// The sender's `sip_barrier` epoch (the home's barrier-misuse
        /// check compares it with the epochs of Replace-puts).
        epoch: u64,
    },
    /// A block in flight (reply to `GetBlock`/`RequestBlock`). The payload
    /// is a shared handle: in-process delivery (and fault-injection
    /// duplication) costs a reference-count bump, not a copy.
    BlockData {
        /// The block's identity.
        key: BlockKey,
        /// Its contents (shared with the sender's store).
        data: BlockHandle,
        /// The request this answers (`ReqId::NONE` for unsolicited pushes).
        req: ReqId,
    },
    /// Store (or accumulate into) a distributed block at its home.
    PutBlock {
        /// Destination block.
        key: BlockKey,
        /// Payload (shared with the sender's retry/journal state).
        data: BlockHandle,
        /// Replace or accumulate.
        mode: PutMode,
        /// Duplicate-suppression id (`OpId::NONE` when untracked).
        op: OpId,
        /// The sender's `sip_barrier` epoch; `None` for checkpoint restores,
        /// which take no part in the barrier-misuse check.
        epoch: Option<u64>,
    },
    /// Home acknowledges a `PutBlock` (workers drain acks before barriers).
    PutAck {
        /// The block acknowledged.
        key: BlockKey,
        /// The operation acknowledged.
        op: OpId,
    },
    /// Fetch a served block from its I/O server.
    RequestBlock {
        /// The block wanted.
        key: BlockKey,
        /// Correlates the `BlockData` reply.
        req: ReqId,
    },
    /// Store (or accumulate into) a served block at its I/O server.
    PrepareBlock {
        /// Destination block.
        key: BlockKey,
        /// Payload (shared with the sender's retry state).
        data: BlockHandle,
        /// Replace or accumulate.
        mode: PutMode,
        /// Duplicate-suppression id (`OpId::NONE` when untracked).
        op: OpId,
    },
    /// I/O server acknowledges a `PrepareBlock`.
    PrepareAck {
        /// The block acknowledged.
        key: BlockKey,
        /// The operation acknowledged.
        op: OpId,
    },
    /// Reply to `GetBlock`/`RequestBlock` when a sparse array's block is
    /// absent (exactly zero). Only the norm bound travels — the fabric never
    /// ships an absent block's payload.
    BlockAbsent {
        /// The block's identity.
        key: BlockKey,
        /// Frobenius-norm bound of the dropped payload (0.0 if never
        /// written).
        norm: f64,
        /// The request this answers (`ReqId::NONE` for unsolicited pushes).
        req: ReqId,
    },
    /// Store an *absent* sparse block at its home (distributed) or I/O
    /// server (served): the payload's Frobenius norm fell under the
    /// screening threshold and was dropped at the sender. Acknowledged by
    /// `PutAck` / `PrepareAck` like its dense counterpart.
    PutAbsent {
        /// Destination block.
        key: BlockKey,
        /// Frobenius norm of the dropped payload (the screening bound).
        norm: f64,
        /// Replace or accumulate semantics of the original store.
        mode: PutMode,
        /// Duplicate-suppression id (`OpId::NONE` when untracked).
        op: OpId,
        /// The sender's `sip_barrier` epoch, as on `PutBlock`.
        epoch: Option<u64>,
    },
    /// Delete all blocks of an array (distributed at homes, served at I/O
    /// servers).
    DeleteArray {
        /// The array dropped.
        array: ArrayId,
    },
    /// One hop of a planner-scheduled tree multicast: the home pushes a
    /// broadcast-shaped operand's block down a binary tree of workers
    /// instead of answering per-rank GETs. Receivers at tree position `pos`
    /// forward to positions `2·pos+1` and `2·pos+2` (positions are rotated
    /// so the home is the root). Best-effort: a dropped hop degrades to the
    /// demand `GetBlock` path, so no retry state is kept.
    MulticastBlock {
        /// The block's identity.
        key: BlockKey,
        /// Its contents (shared with the home's store).
        data: BlockHandle,
        /// The sender's distributed-array epoch; receivers in a different
        /// epoch drop the push (their cache was invalidated since).
        epoch: u64,
        /// This receiver's position in the multicast tree.
        pos: u32,
        /// Flight id correlating the trace events of one block's tree.
        flight: u64,
    },
    /// The typed-absent hop of a tree multicast: a sparse broadcast-shaped
    /// block with no payload at the home travels the same tree as a
    /// lightweight norm record, so consumers learn absence without a
    /// point-to-point GET round trip each. Same best-effort contract as
    /// [`SipMsg::MulticastBlock`]: a dropped hop degrades to the demand
    /// path, which ships [`SipMsg::BlockAbsent`].
    MulticastAbsent {
        /// The block's identity.
        key: BlockKey,
        /// Frobenius-norm bound of the absent payload (0.0 if never
        /// written).
        norm: f64,
        /// The sender's distributed-array epoch; receivers in a different
        /// epoch drop the push.
        epoch: u64,
        /// This receiver's position in the multicast tree.
        pos: u32,
        /// Flight id correlating the trace events of one block's tree.
        flight: u64,
    },
    /// Several data-plane messages for one destination coalesced into a
    /// single fabric envelope ([`sia_fabric::Endpoint::stage`]); per-message
    /// OpId/ReqId dedup still applies after unbatching.
    Batch(Vec<SipMsg>),

    // ---- barriers -----------------------------------------------------------
    /// Worker entered a barrier.
    BarrierEnter {
        /// Which barrier.
        kind: BarrierKind,
    },
    /// Master releases a barrier.
    BarrierRelease {
        /// Which barrier.
        kind: BarrierKind,
    },

    // ---- collectives ----------------------------------------------------------
    /// Worker contributes to a scalar all-reduce (`execute sip_allreduce s`).
    ReduceContrib {
        /// Contribution.
        value: f64,
    },
    /// Master returns the reduced value.
    ReduceResult {
        /// The global sum.
        value: f64,
    },

    // ---- checkpointing ----------------------------------------------------------
    /// Worker ships one authoritative block for `blocks_to_list`.
    CkptBlock {
        /// Checkpoint label id (program string table).
        label: u32,
        /// The block's identity.
        key: BlockKey,
        /// Its contents (shared with the authoritative store).
        data: BlockHandle,
    },
    /// Worker finished shipping blocks for a checkpoint (or is ready to
    /// receive a restore).
    CkptDone {
        /// Checkpoint label id.
        label: u32,
        /// True for `list_to_blocks` (restore), false for `blocks_to_list`.
        restore: bool,
    },
    /// Master: checkpoint/restore completed; continue.
    CkptRelease {
        /// Checkpoint label id.
        label: u32,
    },

    // ---- fault tolerance ----------------------------------------------------
    /// Worker liveness beacon (sent periodically under fault tolerance).
    Heartbeat,
    /// Master declares a worker dead; survivors re-route its keys and replay
    /// their current-epoch puts that were homed there.
    RankDead {
        /// The dead worker's fabric rank.
        rank: Rank,
        /// Duplicate-suppression ids the dead rank had already applied (from
        /// its epoch checkpoint), inherited by the re-homed blocks so journal
        /// replay cannot double-apply accumulates.
        inherited_ops: Vec<u64>,
    },
    /// Master asks I/O servers to flush and write a consistency manifest for
    /// the served-array epoch ending at a server barrier.
    EpochMark {
        /// The completed-epoch count after this mark.
        epoch: u64,
    },
    /// I/O server acknowledges an `EpochMark` (manifest durable).
    EpochAck {
        /// The epoch acknowledged.
        epoch: u64,
    },

    // ---- lifecycle ------------------------------------------------------------
    /// Worker finished the program (carries its final scalars and, when
    /// collection is on, its authoritative distributed blocks).
    WorkerDone {
        /// Final scalar values.
        scalars: Vec<f64>,
        /// Collected blocks (empty unless `collect_distributed`).
        blocks: Vec<(BlockKey, BlockHandle)>,
        /// Serialized per-worker profile (boxed: it dwarfs every other
        /// variant and would bloat the whole message enum inline).
        profile: Box<crate::profile::WorkerProfile>,
        /// Diagnostics (e.g. barrier-misuse detections).
        warnings: Vec<String>,
    },
    /// Worker aborted with an error.
    WorkerFailed {
        /// The error message.
        error: String,
    },
    /// I/O server reports its counters (and, when tracing, its recorded
    /// events) to the master after receiving `Shutdown`.
    ServerDone {
        /// The server's lifetime counters.
        stats: crate::metrics::ServerStats,
        /// Recorded trace events (empty unless tracing).
        events: Vec<crate::events::TraceEvent>,
        /// Events lost to ring-buffer overwrite.
        dropped: u64,
    },
    /// Master tells everyone to exit their service loops.
    Shutdown,
}

impl Message for SipMsg {
    fn approx_bytes(&self) -> usize {
        let block_bytes = |b: &BlockHandle| b.len() * 8 + 32;
        match self {
            SipMsg::BlockData { data, .. }
            | SipMsg::PutBlock { data, .. }
            | SipMsg::PrepareBlock { data, .. }
            | SipMsg::MulticastBlock { data, .. }
            | SipMsg::CkptBlock { data, .. } => block_bytes(data),
            SipMsg::Batch(msgs) => 16 + msgs.iter().map(|m| m.approx_bytes()).sum::<usize>(),
            SipMsg::ChunkAssign { iters, .. } => {
                16 + iters.iter().map(|v| v.len() * 8).sum::<usize>()
            }
            SipMsg::WorkerDone {
                scalars, blocks, ..
            } => 16 + scalars.len() * 8 + blocks.iter().map(|(_, b)| block_bytes(b)).sum::<usize>(),
            SipMsg::RankDead { inherited_ops, .. } => 16 + inherited_ops.len() * 8,
            SipMsg::ServerDone { events, .. } => {
                64 + events.len() * std::mem::size_of::<crate::events::TraceEvent>()
            }
            _ => 32,
        }
    }

    /// Only data-plane traffic is faultable: block fetches, puts, prepares,
    /// and their acks. Control-plane messages (scheduling, barriers,
    /// collectives, lifecycle) ride a reliable channel, mirroring clusters
    /// whose management network is separate from the data interconnect.
    fn faultable(&self) -> bool {
        matches!(
            self,
            SipMsg::GetBlock { .. }
                | SipMsg::BlockData { .. }
                | SipMsg::PutBlock { .. }
                | SipMsg::PutAck { .. }
                | SipMsg::RequestBlock { .. }
                | SipMsg::PrepareBlock { .. }
                | SipMsg::PrepareAck { .. }
                | SipMsg::BlockAbsent { .. }
                | SipMsg::PutAbsent { .. }
                | SipMsg::MulticastBlock { .. }
                | SipMsg::MulticastAbsent { .. }
                | SipMsg::Batch(_)
        )
    }

    /// Duplicating a data-plane message is cheap: block payloads are
    /// `BlockHandle`s, so the duplicate shares the original's allocation.
    fn dup(&self) -> Option<Self> {
        Some(self.clone())
    }

    /// Only faultable (data-plane) messages may share a batch envelope:
    /// every part is individually retryable/dedupable above the fabric, so
    /// one whole-envelope fault verdict (drop the batch, duplicate the
    /// batch) is indistinguishable from that verdict on each part. A batch
    /// containing control-plane traffic would silently make it faultable —
    /// refuse, and let the fabric ship the messages individually.
    fn batch(msgs: Vec<Self>) -> Result<Self, Vec<Self>> {
        if msgs.iter().all(|m| m.faultable()) {
            Ok(SipMsg::Batch(msgs))
        } else {
            Err(msgs)
        }
    }

    fn unbatch(self) -> Result<Vec<Self>, Self> {
        match self {
            SipMsg::Batch(msgs) => Ok(msgs),
            other => Err(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sia_blocks::{Block, Shape};

    #[test]
    fn key_roundtrip() {
        let k = BlockKey::new(ArrayId(3), &[1, 2, 3, 4]);
        assert_eq!(k.segs(), &[1, 2, 3, 4]);
        assert_eq!(k.rank, 4);
    }

    #[test]
    fn placement_hash_distinguishes() {
        let a = BlockKey::new(ArrayId(0), &[1, 2]);
        let b = BlockKey::new(ArrayId(0), &[2, 1]);
        let c = BlockKey::new(ArrayId(1), &[1, 2]);
        assert_ne!(a.placement_hash(), b.placement_hash());
        assert_ne!(a.placement_hash(), c.placement_hash());
        // Deterministic.
        assert_eq!(
            a.placement_hash(),
            BlockKey::new(ArrayId(0), &[1, 2]).placement_hash()
        );
    }

    #[test]
    fn placement_hash_spreads() {
        // 1000 keys over 7 buckets: no bucket should be empty or hold more
        // than half the keys.
        let mut buckets = [0usize; 7];
        for i in 0..10 {
            for j in 0..10 {
                for k in 0..10 {
                    let key = BlockKey::new(ArrayId(0), &[i, j, k]);
                    buckets[(key.placement_hash() % 7) as usize] += 1;
                }
            }
        }
        for &b in &buckets {
            assert!(b > 0 && b < 500, "bad spread: {buckets:?}");
        }
    }

    #[test]
    fn message_sizes_scale_with_payload() {
        let small = SipMsg::BlockData {
            key: BlockKey::new(ArrayId(0), &[1]),
            data: Block::zeros(Shape::new(&[2])).into(),
            req: ReqId::NONE,
        };
        let big = SipMsg::BlockData {
            key: BlockKey::new(ArrayId(0), &[1]),
            data: Block::zeros(Shape::new(&[100])).into(),
            req: ReqId::NONE,
        };
        assert!(big.approx_bytes() > small.approx_bytes());
    }

    #[test]
    fn batch_accepts_data_plane_refuses_control_plane() {
        let data_msg = || SipMsg::PutAck {
            key: BlockKey::new(ArrayId(0), &[1]),
            op: OpId(7),
        };
        let batched = SipMsg::batch(vec![data_msg(), data_msg()]).expect("data plane batches");
        assert!(batched.faultable());
        let parts = batched.unbatch().expect("batch unbatches");
        assert_eq!(parts.len(), 2);
        // A control-plane message poisons the whole batch.
        let refused = SipMsg::batch(vec![data_msg(), SipMsg::Heartbeat]);
        assert!(refused.is_err());
        assert_eq!(refused.unwrap_err().len(), 2);
        // Non-batch messages refuse to unbatch.
        assert!(SipMsg::Heartbeat.unbatch().is_err());
    }

    #[test]
    fn batch_bytes_sum_parts() {
        let part = SipMsg::BlockData {
            key: BlockKey::new(ArrayId(0), &[1]),
            data: Block::zeros(Shape::new(&[100])).into(),
            req: ReqId::NONE,
        };
        let part_bytes = part.approx_bytes();
        let batched = SipMsg::batch(vec![part.clone(), part]).unwrap();
        assert!(batched.approx_bytes() >= 2 * part_bytes);
    }

    #[test]
    fn dup_shares_payload_allocation() {
        let data = BlockHandle::new(Block::zeros(Shape::new(&[64])));
        let msg = SipMsg::BlockData {
            key: BlockKey::new(ArrayId(0), &[1]),
            data: data.clone(),
            req: ReqId::NONE,
        };
        let dup = msg.dup().unwrap();
        match dup {
            SipMsg::BlockData { data: d, .. } => {
                assert!(BlockHandle::ptr_eq(&d, &data), "dup copied the payload")
            }
            other => panic!("{other:?}"),
        }
    }
}
