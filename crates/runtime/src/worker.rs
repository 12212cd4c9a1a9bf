//! Worker state and the asynchronous progress engine.
//!
//! Each worker "loops through the instruction table executing bytecode
//! instructions, periodically checking for messages and processing them"
//! (§V-B). This module holds the worker's stores (home blocks, cache,
//! temps, locals), its pardo machinery, outstanding-ack tracking, and the
//! message pump; the instruction dispatch lives in [`crate::interp`].

use crate::cache::{BlockGet, CacheEntry};
use crate::error::{CommKind, RuntimeError};
use crate::events::{CommOp, EventKind, RecoveryEvent, TraceSink};
use crate::ft::{self, FetchState, FtState, JournalEntry, TakeoverChunk};
use crate::layout::{Layout, SipConfig};
use crate::memory::BlockManager;
use crate::metrics::WaitCause;
use crate::msg::{BarrierKind, BlockKey, OpId, SipMsg};
use crate::plan::CommPlan;
use crate::profile::WorkerProfile;
use crate::registry::SuperRegistry;
use sia_blocks::{Block, BlockHandle, BlockPool, ContractCtx, Custody, PoolConfig};
use sia_bytecode::{ArrayId, ArrayKind, IndexId, PutMode};
use sia_fabric::{Endpoint, Rank, ReqId};
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Poll interval of service loops that are idle but must keep draining
/// messages (e.g. a finished worker serving GETs until shutdown).
const SERVICE_POLL: Duration = Duration::from_millis(1);
/// Poll interval while blocked on a specific event (block arrival, chunk
/// assignment, barrier release).
const WAIT_POLL: Duration = Duration::from_micros(200);

/// How a block access treats a non-resident block: issue the fetch and
/// return immediately (`get`/`request`/prefetch), or block until the data
/// is resident (operand reads).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fetch {
    NoWait,
    Wait,
}

/// An active sequential loop.
#[derive(Debug, Clone)]
pub(crate) struct LoopFrame {
    /// Pc of the `DoStart`/`DoInStart`.
    pub start_pc: u32,
    /// The loop index.
    pub index: IndexId,
    /// Current value.
    pub current: i64,
    /// Inclusive upper bound.
    pub high: i64,
}

/// Where a block the interpreter mutates is stored.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Slot {
    /// The live block of a temp array, in the worker's custody.
    Temp(ArrayId, BlockKey),
    /// A local/static block, in the block manager's custody.
    Local(BlockKey),
    /// A home block of a distributed array, in the block manager's custody.
    Home(BlockKey),
}

/// Which side of a barrier-separated access pair a home observed.
#[derive(Debug, Clone, Copy)]
enum Access {
    Read,
    Replace,
}

/// The in-progress pardo of a worker.
#[derive(Debug)]
pub(crate) struct PardoState {
    pub start_pc: u32,
    /// Which encounter of this pardo this is (increments every time the
    /// worker reaches the PardoStart).
    pub epoch: u64,
    pub end_pc: u32,
    pub indices: Vec<IndexId>,
    /// Assigned iterations not yet executed.
    pub queue: VecDeque<Vec<i64>>,
    /// A ChunkRequest is outstanding.
    pub requested: bool,
    /// Master said the space is exhausted.
    pub exhausted: bool,
}

/// One SIP worker.
pub struct Worker {
    pub(crate) layout: Arc<Layout>,
    pub(crate) config: SipConfig,
    pub(crate) endpoint: Endpoint<SipMsg>,
    pub(crate) registry: SuperRegistry,

    // ---- data state ----
    /// The unified block store: authoritative home blocks of distributed
    /// arrays, local/static blocks, and the byte-LRU cache of fetched
    /// remote copies — byte-accounted, budget-enforced.
    pub(crate) mem: BlockManager,
    /// One live block per temp array.
    pub(crate) temps: HashMap<ArrayId, (BlockKey, BlockHandle)>,
    /// Pool recycling temp-block storage.
    pub(crate) pool: BlockPool,
    /// Contraction context: scratch drawn from `pool`, the default
    /// (single-threaded, transpose-folding) GEMM set-up, plus hot-path
    /// counters that land in the profile.
    pub(crate) contract_ctx: ContractCtx,
    /// Named scalar values.
    pub(crate) scalars: Vec<f64>,
    /// Current index values (0 = undefined; segments are 1-based).
    pub(crate) env: Vec<i64>,

    // ---- control state ----
    pub(crate) loop_stack: Vec<LoopFrame>,
    pub(crate) call_stack: Vec<u32>,
    pub(crate) pardo: Option<PardoState>,
    /// Encounter counters per pardo pc.
    pub(crate) pardo_epochs: HashMap<u32, u64>,

    // ---- communication state ----
    pub(crate) outstanding_puts: u64,
    pub(crate) outstanding_prepares: u64,
    pub(crate) barrier_release: Option<BarrierKind>,
    pub(crate) reduce_result: Option<f64>,
    pub(crate) ckpt_released: HashSet<u32>,
    pub(crate) shutdown_seen: bool,

    // ---- fault tolerance ----
    /// Fault-tolerance state (`None` on fault-free runs — every hot path
    /// then keeps its original counter-based ack tracking).
    pub(crate) ft: Option<Box<FtState>>,
    /// Resolved run directory for epoch checkpoints (set by the runtime on
    /// fault-tolerant runs).
    pub(crate) run_dir: Option<PathBuf>,
    /// Completed served-array epochs a previous, interrupted run left in
    /// `run_dir`'s manifest (set by the runtime before the program starts;
    /// surfaced to programs via `execute sip_resume_epoch s`).
    pub(crate) resume_epoch: u64,
    /// Total pardo iterations executed (drives the deterministic crash
    /// schedule).
    pub(crate) pardo_iters_done: u64,
    /// Per-iteration op-id sequence (reset when an iteration binds, so a
    /// re-executed iteration reproduces its op ids).
    pub(crate) op_seq: u64,

    // ---- conflict detection ----
    /// Barrier epoch for distributed arrays. Every GET and PUT this worker
    /// sends carries it, so homes compare the senders' epochs.
    pub(crate) dist_epoch: u64,
    /// Sender epoch of the last Replace-put per block (home side).
    pub(crate) replace_epoch: HashMap<BlockKey, u64>,
    /// Sender epoch of the last get served per block (home side).
    pub(crate) serve_epoch: HashMap<BlockKey, u64>,

    // ---- reporting ----
    pub(crate) profile: WorkerProfile,
    pub(crate) warnings: Vec<String>,
    /// Worker start time (backs the `sip_time` intrinsic).
    pub(crate) started: Instant,

    // ---- communication plan ----
    /// The derived communication plan (an empty default unless the runtime
    /// installs one before the program starts). Drives the pardo-entry
    /// multicast push.
    pub(crate) plan: Arc<CommPlan>,
    /// Multicast forwards staged on the endpoint but not yet flushed (set
    /// while draining a batch so consecutive forwards coalesce).
    pub(crate) staged_forwards: bool,

    // ---- observability ----
    /// Event recorder (disabled — and allocation-free — unless the runtime
    /// installs an enabled sink before the program starts).
    pub(crate) trace: TraceSink,
    /// Issue time and request id of each in-flight GET/REQUEST, keyed by
    /// block. Always on: it backs the comm-overlap metric, at one map
    /// insert/remove per remote fetch.
    pub(crate) flights: HashMap<BlockKey, (Instant, u64)>,
    /// Issue times of tracked PUT/PREPARE flights by op id. Populated only
    /// while tracing, so it stays empty (and unallocated) otherwise.
    pub(crate) put_flights: HashMap<u64, Instant>,
}

impl Worker {
    /// Creates a worker bound to its fabric endpoint.
    pub fn new(
        layout: Arc<Layout>,
        config: SipConfig,
        endpoint: Endpoint<SipMsg>,
        registry: SuperRegistry,
    ) -> Self {
        let n_idx = layout.program.indices.len();
        let scalars = layout.program.scalars.iter().map(|s| s.init).collect();
        let pool = BlockPool::new(PoolConfig {
            max_bytes: config.pool_bytes,
        });
        let ft = config
            .fault
            .as_ref()
            .map(|f| Box::new(FtState::new(f.clone(), config.workers)));
        let run_dir = config.run_dir.clone();
        // Cache capacity in bytes, matching the dry run's sizing formula
        // (`cache_blocks × largest remote block`).
        let cache_bytes = (config.cache_blocks as u64 * layout.largest_remote_block_bytes()).max(1);
        Worker {
            mem: BlockManager::new(cache_bytes, config.memory_budget),
            contract_ctx: ContractCtx::with_pool(pool.clone()),
            pool,
            layout,
            config,
            endpoint,
            registry,
            temps: HashMap::new(),
            scalars,
            env: vec![0; n_idx],
            loop_stack: Vec::new(),
            call_stack: Vec::new(),
            pardo: None,
            pardo_epochs: HashMap::new(),
            outstanding_puts: 0,
            outstanding_prepares: 0,
            barrier_release: None,
            reduce_result: None,
            ckpt_released: HashSet::new(),
            shutdown_seen: false,
            ft,
            run_dir,
            resume_epoch: 0,
            pardo_iters_done: 0,
            op_seq: 0,
            dist_epoch: 0,
            replace_epoch: HashMap::new(),
            serve_epoch: HashMap::new(),
            profile: WorkerProfile::default(),
            warnings: Vec::new(),
            started: Instant::now(),
            plan: Arc::new(CommPlan::default()),
            staged_forwards: false,
            trace: TraceSink::disabled(),
            flights: HashMap::new(),
            put_flights: HashMap::new(),
        }
    }

    /// Installs the event sink (called by the runtime before the program
    /// starts) and, when it is live, turns on the cache's evict log.
    pub(crate) fn set_trace(&mut self, sink: TraceSink) {
        if sink.is_on() {
            self.mem.enable_evict_log();
        }
        self.trace = sink;
    }

    /// Installs the communication plan (called by the runtime before the
    /// program starts).
    pub(crate) fn set_plan(&mut self, plan: Arc<CommPlan>) {
        self.plan = plan;
    }

    /// This worker's 0-based index.
    pub fn worker_index(&self) -> usize {
        self.layout.topology.worker_index(self.endpoint.rank())
    }

    // ---- message pump ---------------------------------------------------------

    /// Drains the inbox, handling every pending message.
    pub(crate) fn service_messages(&mut self) {
        while let Some(env) = self.endpoint.try_recv() {
            self.handle(env.src, env.msg);
        }
        self.flush_forwards();
    }

    /// Ships any multicast forwards staged while draining the inbox (so
    /// forwards of several blocks to the same child coalesce into one
    /// envelope). A no-op unless something was staged.
    pub(crate) fn flush_forwards(&mut self) {
        if self.staged_forwards {
            self.staged_forwards = false;
            let _ = self.endpoint.flush();
        }
    }

    /// Keeps serving peers (gets/puts against blocks homed here) after this
    /// worker's program finished, until the master broadcasts shutdown.
    pub(crate) fn service_until_shutdown(&mut self) {
        loop {
            if self.shutdown_seen || self.endpoint.shutdown_raised() || self.endpoint.is_crashed() {
                return;
            }
            self.maybe_heartbeat();
            let _ = self.pump_retries();
            if let Some(env) = self.endpoint.recv_timeout(SERVICE_POLL) {
                let src = env.src;
                self.handle(src, env.msg);
                self.flush_forwards();
            }
        }
    }

    fn handle(&mut self, src: Rank, msg: SipMsg) {
        match msg {
            SipMsg::GetBlock { key, req, epoch } => {
                self.check_barrier_use(key, epoch, Access::Read);
                match self.mem.serve_home(&key) {
                    // Serve from the authoritative store; the reply shares
                    // the store's allocation (zero-copy).
                    Some(data) => {
                        let _ = self
                            .endpoint
                            .send(src, SipMsg::BlockData { key, data, req });
                    }
                    // A sparse array's missing block is typed-absent: ship
                    // the norm bound, never a zero payload.
                    None if self.layout.array_sparse(key.array) => {
                        let norm = self.mem.home_absent_norm(&key).unwrap_or(0.0);
                        let _ = self
                            .endpoint
                            .send(src, SipMsg::BlockAbsent { key, norm, req });
                    }
                    // Dense unfilled blocks read as zero ("blocks are
                    // allocated … only when actually filled"), which is what
                    // makes symmetric-array declarations cheap.
                    None => {
                        let shape = self.layout.declared_block_shape(key.array);
                        let data = BlockHandle::new(self.pool.acquire_stored(shape, true));
                        let _ = self
                            .endpoint
                            .send(src, SipMsg::BlockData { key, data, req });
                    }
                }
            }
            SipMsg::PutBlock {
                key,
                data,
                mode,
                op,
                epoch,
            } => {
                self.apply_put_deduped(key, data, mode, op, epoch);
                let _ = self.endpoint.send(src, SipMsg::PutAck { key, op });
            }
            SipMsg::PutAck { key, op } => {
                self.profile.metrics.comm.puts_acked += 1;
                self.finish_put_flight(op, key, CommOp::Put);
                match self.ft.as_mut() {
                    Some(ft) if op.is_tracked() => {
                        ft.pending.remove(&op.0);
                    }
                    _ => {
                        self.outstanding_puts = self.outstanding_puts.saturating_sub(1);
                    }
                }
            }
            SipMsg::PrepareAck { key, op } => {
                self.profile.metrics.comm.prepares_acked += 1;
                self.finish_put_flight(op, key, CommOp::Prepare);
                match self.ft.as_mut() {
                    Some(ft) if op.is_tracked() => {
                        ft.pending.remove(&op.0);
                    }
                    _ => {
                        self.outstanding_prepares = self.outstanding_prepares.saturating_sub(1);
                    }
                }
            }
            SipMsg::BlockData { key, data, .. } => {
                if let Some(ft) = self.ft.as_mut() {
                    ft.fetches.remove(&key);
                }
                if let Some((t0, id)) = self.flights.remove(&key) {
                    let flight_ns = t0.elapsed().as_nanos() as u64;
                    self.profile.metrics.comm.flight_nanos += flight_ns;
                    if self.trace.is_on() {
                        let end = self.trace.now_ns();
                        self.trace.span(
                            EventKind::Flight {
                                op: CommOp::Get,
                                key,
                                id,
                            },
                            end.saturating_sub(flight_ns),
                            end,
                        );
                        self.trace.instant(EventKind::CacheFill {
                            key,
                            bytes: data.heap_bytes(),
                        });
                    }
                }
                // The cache entry shares the envelope's allocation.
                self.mem.cache_fill(key, data);
                self.drain_evictions_into_trace();
            }
            SipMsg::BlockAbsent { key, norm, .. } => {
                // The typed-absent counterpart of BlockData: completes the
                // in-flight fetch with a norm bound instead of a payload.
                if let Some(ft) = self.ft.as_mut() {
                    ft.fetches.remove(&key);
                }
                if let Some((t0, id)) = self.flights.remove(&key) {
                    let flight_ns = t0.elapsed().as_nanos() as u64;
                    self.profile.metrics.comm.flight_nanos += flight_ns;
                    if self.trace.is_on() {
                        let end = self.trace.now_ns();
                        self.trace.span(
                            EventKind::Flight {
                                op: CommOp::Get,
                                key,
                                id,
                            },
                            end.saturating_sub(flight_ns),
                            end,
                        );
                    }
                }
                self.profile.metrics.sparse.bytes_not_shipped += self.layout.block_bytes(key.array);
                self.mem.cache_fill_absent(key, norm);
            }
            SipMsg::PutAbsent {
                key,
                norm,
                mode,
                op,
                epoch,
            } => {
                self.apply_absent_deduped(key, norm, mode, op, epoch);
                let _ = self.endpoint.send(src, SipMsg::PutAck { key, op });
            }
            SipMsg::ChunkAssign {
                pardo_pc,
                epoch,
                chunk,
                iters,
            } => {
                if let Some(p) = &mut self.pardo {
                    if p.start_pc == pardo_pc && p.epoch == epoch {
                        if let Some(ft) = self.ft.as_mut() {
                            ft.chunk_acks.push_back((chunk, iters.len()));
                        }
                        p.queue.extend(iters);
                        p.requested = false;
                    }
                }
            }
            SipMsg::Takeover {
                pardo_pc,
                epoch,
                chunk,
                iters,
            } => {
                if let Some(ft) = self.ft.as_mut() {
                    ft.takeovers.push_back(TakeoverChunk {
                        pardo_pc,
                        epoch,
                        chunk,
                        iters,
                    });
                }
            }
            SipMsg::RankDead {
                rank,
                inherited_ops,
            } => {
                self.on_rank_dead(rank, inherited_ops);
            }
            SipMsg::NoMoreChunks { pardo_pc, epoch } => {
                if let Some(p) = &mut self.pardo {
                    if p.start_pc == pardo_pc && p.epoch == epoch {
                        p.exhausted = true;
                        p.requested = false;
                    }
                }
            }
            SipMsg::BarrierRelease { kind } => {
                self.barrier_release = Some(kind);
            }
            SipMsg::ReduceResult { value } => {
                self.reduce_result = Some(value);
            }
            SipMsg::CkptRelease { label } => {
                self.ckpt_released.insert(label);
            }
            SipMsg::MulticastBlock {
                key,
                data,
                epoch,
                pos,
                flight,
            } => {
                self.on_multicast(key, data, epoch, pos, flight);
            }
            SipMsg::MulticastAbsent {
                key,
                norm,
                epoch,
                pos,
                flight,
            } => {
                self.on_multicast_absent(key, norm, epoch, pos, flight);
            }
            SipMsg::DeleteArray { array } => {
                self.mem.home_remove_array(array);
                self.mem.cache_invalidate_array(array);
            }
            SipMsg::Shutdown => {
                self.shutdown_seen = true;
            }
            // A stray heartbeat (e.g. duplicated routing in tests) is harmless.
            SipMsg::Heartbeat => {}
            // Messages a worker never receives (a Batch is unpacked by the
            // fabric endpoint before delivery, so a bare one is a protocol
            // error too).
            SipMsg::Batch(_)
            | SipMsg::ChunkRequest { .. }
            | SipMsg::ChunkDone { .. }
            | SipMsg::RequestBlock { .. }
            | SipMsg::PrepareBlock { .. }
            | SipMsg::BarrierEnter { .. }
            | SipMsg::ReduceContrib { .. }
            | SipMsg::CkptBlock { .. }
            | SipMsg::CkptDone { .. }
            | SipMsg::EpochMark { .. }
            | SipMsg::EpochAck { .. }
            | SipMsg::WorkerDone { .. }
            | SipMsg::WorkerFailed { .. }
            | SipMsg::ServerDone { .. } => {
                self.warnings
                    .push(format!("worker received unexpected message from {src}"));
            }
        }
    }

    /// Forwards any cache evictions logged since the last call to the event
    /// sink (the log is only enabled while tracing, so this is a no-op with
    /// no allocation otherwise).
    pub(crate) fn drain_evictions_into_trace(&mut self) {
        if !self.trace.is_on() {
            return;
        }
        for (key, bytes) in self.mem.drain_evictions() {
            self.trace.instant(EventKind::CacheEvict { key, bytes });
        }
    }

    // ---- multicast ------------------------------------------------------------

    /// Pushes this worker's broadcast-shaped home blocks down their
    /// multicast trees on pardo entry (a no-op on one worker). Best-effort:
    /// a receiver that already crossed a barrier drops the stale copy and
    /// its consumers fall back to demand GETs.
    pub(crate) fn multicast_push(&mut self, pardo_pc: u32) {
        if self.layout.topology.workers < 2 {
            return;
        }
        let plan = Arc::clone(&self.plan);
        let layout = Arc::clone(&self.layout);
        let Some(region) = plan.region(pardo_pc) else {
            return;
        };
        let own = self.worker_index();
        for b in &region.broadcast {
            for key in b.keys(&layout) {
                if layout.slot_of_distributed(&key) != own {
                    continue;
                }
                match self.mem.serve_home(&key) {
                    Some(data) => {
                        let flight = self.new_multicast_hop(key, 0);
                        self.multicast_forward(key, data, self.dist_epoch, 0, flight);
                    }
                    // A sparse array's absent block rides the same tree as a
                    // lightweight norm record, so consumers don't each pay a
                    // point-to-point GET just to learn absence. Dense
                    // unfilled blocks stay on the demand path (they read as
                    // zeros there).
                    None if layout.array_sparse(key.array) => {
                        let norm = self.mem.home_absent_norm(&key).unwrap_or(0.0);
                        let flight = self.new_multicast_hop(key, 0);
                        self.multicast_forward_absent(key, norm, self.dist_epoch, 0, flight);
                    }
                    None => {}
                }
            }
        }
        self.flush_forwards();
    }

    /// Accepts a pushed multicast copy: fills the cache exactly like a
    /// solicited `BlockData` (completing any demand fetch already in
    /// flight) and forwards the block to this tree position's children.
    fn on_multicast(
        &mut self,
        key: BlockKey,
        data: BlockHandle,
        epoch: u64,
        pos: u32,
        flight: u64,
    ) {
        // Stale push — the sender raced a barrier. Drop it; demand fetches
        // recover.
        if epoch != self.dist_epoch {
            return;
        }
        if let Some(ft) = self.ft.as_mut() {
            ft.fetches.remove(&key);
        }
        if let Some((t0, _)) = self.flights.remove(&key) {
            self.profile.metrics.comm.flight_nanos += t0.elapsed().as_nanos() as u64;
        }
        let hop = self.new_multicast_hop(key, flight);
        if self.trace.is_on() {
            self.trace.instant(EventKind::CacheFill {
                key,
                bytes: data.heap_bytes(),
            });
        }
        self.multicast_forward(key, data.clone(), epoch, pos, hop);
        self.mem.cache_fill(key, data);
        self.drain_evictions_into_trace();
    }

    /// Accepts a pushed typed-absent record: fills the cache like a
    /// solicited [`SipMsg::BlockAbsent`] (completing any demand fetch in
    /// flight) and forwards the record to this tree position's children.
    fn on_multicast_absent(&mut self, key: BlockKey, norm: f64, epoch: u64, pos: u32, flight: u64) {
        if epoch != self.dist_epoch {
            return;
        }
        if let Some(ft) = self.ft.as_mut() {
            ft.fetches.remove(&key);
        }
        if let Some((t0, _)) = self.flights.remove(&key) {
            self.profile.metrics.comm.flight_nanos += t0.elapsed().as_nanos() as u64;
        }
        let hop = self.new_multicast_hop(key, flight);
        self.multicast_forward_absent(key, norm, epoch, pos, hop);
        self.profile.metrics.sparse.bytes_not_shipped += self.layout.block_bytes(key.array);
        self.mem.cache_fill_absent(key, norm);
    }

    /// Records a multicast hop in the trace and returns its globally
    /// unique flight id (0 when tracing is off — the id only exists for
    /// trace correlation).
    fn new_multicast_hop(&mut self, key: BlockKey, parent: u64) -> u64 {
        if !self.trace.is_on() {
            return 0;
        }
        let seq = self.endpoint.next_req_id().0;
        let id = ((self.endpoint.rank().0 as u64) << 48) | (seq & 0xffff_ffff_ffff);
        let t = self.trace.now_ns();
        self.trace
            .span(EventKind::Multicast { key, id, parent }, t, t);
        id
    }

    /// Stages the block to the tree children of `pos` (positions `2p+1`
    /// and `2p+2`, ranks rotated so the home slot is the root). Staged —
    /// not sent — so several forwards to one child batch into a single
    /// envelope at the next [`Worker::flush_forwards`].
    fn multicast_forward(
        &mut self,
        key: BlockKey,
        data: BlockHandle,
        epoch: u64,
        pos: u32,
        flight: u64,
    ) {
        let workers = self.layout.topology.workers;
        let own = self.worker_index();
        let home = (own + workers - (pos as usize % workers)) % workers;
        for child in [2 * pos + 1, 2 * pos + 2] {
            if (child as usize) >= workers {
                continue;
            }
            let widx = (home + child as usize) % workers;
            let to = self.layout.topology.worker(widx);
            self.profile.metrics.plan.multicast_blocks += 1;
            self.profile.metrics.plan.multicast_bytes += data.heap_bytes();
            let _ = self.endpoint.stage(
                to,
                SipMsg::MulticastBlock {
                    key,
                    data: data.clone(),
                    epoch,
                    pos: child,
                    flight,
                },
            );
            self.staged_forwards = true;
        }
    }

    /// Stages a typed-absent record to the tree children of `pos` — the
    /// payload-free counterpart of [`Worker::multicast_forward`].
    fn multicast_forward_absent(
        &mut self,
        key: BlockKey,
        norm: f64,
        epoch: u64,
        pos: u32,
        flight: u64,
    ) {
        let workers = self.layout.topology.workers;
        let own = self.worker_index();
        let home = (own + workers - (pos as usize % workers)) % workers;
        for child in [2 * pos + 1, 2 * pos + 2] {
            if (child as usize) >= workers {
                continue;
            }
            let widx = (home + child as usize) % workers;
            let to = self.layout.topology.worker(widx);
            // A norm record is a multicast block with zero shipped payload:
            // count the hop, not the bytes.
            self.profile.metrics.plan.multicast_blocks += 1;
            let _ = self.endpoint.stage(
                to,
                SipMsg::MulticastAbsent {
                    key,
                    norm,
                    epoch,
                    pos: child,
                    flight,
                },
            );
            self.staged_forwards = true;
        }
    }

    /// Closes the traced flight span of an acknowledged PUT/PREPARE.
    fn finish_put_flight(&mut self, op: OpId, key: BlockKey, kind: CommOp) {
        if !self.trace.is_on() {
            return;
        }
        if let Some(t0) = self.put_flights.remove(&op.0) {
            let ns = t0.elapsed().as_nanos() as u64;
            let end = self.trace.now_ns();
            self.trace.span(
                EventKind::Flight {
                    op: kind,
                    key,
                    id: op.0,
                },
                end.saturating_sub(ns),
                end,
            );
        }
    }

    /// Applies a put to the authoritative store (used by the home for remote
    /// puts and by the owner for local ones). A Replace adopts the payload
    /// handle outright; an Accumulate mutates the resident block
    /// copy-on-write (in place unless a concurrent serve still shares it).
    /// `epoch` is the sender's barrier epoch (`None` for checkpoint
    /// restores, which take no part in the barrier-misuse check).
    pub(crate) fn apply_put_local(
        &mut self,
        key: BlockKey,
        data: BlockHandle,
        mode: PutMode,
        epoch: Option<u64>,
    ) {
        // Sparse screening at the home: a payload under the threshold is
        // dropped and only its norm bound is recorded. Also reached by a
        // fault-tolerance journal replay of a put the sender dropped (replay
        // resends the full block), keeping replay idempotent with the drop.
        if self.sparsity_active(key.array) {
            let norm = data.norm();
            if norm < self.config.sparsity_threshold {
                self.apply_absent_local(key, norm, mode, epoch);
                return;
            }
        }
        match mode {
            PutMode::Replace => {
                if let Some(epoch) = epoch {
                    self.check_barrier_use(key, epoch, Access::Replace);
                }
                self.mem.home_insert(key, data);
            }
            PutMode::Accumulate => {
                // `a + 1.0 * b` is bitwise `a + b`: the fused CoW axpy is an
                // accumulate.
                let merged = self
                    .update_block(Slot::Home(key), |h, pool, custody| {
                        Ok(h.cow_axpy(pool, custody, 1.0, &data)?)
                    })
                    .expect("store-custody copy-on-write never exhausts the pool");
                if !merged {
                    self.mem.home_insert(key, data);
                }
            }
        }
        // A fresher value exists; drop any stale cached copy.
        self.mem.cache_invalidate(&key);
    }

    /// True when blocks of `array` are screened: the array is declared
    /// sparse and the run has a positive sparsity threshold.
    pub(crate) fn sparsity_active(&self, array: ArrayId) -> bool {
        self.config.sparsity_threshold > 0.0 && self.layout.array_sparse(array)
    }

    /// Applies a dropped (absent) put to the authoritative store: a Replace
    /// removes any resident payload and records the norm bound; an
    /// Accumulate onto a resident block is a no-op (the dropped contribution
    /// is within the screening bound), onto an absent block it accumulates
    /// the bound (triangle inequality).
    pub(crate) fn apply_absent_local(
        &mut self,
        key: BlockKey,
        norm: f64,
        mode: PutMode,
        epoch: Option<u64>,
    ) {
        match mode {
            PutMode::Replace => {
                if let Some(epoch) = epoch {
                    self.check_barrier_use(key, epoch, Access::Replace);
                }
                self.mem.home_record_absent(key, norm);
            }
            PutMode::Accumulate => {
                if !self.mem.home_contains(&key) {
                    let prior = self.mem.home_absent_norm(&key).unwrap_or(0.0);
                    self.mem.home_record_absent(key, prior + norm);
                }
            }
        }
        self.mem.cache_invalidate(&key);
    }

    /// The home's barrier-misuse check: a get and a Replace-put of the same
    /// block stamped with the same sender epoch were not separated by a
    /// `sip_barrier`, so the program raced a read against a write. The
    /// stamps are the senders' epochs, not this home's: a peer released
    /// from a barrier before this worker has already moved on.
    fn check_barrier_use(&mut self, key: BlockKey, epoch: u64, access: Access) {
        let (mine, other) = match access {
            Access::Read => (&mut self.serve_epoch, &self.replace_epoch),
            Access::Replace => (&mut self.replace_epoch, &self.serve_epoch),
        };
        if other.get(&key) == Some(&epoch) {
            self.warnings.push(format!(
                "possible barrier misuse: block {key:?} read and replaced in the \
                 same sip_barrier epoch"
            ));
        }
        mine.insert(key, epoch);
    }

    /// [`Worker::apply_absent_local`] with the same duplicate suppression as
    /// [`Worker::apply_put_deduped`], so retried/duplicated `PutAbsent`
    /// messages cannot re-accumulate a norm bound.
    pub(crate) fn apply_absent_deduped(
        &mut self,
        key: BlockKey,
        norm: f64,
        mode: PutMode,
        op: OpId,
        epoch: Option<u64>,
    ) {
        if self.first_application(op) {
            self.apply_absent_local(key, norm, mode, epoch);
        }
    }

    /// Waits (servicing messages and pumping retries) until `done(self)`
    /// holds. Returns the time spent waiting. Aborts with an error if
    /// shutdown is raised mid-wait or the retry budget runs out.
    ///
    /// This is the *single* accounting point for wait time: every blocked
    /// interval lands in the cause-attributed `metrics.wait` totals exactly
    /// once, here — callers that also fold the returned duration into a
    /// per-pc figure are attributing, not re-counting. `what` names the
    /// awaited event in errors only, so it is formatted only on an error.
    pub(crate) fn wait_until(
        &mut self,
        cause: WaitCause,
        what: impl std::fmt::Display,
        mut done: impl FnMut(&Self) -> bool,
    ) -> Result<Duration, RuntimeError> {
        let t0 = Instant::now();
        loop {
            self.service_messages();
            self.maybe_heartbeat();
            self.pump_retries()?;
            if done(self) {
                let waited = t0.elapsed();
                self.profile.add_wait(cause, waited);
                // Sub-microsecond "waits" (the condition held on entry) would
                // only smear noise over the timeline.
                if waited.as_nanos() >= 1_000 {
                    self.trace.span_since(EventKind::Wait { cause }, t0);
                }
                return Ok(waited);
            }
            if self.shutdown_seen || self.endpoint.shutdown_raised() {
                return Err(RuntimeError::Comm {
                    kind: CommKind::Poisoned,
                    rank: self.endpoint.rank(),
                    key: None,
                    context: format!("run aborted while waiting for {what}"),
                });
            }
            if self.endpoint.is_crashed() {
                return Err(RuntimeError::Comm {
                    kind: CommKind::RankDead,
                    rank: self.endpoint.rank(),
                    key: None,
                    context: format!("rank crashed while waiting for {what}"),
                });
            }
            // Block briefly on the inbox rather than spinning.
            if let Some(env) = self.endpoint.recv_timeout(WAIT_POLL) {
                let src = env.src;
                self.handle(src, env.msg);
                self.flush_forwards();
            }
        }
    }

    // ---- index environment -------------------------------------------------------

    pub(crate) fn index_value(&self, id: IndexId) -> i64 {
        self.env[id.index()]
    }

    pub(crate) fn set_index(&mut self, id: IndexId, v: i64) {
        self.env[id.index()] = v;
    }

    /// Values of a ref's indices (errors if any is unbound — sema prevents,
    /// but corrupted bytecode shouldn't panic).
    pub(crate) fn seg_values(&self, indices: &[IndexId]) -> Result<Vec<i64>, RuntimeError> {
        indices
            .iter()
            .map(|&i| {
                let v = self.index_value(i);
                if v == 0 {
                    Err(RuntimeError::BadProgram(format!(
                        "index `{}` used while undefined",
                        self.layout.program.indices[i.index()].name
                    )))
                } else {
                    Ok(v)
                }
            })
            .collect()
    }

    // ---- block access ---------------------------------------------------------------

    /// Home of a distributed block, skipping dead workers under fault
    /// tolerance. The single resolver for distributed homes on the worker:
    /// every caller goes through here (or through the layout facade with an
    /// explicit dead mask), so nothing can pick the stale non-excluding
    /// variant during recovery.
    pub(crate) fn dist_home(&self, key: &BlockKey) -> Rank {
        let dead = self.ft.as_ref().map(|ft| ft.dead.as_slice()).unwrap_or(&[]);
        self.layout.home_of_distributed_excluding(key, dead)
    }

    /// The single entry point for distributed/served block access, returning
    /// a typed [`BlockGet`] instead of implicitly materializing zero blocks.
    ///
    /// [`Fetch::NoWait`] issues the asynchronous fetch behind
    /// `get`/`request`/prefetch (a no-op when the block is homed here,
    /// cached, or already in flight) and returns [`BlockGet::Pending`].
    /// [`Fetch::Wait`] blocks on an in-flight fetch — or issues a late one —
    /// if necessary, and returns [`BlockGet::Ready`] with the data or
    /// [`BlockGet::AbsentZero`] when the block is typed-absent from a sparse
    /// array; the time blocked is added to `wait` for the profiler.
    pub(crate) fn access_key(
        &mut self,
        key: BlockKey,
        fetch: Fetch,
        wait: &mut Duration,
    ) -> Result<BlockGet, RuntimeError> {
        let kind = self.layout.array_kind(key.array);
        let home = match kind {
            ArrayKind::Distributed => self.dist_home(&key),
            ArrayKind::Served => {
                if self.layout.topology.io_servers == 0 {
                    return Err(RuntimeError::ServedIo(
                        "program uses served arrays but io_servers = 0".into(),
                    ));
                }
                self.layout.home_of_served(&key)
            }
            other => {
                return Err(RuntimeError::BadProgram(format!(
                    "block access on {other:?} array"
                )));
            }
        };
        if home == self.endpoint.rank() {
            // Authoritative store; nothing to fetch. The handle shares the
            // store's allocation. Unfilled blocks of a dense array read as
            // zero ("blocks are allocated … only when actually filled");
            // missing blocks of a sparse array are typed-absent.
            return Ok(match fetch {
                Fetch::NoWait => BlockGet::Pending,
                Fetch::Wait => match self.mem.serve_home(&key) {
                    Some(h) => BlockGet::Ready(h),
                    None if self.layout.array_sparse(key.array) => BlockGet::AbsentZero {
                        norm: self.mem.home_absent_norm(&key).unwrap_or(0.0),
                    },
                    None => BlockGet::Ready(BlockHandle::new(
                        self.pool
                            .acquire_stored(self.layout.declared_block_shape(key.array), true),
                    )),
                },
            });
        }
        if fetch == Fetch::NoWait {
            if self.mem.cache_mark_in_flight(key) {
                self.send_fetch(home, key, kind)?;
            }
            return Ok(BlockGet::Pending);
        }
        loop {
            let hit = match self.mem.cache_lookup(&key) {
                Some(CacheEntry::Ready(b)) => Some(BlockGet::Ready(b.clone())),
                Some(&CacheEntry::Absent { norm }) => Some(BlockGet::AbsentZero { norm }),
                Some(CacheEntry::InFlight) => None,
                None => {
                    // Late fetch — the contraction operator "ensures that the
                    // necessary blocks are available and waits … if
                    // necessary". Also reached when cache pressure evicted a
                    // filled entry before this waiter observed it: the next
                    // round trip re-fetches (counted as a refetch).
                    if self.mem.cache_mark_in_flight(key) {
                        self.send_fetch(home, key, kind)?;
                    }
                    None
                }
            };
            match hit {
                Some(BlockGet::Ready(h)) => {
                    // Sharing the cached handle pins it against eviction
                    // while the caller holds it.
                    self.mem.note_share(&h);
                    return Ok(BlockGet::Ready(h));
                }
                Some(got) => return Ok(got),
                None => {}
            }
            // Wait until the entry leaves the in-flight state: Ready (the
            // next lookup shares it — eviction only runs on this thread, so
            // it cannot vanish in between) or evicted/absent (loop re-arms
            // the fetch).
            let waited = self.wait_until(
                WaitCause::BlockArrival,
                format_args!("block {key:?}"),
                |w| !matches!(w.mem.cache_peek(&key), Some(CacheEntry::InFlight)),
            )?;
            // Time blocked on a fetch is comm latency the prefetcher failed
            // to hide — the "exposed" half of the overlap metric.
            self.profile.metrics.comm.exposed_nanos += waited.as_nanos() as u64;
            *wait += waited;
        }
    }

    /// Sends the GET/REQUEST for a block just marked in flight, registering
    /// it for retry under fault tolerance.
    fn send_fetch(
        &mut self,
        home: Rank,
        key: BlockKey,
        kind: ArrayKind,
    ) -> Result<(), RuntimeError> {
        // A real id is only needed for retry correlation (FT) or flight
        // correlation in the trace; fault-free untraced runs skip it.
        let req = if self.ft.is_some() || self.trace.is_on() {
            self.endpoint.next_req_id()
        } else {
            ReqId::NONE
        };
        self.profile.metrics.comm.fetches += 1;
        if let Some(ft) = self.ft.as_mut() {
            ft.fetches.insert(
                key,
                FetchState {
                    req,
                    served: kind == ArrayKind::Served,
                    sent_at: Instant::now(),
                    timeout: ft::RETRY_TIMEOUT,
                    attempts: 0,
                },
            );
        }
        let msg = match kind {
            ArrayKind::Served => SipMsg::RequestBlock { key, req },
            _ => SipMsg::GetBlock {
                key,
                req,
                epoch: self.dist_epoch,
            },
        };
        if self.ft.is_some() {
            // The fetch is registered for retry; a send failure means the
            // home just died and the retry will re-route after RankDead.
            let _ = self.endpoint.send(home, msg);
        } else {
            self.endpoint.send(home, msg)?;
        }
        // The flight clock starts once the request is on the fabric: issuing
        // it is the requester's own work, not flight that computation hides.
        self.flights.insert(key, (Instant::now(), req.0));
        Ok(())
    }

    /// Reads the block a ref denotes, waiting for in-flight fetches. Returns
    /// a shared handle aliasing the resident block — mutation by the caller
    /// goes through copy-on-write, so correctness is preserved without the
    /// old defensive deep copy. A handle that comes back unshared (a slice,
    /// an absent block's zeros) is the caller's to hand back with
    /// [`Worker::release_handle`].
    ///
    /// `wait` accumulates blocked time for the profiler.
    pub(crate) fn read_block(
        &mut self,
        array: ArrayId,
        ref_indices: &[IndexId],
        wait: &mut Duration,
    ) -> Result<BlockHandle, RuntimeError> {
        let segs = self.seg_values(ref_indices)?;
        let (key, slice) = self.layout.storage_target(array, ref_indices, &segs);
        let kind = self.layout.array_kind(array);
        let whole = match kind {
            ArrayKind::Temp => match self.temps.get(&array) {
                Some((stored_key, block)) if *stored_key == key => {
                    let h = block.clone();
                    self.mem.note_share(&h);
                    h
                }
                _ => {
                    return Err(RuntimeError::TempUndefined {
                        array: self.layout.array(array).name.clone(),
                    });
                }
            },
            ArrayKind::Local | ArrayKind::Static => match self.mem.local_share(&key) {
                Some(h) => h,
                None => {
                    return Err(RuntimeError::BlockNotAvailable {
                        key,
                        context: format!(
                            "local/static block of `{}` never written",
                            self.layout.array(array).name
                        ),
                    });
                }
            },
            ArrayKind::Distributed | ArrayKind::Served => {
                match self.access_key(key, Fetch::Wait, wait)? {
                    BlockGet::Ready(h) => h,
                    // Dense consumers still see an absent block as zeros;
                    // screening-aware consumers use `read_block_get`.
                    BlockGet::AbsentZero { .. } => BlockHandle::new(
                        self.pool
                            .acquire_stored(self.layout.declared_block_shape(array), true),
                    ),
                    BlockGet::Pending => {
                        return Err(RuntimeError::Internal(
                            "wait-mode access returned pending".into(),
                        ));
                    }
                }
            }
        };
        match slice {
            None => Ok(whole),
            Some((offsets, extents)) => self.extract(&whole, &offsets, &extents),
        }
    }

    /// Extracts a sub-block into pooled storage (every element is
    /// overwritten, so the storage may be stale).
    fn extract(
        &self,
        whole: &Block,
        offsets: &[usize],
        extents: &[usize],
    ) -> Result<BlockHandle, RuntimeError> {
        let spec = sia_blocks::SliceSpec::new(offsets, extents);
        let mut sub = self.pool.acquire_scratch(spec.slice_shape())?;
        sia_blocks::extract_slice_into(whole, &spec, &mut sub)
            .map_err(|e| RuntimeError::Internal(format!("slice extraction failed: {e}")))?;
        Ok(BlockHandle::new(sub))
    }

    /// Screening-aware read for consumers that can exploit typed absence
    /// (the contraction path): like [`Worker::read_block`], but an absent
    /// sparse block comes back as [`BlockGet::AbsentZero`] with its norm
    /// bound instead of a materialized zero block. A slice of an absent
    /// block is absent with the same bound (`‖sub‖F ≤ ‖whole‖F`).
    pub(crate) fn read_block_get(
        &mut self,
        array: ArrayId,
        ref_indices: &[IndexId],
        wait: &mut Duration,
    ) -> Result<BlockGet, RuntimeError> {
        let kind = self.layout.array_kind(array);
        if !matches!(kind, ArrayKind::Distributed | ArrayKind::Served) {
            // Temp/local/static arrays are never sparse.
            return self
                .read_block(array, ref_indices, wait)
                .map(BlockGet::Ready);
        }
        let segs = self.seg_values(ref_indices)?;
        let (key, slice) = self.layout.storage_target(array, ref_indices, &segs);
        match self.access_key(key, Fetch::Wait, wait)? {
            BlockGet::Ready(whole) => match slice {
                None => Ok(BlockGet::Ready(whole)),
                Some((offsets, extents)) => self
                    .extract(&whole, &offsets, &extents)
                    .map(BlockGet::Ready),
            },
            absent @ BlockGet::AbsentZero { .. } => Ok(absent),
            BlockGet::Pending => Err(RuntimeError::Internal(
                "wait-mode access returned pending".into(),
            )),
        }
    }

    /// Writes `block` to the storage a ref denotes (temp/local/static only;
    /// distributed/served writes go through put/prepare). Accepts anything
    /// convertible to a [`BlockHandle`], so a shared handle is stored without
    /// materializing a copy. A local/static block leaves the worker's
    /// custody; an inserted sub-block is handed back to the pool.
    pub(crate) fn write_block(
        &mut self,
        array: ArrayId,
        ref_indices: &[IndexId],
        block: impl Into<BlockHandle>,
    ) -> Result<(), RuntimeError> {
        let block = block.into();
        let segs = self.seg_values(ref_indices)?;
        let (key, slice) = self.layout.storage_target(array, ref_indices, &segs);
        let kind = self.layout.array_kind(array);
        let slot = match kind {
            ArrayKind::Temp => Slot::Temp(array, key),
            ArrayKind::Local | ArrayKind::Static => Slot::Local(key),
            other => {
                return Err(RuntimeError::BadProgram(format!(
                    "direct write to {other:?} array"
                )));
            }
        };
        let Some((offsets, extents)) = slice else {
            match slot {
                Slot::Temp(..) => {
                    if let Some((_, old)) = self.temps.insert(array, (key, block)) {
                        self.release_handle(old);
                    }
                }
                _ => {
                    self.pool.detach(&block);
                    self.mem.local_insert(key, block);
                }
            }
            return Ok(());
        };
        // Insertion: write the subblock into the (existing or fresh, zeroed)
        // parent block.
        let parent_shape = self.layout.declared_block_shape(array);
        match slot {
            Slot::Temp(..) => {
                if !matches!(self.temps.get(&array), Some((k, _)) if *k == key) {
                    let parent = self.pool.acquire_raw(parent_shape)?;
                    if let Some((_, old)) = self.temps.insert(array, (key, parent.into())) {
                        self.release_handle(old);
                    }
                }
            }
            _ => {
                if self.mem.local_get_mut(&key).is_none() {
                    let parent = self.pool.acquire_stored(parent_shape, true);
                    self.mem.local_insert(key, parent.into());
                }
            }
        }
        let spec = sia_blocks::SliceSpec::new(&offsets, &extents);
        self.update_block(slot, |h, pool, custody| {
            let (parent, copied) = h.make_unique(pool, custody)?;
            sia_blocks::insert_slice(parent, &spec, &block)
                .map_err(|e| RuntimeError::Internal(format!("insert failed: {e}")))?;
            Ok(copied)
        })?;
        self.release_handle(block);
        Ok(())
    }

    /// Mutates a writable block in place (for `+=`, `*=` on temps/locals)
    /// through [`Worker::update_block`].
    pub(crate) fn modify_block(
        &mut self,
        array: ArrayId,
        ref_indices: &[IndexId],
        op: impl FnOnce(&mut BlockHandle, &BlockPool, Custody) -> Result<u64, RuntimeError>,
    ) -> Result<(), RuntimeError> {
        let segs = self.seg_values(ref_indices)?;
        let (key, slice) = self.layout.storage_target(array, ref_indices, &segs);
        if slice.is_some() {
            // Read-modify-write through the slice path: the extracted
            // sub-block is the worker's own, so `op` runs in place.
            let mut wait = Duration::ZERO;
            let mut sub = self.read_block(array, ref_indices, &mut wait)?;
            let copied = op(&mut sub, &self.pool, Custody::Worker)?;
            self.mem.note_deep_copy(copied);
            return self.write_block(array, ref_indices, sub);
        }
        match self.layout.array_kind(array) {
            ArrayKind::Temp => {
                if self.update_block(Slot::Temp(array, key), op)? {
                    Ok(())
                } else {
                    Err(RuntimeError::TempUndefined {
                        array: self.layout.array(array).name.clone(),
                    })
                }
            }
            ArrayKind::Local | ArrayKind::Static => {
                if self.update_block(Slot::Local(key), op)? {
                    Ok(())
                } else {
                    Err(RuntimeError::BlockNotAvailable {
                        key,
                        context: "in-place update of unwritten local/static block".into(),
                    })
                }
            }
            other => Err(RuntimeError::BadProgram(format!(
                "in-place update of {other:?} array"
            ))),
        }
    }

    /// The worker's one copy-on-write point: runs `op` on the handle stored
    /// at `slot`, with the pool and the custody that slot's storage belongs
    /// to. `op` mutates through `BlockHandle::{make_unique, cow_scale,
    /// cow_axpy}`, so a shared payload is copied into pooled storage —
    /// the worker's for a temp, the block manager's for a local or home
    /// block — and reports the bytes it copied, which land in
    /// `memory.deep_copies` / `memory.bytes_deep_copied`. Returns
    /// `Ok(false)` when nothing is stored at `slot`.
    pub(crate) fn update_block(
        &mut self,
        slot: Slot,
        op: impl FnOnce(&mut BlockHandle, &BlockPool, Custody) -> Result<u64, RuntimeError>,
    ) -> Result<bool, RuntimeError> {
        let (handle, custody) = match slot {
            Slot::Temp(array, key) => match self.temps.get_mut(&array) {
                Some((stored, h)) if *stored == key => (h, Custody::Worker),
                _ => return Ok(false),
            },
            Slot::Local(key) => match self.mem.local_get_mut(&key) {
                Some(h) => (h, Custody::Store),
                None => return Ok(false),
            },
            Slot::Home(key) => match self.mem.home_entry_mut(&key) {
                Some(h) => (h, Custody::Store),
                None => return Ok(false),
            },
        };
        let copied = op(handle, &self.pool, custody)?;
        self.mem.note_deep_copy(copied);
        Ok(true)
    }

    /// Returns a handle's storage to the pool if this was the last holder;
    /// a still-shared handle is simply dropped (the other holder — a flight
    /// in the retry state, a journal entry — keeps the allocation alive).
    pub(crate) fn release_handle(&mut self, h: BlockHandle) {
        if !h.is_shared() {
            self.pool.release(h.into_block());
        }
    }

    /// Frees all temp blocks (end of a pardo iteration) back to the pool.
    pub(crate) fn free_temps(&mut self) {
        let drained: Vec<BlockHandle> = self.temps.drain().map(|(_, (_, b))| b).collect();
        for block in drained {
            self.release_handle(block);
        }
    }

    /// Invalidate cached copies of every array of `kind` (stale after a
    /// barrier).
    pub(crate) fn invalidate_cached_kind(&mut self, kind: ArrayKind) {
        for (i, decl) in self.layout.program.arrays.iter().enumerate() {
            if decl.kind == kind {
                self.mem.cache_invalidate_array(ArrayId(i as u32));
            }
        }
    }

    // ---- fault tolerance --------------------------------------------------------

    /// Sends a PUT (to a distributed home) or, when `served`, a PREPARE (to
    /// an I/O server). Under fault tolerance the op is tracked for retry and
    /// PUTs are journaled for replay when a crash is possible (I/O servers
    /// never die in the fault model); the fault-free fast path counts an
    /// outstanding ack. The journal entry, the retained pending payload and
    /// the wire message share one allocation, which leaves the worker's
    /// custody here.
    pub(crate) fn send_flight(
        &mut self,
        home: Rank,
        key: BlockKey,
        data: BlockHandle,
        mode: PutMode,
        op: OpId,
        served: bool,
    ) -> Result<(), RuntimeError> {
        self.pool.detach(&data);
        // Tracked ops get a traced flight span; untracked (`OpId::NONE`)
        // puts have no correlatable id, so they are counted but not spanned.
        if self.trace.is_on() && op.is_tracked() {
            self.put_flights.insert(op.0, Instant::now());
        }
        // Sparse screening at the sender: a payload under the threshold
        // ships as a norm-only PutAbsent instead of the block (acknowledged
        // like the full store).
        let dropped = self.screen_outgoing(&key, &data);
        let epoch = self.dist_epoch;
        let msg = if let Some(ft) = self.ft.as_mut() {
            if !served && ft.cfg.expects_crash() {
                self.mem.note_share(&data);
                ft.journal.push(JournalEntry {
                    op: op.0,
                    key,
                    data: data.clone(),
                    mode,
                });
            }
            self.mem.note_share(&data);
            // The retained payload backs retries and journal replay even
            // when the first transmission is a PutAbsent: a retry resends
            // the full block and the home's op dedup keeps it idempotent.
            ft.arm_flight(op, key, data, mode, served, epoch)
        } else {
            if served {
                self.outstanding_prepares += 1;
            } else {
                self.outstanding_puts += 1;
            }
            ft::flight_msg(op, key, data, mode, served, epoch)
        };
        let msg = match dropped {
            Some(norm) => SipMsg::PutAbsent {
                key,
                norm,
                mode,
                op,
                epoch: Some(epoch),
            },
            None => msg,
        };
        if self.ft.is_some() {
            // Tracked for retry: a failed send to a dying home re-routes
            // once the master broadcasts RankDead.
            let _ = self.endpoint.send(home, msg);
        } else {
            self.endpoint.send(home, msg)?;
        }
        Ok(())
    }

    /// Sender-side sparse screening: when `key`'s array is screened and the
    /// payload's Frobenius norm falls under the threshold, counts the bytes
    /// the fabric will not ship and returns the norm; `None` means ship the
    /// block.
    fn screen_outgoing(&mut self, key: &BlockKey, data: &BlockHandle) -> Option<f64> {
        if !self.sparsity_active(key.array) {
            return None;
        }
        let norm = data.norm();
        if norm >= self.config.sparsity_threshold {
            return None;
        }
        self.profile.metrics.sparse.bytes_not_shipped += data.heap_bytes();
        Some(norm)
    }

    /// True when every PUT has been acknowledged.
    pub(crate) fn puts_drained(&self) -> bool {
        match &self.ft {
            Some(ft) => !ft.pending.values().any(|p| !p.served),
            None => self.outstanding_puts == 0,
        }
    }

    /// True when every PREPARE has been acknowledged.
    pub(crate) fn prepares_drained(&self) -> bool {
        match &self.ft {
            Some(ft) => !ft.pending.values().any(|p| p.served),
            None => self.outstanding_prepares == 0,
        }
    }

    /// Derives the duplicate-suppression id for a PUT/PREPARE at `pc` on
    /// `key`, consuming one slot of the per-iteration op sequence. Untracked
    /// (`OpId::NONE`) on fault-free runs. Inside pardos and takeover replays
    /// the id is worker-independent (re-execution of the iteration
    /// reproduces it anywhere); outside, the worker index is mixed in so
    /// each rank's SPMD accumulate counts once.
    pub(crate) fn derive_op(&mut self, pc: u32, key: &BlockKey) -> OpId {
        let Some(ft) = &self.ft else {
            return OpId::NONE;
        };
        let seq = self.op_seq;
        self.op_seq += 1;
        let spmd = if self.pardo.is_some() || ft.in_takeover {
            None
        } else {
            Some(self.worker_index())
        };
        OpId(ft::derive_op_id(
            pc,
            self.dist_epoch,
            key,
            &self.env,
            seq,
            spmd,
        ))
    }

    /// Applies a put (local or arriving over the wire) with duplicate
    /// suppression: a tracked op already in the applied window is dropped.
    /// This is what makes retries, fabric duplication, and chunk
    /// re-execution idempotent.
    pub(crate) fn apply_put_deduped(
        &mut self,
        key: BlockKey,
        data: BlockHandle,
        mode: PutMode,
        op: OpId,
        epoch: Option<u64>,
    ) {
        if self.first_application(op) {
            self.apply_put_local(key, data, mode, epoch);
        }
    }

    /// False (and counted) when `op` is tracked and already in this home's
    /// applied window — a retry, a fabric duplicate, or a re-executed
    /// chunk; true otherwise.
    fn first_application(&mut self, op: OpId) -> bool {
        let home_epoch = self.dist_epoch;
        let duplicate = op.is_tracked()
            && !self
                .ft
                .as_mut()
                .map(|ft| ft.note_applied(op.0, home_epoch))
                .unwrap_or(true);
        if duplicate {
            self.profile.metrics.fault.dup_puts_suppressed += 1;
        }
        !duplicate
    }

    /// Retries timed-out tracked operations (no-op on fault-free runs).
    /// Errors when an operation exhausts its retry budget.
    pub(crate) fn pump_retries(&mut self) -> Result<(), RuntimeError> {
        let Some(ft) = self.ft.as_mut() else {
            return Ok(());
        };
        if ft.pending.is_empty() && ft.fetches.is_empty() {
            return Ok(());
        }
        let now = Instant::now();
        let epoch = self.dist_epoch;
        let layout = &self.layout;
        let mut resend: Vec<(Rank, SipMsg)> = Vec::new();
        let mut put_retries = 0u64;
        let mut prepare_retries = 0u64;
        for (&op, p) in ft.pending.iter_mut() {
            if now.duration_since(p.sent_at) < p.timeout {
                continue;
            }
            let home = if p.served {
                layout.home_of_served(&p.key)
            } else {
                layout.home_of_distributed_excluding(&p.key, &ft.dead)
            };
            if p.attempts >= ft::MAX_RETRIES {
                return Err(RuntimeError::Comm {
                    kind: CommKind::Timeout,
                    rank: home,
                    key: Some(p.key),
                    context: format!(
                        "{} unacknowledged after {} attempts",
                        if p.served { "PREPARE" } else { "PUT" },
                        p.attempts + 1
                    ),
                });
            }
            p.attempts += 1;
            p.sent_at = now;
            p.timeout = p.timeout.mul_f64(ft::RETRY_BACKOFF);
            if p.served {
                prepare_retries += 1;
            } else {
                put_retries += 1;
            }
            // The resend shares the retained payload's allocation.
            resend.push((
                home,
                ft::flight_msg(OpId(op), p.key, p.data.clone(), p.mode, p.served, epoch),
            ));
        }
        let mut fetch_retries = 0u64;
        let mut refreshed: Vec<BlockKey> = Vec::new();
        for (key, f) in ft.fetches.iter_mut() {
            if now.duration_since(f.sent_at) < f.timeout {
                continue;
            }
            let home = if f.served {
                layout.home_of_served(key)
            } else {
                layout.home_of_distributed_excluding(key, &ft.dead)
            };
            if f.attempts >= ft::MAX_RETRIES {
                return Err(RuntimeError::Comm {
                    kind: CommKind::Timeout,
                    rank: home,
                    key: Some(*key),
                    context: format!(
                        "{} reply lost after {} attempts",
                        if f.served { "REQUEST" } else { "GET" },
                        f.attempts + 1
                    ),
                });
            }
            f.attempts += 1;
            f.sent_at = now;
            f.timeout = f.timeout.mul_f64(ft::RETRY_BACKOFF);
            fetch_retries += 1;
            refreshed.push(*key);
            let msg = if f.served {
                SipMsg::RequestBlock {
                    key: *key,
                    req: f.req,
                }
            } else {
                SipMsg::GetBlock {
                    key: *key,
                    req: f.req,
                    epoch,
                }
            };
            resend.push((home, msg));
        }
        self.profile.metrics.fault.put_retries += put_retries;
        self.profile.metrics.fault.prepare_retries += prepare_retries;
        self.profile.metrics.fault.fetch_retries += fetch_retries;
        for key in &refreshed {
            self.mem.cache_refresh_in_flight(key);
        }
        for (to, msg) in resend {
            // A send error means the peer is gone; the liveness monitor will
            // declare it dead and re-route, so keep retrying until then.
            let _ = self.endpoint.send(to, msg);
        }
        Ok(())
    }

    /// Beacons a heartbeat to the master when one is due.
    pub(crate) fn maybe_heartbeat(&mut self) {
        let master = self.layout.topology.master();
        let Some(ft) = self.ft.as_mut() else {
            return;
        };
        if ft.crashed || ft.last_beat.elapsed() < ft::HEARTBEAT_INTERVAL {
            return;
        }
        ft.last_beat = Instant::now();
        let _ = self.endpoint.send(master, SipMsg::Heartbeat);
    }

    /// Fires the deterministic crash schedule (and notices fabric-scheduled
    /// crashes): once this worker has completed its configured number of
    /// pardo iterations, it kills its endpoint and unwinds. Called at
    /// iteration boundaries so a crashed rank's last epoch checkpoint is
    /// always consistent.
    pub(crate) fn maybe_crash(&mut self) -> Result<(), RuntimeError> {
        let widx = self.worker_index();
        let rank = self.endpoint.rank();
        if self.endpoint.is_crashed() {
            if let Some(ft) = self.ft.as_mut() {
                ft.crashed = true;
            }
            return Err(RuntimeError::Comm {
                kind: CommKind::RankDead,
                rank,
                key: None,
                context: "rank crashed (fabric fault schedule)".into(),
            });
        }
        let iters = self.pardo_iters_done;
        let Some(ft) = self.ft.as_mut() else {
            return Ok(());
        };
        let Some(crash) = ft.cfg.crash else {
            return Ok(());
        };
        if ft.crashed || crash.worker != widx || iters < crash.after_iterations {
            return Ok(());
        }
        ft.crashed = true;
        self.endpoint.kill();
        Err(RuntimeError::Comm {
            kind: CommKind::RankDead,
            rank,
            key: None,
            context: "injected crash (crash schedule)".into(),
        })
    }

    /// Bookkeeping after one completed pardo iteration: drives the crash
    /// schedule and, under fault tolerance, chunk acknowledgements.
    pub(crate) fn note_pardo_iter_done(&mut self, pardo_pc: u32, epoch: u64) {
        self.pardo_iters_done += 1;
        let master = self.layout.topology.master();
        let Some(ft) = self.ft.as_mut() else {
            return;
        };
        if ft.in_takeover {
            return; // the takeover runner acks the whole chunk itself
        }
        let Some(front) = ft.chunk_acks.front_mut() else {
            return;
        };
        front.1 = front.1.saturating_sub(1);
        if front.1 == 0 {
            let chunk = front.0;
            ft.chunk_acks.pop_front();
            let _ = self.endpoint.send(
                master,
                SipMsg::ChunkDone {
                    pardo_pc,
                    epoch,
                    chunk,
                },
            );
        }
    }

    /// Runs the fault-tolerance epoch transition after a `sip_barrier`
    /// release (the epoch counter has already advanced): checkpoint the
    /// authoritative blocks when a crash is possible, clear the put journal,
    /// and prune the applied-op window.
    pub(crate) fn on_sip_barrier_released(&mut self) {
        let widx = self.worker_index();
        let epoch = self.dist_epoch;
        let Some(ft) = self.ft.as_mut() else {
            return;
        };
        if ft.cfg.expects_crash() {
            if let Some(dir) = &self.run_dir {
                let path = ft::epoch_ckpt_path(dir, widx);
                // The snapshot shares the authoritative blocks' allocations.
                let snapshot = self.mem.snapshot_home();
                if let Err(e) = ft::write_epoch_checkpoint(&path, epoch, &snapshot, &ft.applied) {
                    self.warnings.push(format!("epoch checkpoint failed: {e}"));
                }
            }
        }
        ft.journal.clear();
        ft.prune_applied(epoch);
    }

    /// Handles a `RankDead` broadcast: marks the worker dead, inherits the
    /// corpse's applied-op window (so journal replay cannot double-apply
    /// what its restored checkpoint already contains), replays current-epoch
    /// puts that were homed there, and re-routes in-flight fetches.
    fn on_rank_dead(&mut self, dead_rank: Rank, inherited_ops: Vec<u64>) {
        if !self.layout.topology.is_worker(dead_rank) {
            return;
        }
        let dead_idx = self.layout.topology.worker_index(dead_rank);
        let epoch = self.dist_epoch;
        let layout = Arc::clone(&self.layout);
        let Some(ft) = self.ft.as_mut() else {
            return;
        };
        if ft.dead.get(dead_idx).copied().unwrap_or(true) {
            return; // unknown index or already processed
        }
        let prev_dead = ft.dead.clone();
        ft.dead[dead_idx] = true;
        self.trace.instant(EventKind::Recovery {
            what: RecoveryEvent::RankDead,
        });
        for op in inherited_ops {
            ft.applied.entry(op).or_insert(epoch);
        }
        let mut sends: Vec<(Rank, SipMsg)> = Vec::new();
        // Replay this epoch's puts that were homed at the corpse. The
        // master restored the corpse's last checkpoint to the new homes
        // *before* broadcasting the death, so replay lands on (or dedups
        // against) consistent state. The journal is a superset of the
        // pending puts, so unacked dead-homed puts are re-armed here too.
        // Each replay shares the journal entry's allocation.
        let mut replays = 0u64;
        let to_replay: Vec<(u64, BlockKey, BlockHandle, PutMode, Rank)> = ft
            .journal
            .iter()
            .filter(|e| layout.home_of_distributed_excluding(&e.key, &prev_dead) == dead_rank)
            .map(|e| {
                let new_home = layout.home_of_distributed_excluding(&e.key, &ft.dead);
                (e.op, e.key, e.data.clone(), e.mode, new_home)
            })
            .collect();
        for (op, key, data, mode, new_home) in to_replay {
            replays += 1;
            let msg = ft.arm_flight(OpId(op), key, data, mode, false, epoch);
            sends.push((new_home, msg));
        }
        // Re-route unanswered fetches that were addressed to the corpse.
        let mut reroutes = 0u64;
        for (key, f) in ft.fetches.iter_mut() {
            if f.served || layout.home_of_distributed_excluding(key, &prev_dead) != dead_rank {
                continue;
            }
            let new_home = layout.home_of_distributed_excluding(key, &ft.dead);
            f.sent_at = Instant::now();
            f.timeout = ft::RETRY_TIMEOUT;
            f.attempts = 0;
            reroutes += 1;
            sends.push((
                new_home,
                SipMsg::GetBlock {
                    key: *key,
                    req: f.req,
                    epoch,
                },
            ));
        }
        self.profile.metrics.fault.journal_replays += replays;
        self.profile.metrics.fault.reroutes += reroutes;
        for (to, msg) in sends {
            let _ = self.endpoint.send(to, msg);
        }
    }
}
