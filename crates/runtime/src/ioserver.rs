//! I/O servers: the disk tier behind SIAL `served` arrays.
//!
//! "Each I/O server contains a cache for served array blocks. Blocks
//! arriving as a result of a prepare command are placed in the cache and
//! lazily written to disk … Replacement is done using a LRU strategy. All
//! operations of an I/O server are non-blocking." (§V-B)
//!
//! Our server keeps an LRU write-behind cache over a directory of block
//! files. Each message-loop tick flushes at most one dirty block, so a long
//! prepare burst never blocks request service — the in-process analogue of
//! the original's asynchronous I/O.

use crate::error::RuntimeError;
use crate::events::{EventKind, TraceSink};
use crate::layout::Layout;
use crate::msg::{BlockKey, OpId, SipMsg};
use sia_blocks::{Block, BlockHandle, Shape};
use sia_bytecode::PutMode;
use sia_fabric::Endpoint;
use std::collections::HashMap;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use crate::metrics::ServerStats;

struct Entry {
    block: BlockHandle,
    dirty: bool,
    stamp: u64,
}

/// One I/O server: an LRU write-behind cache over a block directory.
pub struct IoServer {
    layout: Arc<Layout>,
    endpoint: Endpoint<SipMsg>,
    dir: PathBuf,
    capacity: usize,
    cache: HashMap<BlockKey, Entry>,
    /// Norm table for sparse served arrays: blocks whose prepare was dropped
    /// under the sparsity threshold, keyed to the recorded Frobenius-norm
    /// bound. A key with a resident (cache or disk) payload is never here.
    norms: HashMap<BlockKey, f64>,
    clock: u64,
    stats: ServerStats,
    /// Applied prepare op ids → served epoch they arrived in (duplicate
    /// suppression; pruned two epochs back at each `EpochMark`).
    applied_ops: HashMap<u64, u64>,
    /// Completed served epochs (advanced by `EpochMark`).
    epoch: u64,
    /// Event recorder (disabled unless the runtime installs a live sink).
    trace: TraceSink,
    /// Cross-job warm block cache (serving mode): consulted before disk on
    /// a local-cache miss, fed on every flush. Keyed by block-file path, so
    /// only jobs sharing this server's directory share entries.
    warm: Option<Arc<crate::serve::WarmCache>>,
}

fn key_filename(key: &BlockKey) -> String {
    let segs: Vec<String> = key.segs().iter().map(|s| s.to_string()).collect();
    format!("a{}_{}.blk", key.array.0, segs.join("_"))
}

fn write_block_file(path: &Path, block: &Block) -> Result<(), RuntimeError> {
    let mut buf: Vec<u8> = Vec::with_capacity(16 + block.len() * 8);
    let dims = block.shape().dims();
    buf.extend_from_slice(&(dims.len() as u32).to_le_bytes());
    for &d in dims {
        buf.extend_from_slice(&d.to_le_bytes());
    }
    for v in block.data() {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    let tmp = path.with_extension("tmp");
    fs::File::create(&tmp)
        .and_then(|mut f| f.write_all(&buf))
        .and_then(|_| fs::rename(&tmp, path))
        .map_err(|e| RuntimeError::ServedIo(format!("write {}: {e}", path.display())))
}

fn read_block_file(path: &Path) -> Result<Option<Block>, RuntimeError> {
    let mut raw = Vec::new();
    match fs::File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut raw)
                .map_err(|e| RuntimeError::ServedIo(format!("read {}: {e}", path.display())))?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => {
            return Err(RuntimeError::ServedIo(format!(
                "open {}: {e}",
                path.display()
            )));
        }
    }
    if raw.len() < 4 {
        return Err(RuntimeError::ServedIo("truncated block file".into()));
    }
    let rank = u32::from_le_bytes(raw[0..4].try_into().unwrap()) as usize;
    let mut off = 4;
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(u32::from_le_bytes(raw[off..off + 4].try_into().unwrap()) as usize);
        off += 4;
    }
    let shape = if dims.is_empty() {
        Shape::scalar()
    } else {
        Shape::new(&dims)
    };
    let mut data = Vec::with_capacity(shape.len());
    for _ in 0..shape.len() {
        data.push(f64::from_le_bytes(raw[off..off + 8].try_into().map_err(
            |_| RuntimeError::ServedIo("truncated block file".into()),
        )?));
        off += 8;
    }
    Ok(Some(Block::from_data(shape, data)))
}

impl IoServer {
    /// Creates a server storing block files under `dir` (created if absent).
    pub fn new(
        layout: Arc<Layout>,
        endpoint: Endpoint<SipMsg>,
        dir: PathBuf,
        capacity: usize,
    ) -> Result<Self, RuntimeError> {
        fs::create_dir_all(&dir)
            .map_err(|e| RuntimeError::ServedIo(format!("create {}: {e}", dir.display())))?;
        Ok(IoServer {
            layout,
            endpoint,
            dir,
            capacity: capacity.max(1),
            cache: HashMap::new(),
            norms: HashMap::new(),
            clock: 0,
            stats: ServerStats::default(),
            applied_ops: HashMap::new(),
            epoch: 0,
            trace: TraceSink::disabled(),
            warm: None,
        })
    }

    /// Installs the event sink (called by the runtime before `run`).
    pub(crate) fn set_trace(&mut self, sink: TraceSink) {
        self.trace = sink;
    }

    /// Installs the cross-job warm block cache (serving mode).
    pub(crate) fn set_warm(&mut self, warm: Arc<crate::serve::WarmCache>) {
        self.warm = Some(warm);
    }

    fn path_of(&self, key: &BlockKey) -> PathBuf {
        self.dir.join(key_filename(key))
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Flushes one dirty block (the oldest) — the lazy write-behind step.
    fn flush_one(&mut self) -> Result<bool, RuntimeError> {
        let victim = self
            .cache
            .iter()
            .filter(|(_, e)| e.dirty)
            .min_by_key(|(_, e)| e.stamp)
            .map(|(k, _)| *k);
        let Some(key) = victim else {
            return Ok(false);
        };
        let path = self.path_of(&key);
        let entry = self.cache.get_mut(&key).unwrap();
        write_block_file(&path, &entry.block)?;
        entry.dirty = false;
        self.stats.disk_writes += 1;
        if let Some(w) = &self.warm {
            w.insert(path, entry.block.clone());
        }
        self.trace.instant(EventKind::Flush { blocks: 1 });
        Ok(true)
    }

    /// Evicts clean LRU entries (flushing if everything is dirty) until the
    /// cache is within capacity.
    fn make_room(&mut self) -> Result<(), RuntimeError> {
        while self.cache.len() >= self.capacity {
            let clean_victim = self
                .cache
                .iter()
                .filter(|(_, e)| !e.dirty)
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k);
            match clean_victim {
                Some(k) => {
                    self.cache.remove(&k);
                }
                None => {
                    // Everything dirty: flush the oldest, then loop.
                    if !self.flush_one()? {
                        return Ok(());
                    }
                }
            }
        }
        Ok(())
    }

    fn load(&mut self, key: BlockKey) -> Result<BlockHandle, RuntimeError> {
        if let Some(e) = self.cache.get_mut(&key) {
            self.stats.cache_hits += 1;
            e.stamp = self.clock + 1;
            self.clock += 1;
            // The served copy aliases the cache entry: the reply envelope
            // rides on the same allocation.
            return Ok(e.block.clone());
        }
        let path = self.path_of(&key);
        // Serving mode: another job's server (or a previous job) may have
        // this block warm in memory — cheaper than the disk round trip.
        let warm_hit = self.warm.as_ref().and_then(|w| w.get(&path));
        let block: BlockHandle = match warm_hit {
            Some(b) => {
                self.stats.warm_hits += 1;
                b
            }
            None => match read_block_file(&path)? {
                Some(b) => {
                    self.stats.disk_reads += 1;
                    let b: BlockHandle = b.into();
                    if let Some(w) = &self.warm {
                        w.insert(path.clone(), b.clone());
                    }
                    b
                }
                None => {
                    // Never prepared: zeros, consistent with lazy allocation.
                    self.stats.zero_serves += 1;
                    BlockHandle::zeros(self.layout.declared_block_shape(key.array))
                }
            },
        };
        self.make_room()?;
        let stamp = self.tick();
        self.cache.insert(
            key,
            Entry {
                block: block.clone(),
                dirty: false,
                stamp,
            },
        );
        Ok(block)
    }

    /// True when `key` has no payload anywhere (neither cache nor disk) —
    /// the typed-absent state of a sparse served block.
    fn is_absent(&self, key: &BlockKey) -> bool {
        !self.cache.contains_key(key) && !self.path_of(key).exists()
    }

    /// Applies a dropped (norm-only) prepare: a Replace removes any resident
    /// payload and records the bound; an Accumulate onto a resident block is
    /// a no-op, onto an absent one it accumulates the bound.
    fn prepare_absent(&mut self, key: BlockKey, norm: f64, mode: PutMode) {
        self.stats.prepares += 1;
        match mode {
            PutMode::Replace => {
                self.cache.remove(&key);
                let path = self.path_of(&key);
                let _ = fs::remove_file(&path);
                if let Some(w) = &self.warm {
                    w.invalidate(&path);
                }
                self.norms.insert(key, norm);
            }
            PutMode::Accumulate => {
                if self.is_absent(&key) {
                    let prior = self.norms.get(&key).copied().unwrap_or(0.0);
                    self.norms.insert(key, prior + norm);
                }
            }
        }
    }

    /// [`IoServer::prepare_absent`] behind the same duplicate suppression as
    /// [`IoServer::prepare_deduped`].
    fn prepare_absent_deduped(&mut self, key: BlockKey, norm: f64, mode: PutMode, op: OpId) {
        if op.is_tracked() && self.applied_ops.insert(op.0, self.epoch).is_some() {
            self.stats.dup_prepares_suppressed += 1;
            return;
        }
        self.prepare_absent(key, norm, mode);
    }

    fn prepare(
        &mut self,
        key: BlockKey,
        data: BlockHandle,
        mode: PutMode,
    ) -> Result<(), RuntimeError> {
        self.stats.prepares += 1;
        // A real payload supersedes any recorded absence.
        self.norms.remove(&key);
        // Any warm copy of this block is now stale (the fresh payload is
        // dirty in the local cache until the next flush republishes it).
        if let Some(w) = &self.warm {
            w.invalidate(&self.path_of(&key));
        }
        match mode {
            PutMode::Replace => {
                self.make_room()?;
                let stamp = self.tick();
                self.cache.insert(
                    key,
                    Entry {
                        block: data,
                        dirty: true,
                        stamp,
                    },
                );
            }
            PutMode::Accumulate => {
                // Accumulate needs the current value (cache or disk).
                let mut cur = self.load(key)?;
                cur.make_mut().accumulate(&data);
                let stamp = self.tick();
                self.cache.insert(
                    key,
                    Entry {
                        block: cur,
                        dirty: true,
                        stamp,
                    },
                );
            }
        }
        Ok(())
    }

    /// Applies a prepare unless its op id was already applied (a duplicate
    /// from a sender retry, fabric duplication, or chunk re-execution).
    /// Duplicates are suppressed but still acknowledged, so the sender's
    /// retry loop settles.
    fn prepare_deduped(
        &mut self,
        key: BlockKey,
        data: BlockHandle,
        mode: PutMode,
        op: OpId,
    ) -> Result<(), RuntimeError> {
        if op.is_tracked() && self.applied_ops.insert(op.0, self.epoch).is_some() {
            self.stats.dup_prepares_suppressed += 1;
            return Ok(());
        }
        self.prepare(key, data, mode)
    }

    /// Commits a served epoch: flushes everything dirty, records the epoch
    /// in this server's manifest, and prunes the duplicate-suppression
    /// window (nothing can retry across two committed epochs).
    fn mark_epoch(&mut self, epoch: u64) -> Result<(), RuntimeError> {
        self.flush_all()?;
        self.epoch = epoch;
        let path = self
            .dir
            .join(format!("manifest_r{}.txt", self.endpoint.rank().0));
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, format!("{epoch}\n"))
            .and_then(|_| fs::rename(&tmp, &path))
            .map_err(|e| RuntimeError::ServedIo(format!("manifest {}: {e}", path.display())))?;
        self.applied_ops.retain(|_, e| *e + 2 > epoch);
        Ok(())
    }

    fn delete_array(&mut self, array: sia_bytecode::ArrayId) -> Result<(), RuntimeError> {
        self.cache.retain(|k, _| k.array != array);
        self.norms.retain(|k, _| k.array != array);
        let prefix = format!("a{}_", array.0);
        if let Some(w) = &self.warm {
            w.invalidate_prefix(&self.dir, &prefix);
        }
        let entries =
            fs::read_dir(&self.dir).map_err(|e| RuntimeError::ServedIo(format!("readdir: {e}")))?;
        for entry in entries.flatten() {
            if entry.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(())
    }

    /// Flushes all dirty blocks (shutdown).
    pub fn flush_all(&mut self) -> Result<(), RuntimeError> {
        while self.flush_one()? {}
        Ok(())
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Runs the server's nonblocking message loop until shutdown.
    pub fn run(&mut self) -> Result<ServerStats, RuntimeError> {
        loop {
            match self.endpoint.recv_timeout(Duration::from_micros(500)) {
                Some(env) => {
                    let src = env.src;
                    match env.msg {
                        SipMsg::RequestBlock { key, req } => {
                            // A sparse block with no payload anywhere is
                            // typed-absent: ship the norm bound instead of
                            // materializing and caching a zero block.
                            if self.layout.array_sparse(key.array) && self.is_absent(&key) {
                                let norm = self.norms.get(&key).copied().unwrap_or(0.0);
                                let _ = self
                                    .endpoint
                                    .send(src, SipMsg::BlockAbsent { key, norm, req });
                                continue;
                            }
                            let t0 = Instant::now();
                            let reads0 = self.stats.disk_reads;
                            let data = self.load(key)?;
                            let disk = self.stats.disk_reads > reads0;
                            self.trace.span_since(EventKind::Serve { key, disk }, t0);
                            let _ = self
                                .endpoint
                                .send(src, SipMsg::BlockData { key, data, req });
                        }
                        SipMsg::PrepareBlock {
                            key,
                            data,
                            mode,
                            op,
                        } => {
                            self.prepare_deduped(key, data, mode, op)?;
                            let _ = self.endpoint.send(src, SipMsg::PrepareAck { key, op });
                        }
                        SipMsg::PutAbsent {
                            key,
                            norm,
                            mode,
                            op,
                            ..
                        } => {
                            self.prepare_absent_deduped(key, norm, mode, op);
                            let _ = self.endpoint.send(src, SipMsg::PrepareAck { key, op });
                        }
                        SipMsg::EpochMark { epoch } => {
                            self.mark_epoch(epoch)?;
                            let _ = self
                                .endpoint
                                .send(self.layout.topology.master(), SipMsg::EpochAck { epoch });
                        }
                        SipMsg::DeleteArray { array } => {
                            self.delete_array(array)?;
                        }
                        SipMsg::Shutdown => {
                            self.flush_all()?;
                            // Ship counters (and recorded events) to the
                            // master, which is draining its inbox for these
                            // after the shutdown broadcast.
                            let (events, dropped) = self.trace.drain();
                            let _ = self.endpoint.send(
                                self.layout.topology.master(),
                                SipMsg::ServerDone {
                                    stats: self.stats,
                                    events,
                                    dropped,
                                },
                            );
                            return Ok(self.stats);
                        }
                        _ => {}
                    }
                }
                None => {
                    // Idle: lazy write-behind makes progress.
                    self.flush_one()?;
                    if self.endpoint.shutdown_raised() {
                        self.flush_all()?;
                        return Ok(self.stats);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::{SegmentConfig, Topology};
    use sia_bytecode::{
        ArrayDecl, ArrayId, ArrayKind, ConstBindings, IndexDecl, IndexId, IndexKind, Program, Value,
    };
    use std::sync::Arc;

    fn test_layout() -> Arc<Layout> {
        let program = Program {
            indices: vec![IndexDecl {
                name: "i".into(),
                kind: IndexKind::AoIndex,
                low: Value::Lit(1),
                high: Value::Lit(4),
            }],
            arrays: vec![ArrayDecl {
                name: "S".into(),
                kind: ArrayKind::Served,
                dims: vec![IndexId(0), IndexId(0)],
                sparse: false,
            }],
            ..Default::default()
        };
        Arc::new(
            Layout::new(
                Arc::new(program),
                &ConstBindings::new(),
                SegmentConfig {
                    default: 4,
                    ..Default::default()
                },
                Topology::new(1, 1),
            )
            .unwrap(),
        )
    }

    fn sparse_test_layout() -> Arc<Layout> {
        let program = Program {
            indices: vec![IndexDecl {
                name: "i".into(),
                kind: IndexKind::AoIndex,
                low: Value::Lit(1),
                high: Value::Lit(4),
            }],
            arrays: vec![ArrayDecl {
                name: "S".into(),
                kind: ArrayKind::Served,
                dims: vec![IndexId(0), IndexId(0)],
                sparse: true,
            }],
            ..Default::default()
        };
        Arc::new(
            Layout::new(
                Arc::new(program),
                &ConstBindings::new(),
                SegmentConfig {
                    default: 4,
                    ..Default::default()
                },
                Topology::new(1, 1),
            )
            .unwrap(),
        )
    }

    fn test_server(dir: &Path, capacity: usize) -> IoServer {
        let (mut eps, _) = sia_fabric::build::<SipMsg>(3);
        let ep = eps.remove(2);
        IoServer::new(test_layout(), ep, dir.to_path_buf(), capacity).unwrap()
    }

    fn sparse_server(dir: &Path, capacity: usize) -> IoServer {
        let (mut eps, _) = sia_fabric::build::<SipMsg>(3);
        let ep = eps.remove(2);
        IoServer::new(sparse_test_layout(), ep, dir.to_path_buf(), capacity).unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "sia-io-test-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn blk(v: f64) -> BlockHandle {
        BlockHandle::new(Block::filled(Shape::new(&[4, 4]), v))
    }

    #[test]
    fn prepare_then_request_roundtrip() {
        let dir = tmpdir("rt");
        let mut s = test_server(&dir, 8);
        let key = BlockKey::new(ArrayId(0), &[1, 2]);
        s.prepare(key, blk(3.0), PutMode::Replace).unwrap();
        let got = s.load(key).unwrap();
        assert_eq!(got, blk(3.0));
        assert_eq!(s.stats().cache_hits, 1);
    }

    #[test]
    fn accumulate_mode_adds() {
        let dir = tmpdir("acc");
        let mut s = test_server(&dir, 8);
        let key = BlockKey::new(ArrayId(0), &[1, 1]);
        s.prepare(key, blk(1.0), PutMode::Replace).unwrap();
        s.prepare(key, blk(2.0), PutMode::Accumulate).unwrap();
        assert_eq!(s.load(key).unwrap(), blk(3.0));
    }

    #[test]
    fn unprepared_block_reads_zero() {
        let dir = tmpdir("zero");
        let mut s = test_server(&dir, 8);
        let key = BlockKey::new(ArrayId(0), &[3, 3]);
        let got = s.load(key).unwrap();
        assert!(got.data().iter().all(|&x| x == 0.0));
        assert_eq!(s.stats().zero_serves, 1);
    }

    #[test]
    fn eviction_flushes_and_disk_survives() {
        let dir = tmpdir("evict");
        let mut s = test_server(&dir, 2);
        let k1 = BlockKey::new(ArrayId(0), &[1, 1]);
        let k2 = BlockKey::new(ArrayId(0), &[2, 2]);
        let k3 = BlockKey::new(ArrayId(0), &[3, 3]);
        s.prepare(k1, blk(1.0), PutMode::Replace).unwrap();
        s.prepare(k2, blk(2.0), PutMode::Replace).unwrap();
        s.prepare(k3, blk(3.0), PutMode::Replace).unwrap();
        // k1 must have been flushed to disk before eviction; reading it back
        // must hit disk, not zeros.
        let got = s.load(k1).unwrap();
        assert_eq!(got, blk(1.0));
        assert!(s.stats().disk_writes >= 1);
        assert!(s.stats().disk_reads >= 1);
    }

    #[test]
    fn flush_all_persists_everything() {
        let dir = tmpdir("flush");
        let key = BlockKey::new(ArrayId(0), &[4, 4]);
        {
            let mut s = test_server(&dir, 8);
            s.prepare(key, blk(9.0), PutMode::Replace).unwrap();
            s.flush_all().unwrap();
        }
        // A brand-new server over the same directory sees the data.
        let mut s2 = test_server(&dir, 8);
        assert_eq!(s2.load(key).unwrap(), blk(9.0));
        assert_eq!(s2.stats().disk_reads, 1);
    }

    #[test]
    fn delete_array_removes_cache_and_files() {
        let dir = tmpdir("del");
        let mut s = test_server(&dir, 8);
        let key = BlockKey::new(ArrayId(0), &[1, 4]);
        s.prepare(key, blk(5.0), PutMode::Replace).unwrap();
        s.flush_all().unwrap();
        s.delete_array(ArrayId(0)).unwrap();
        let got = s.load(key).unwrap();
        assert!(
            got.data().iter().all(|&x| x == 0.0),
            "deleted block reads zero"
        );
    }

    #[test]
    fn block_file_format_roundtrips() {
        let dir = tmpdir("fmt");
        let path = dir.join("x.blk");
        let b = Block::from_fn(Shape::new(&[2, 3]), |i| (i[0] * 3 + i[1]) as f64);
        write_block_file(&path, &b).unwrap();
        let back = read_block_file(&path).unwrap().unwrap();
        assert_eq!(b, back);
        assert!(read_block_file(&dir.join("missing.blk")).unwrap().is_none());
    }

    #[test]
    fn duplicate_prepare_suppressed() {
        let dir = tmpdir("dup");
        let mut s = test_server(&dir, 8);
        let key = BlockKey::new(ArrayId(0), &[2, 3]);
        let op = OpId(0xdead_beef);
        // An accumulate retried (or duplicated by the fabric, or re-executed
        // by a takeover chunk) must count exactly once.
        s.prepare_deduped(key, blk(2.0), PutMode::Accumulate, op)
            .unwrap();
        s.prepare_deduped(key, blk(2.0), PutMode::Accumulate, op)
            .unwrap();
        assert_eq!(s.load(key).unwrap(), blk(2.0));
        assert_eq!(s.stats().dup_prepares_suppressed, 1);
        // A different op id is a genuinely new operation.
        s.prepare_deduped(key, blk(3.0), PutMode::Accumulate, OpId(0xfeed))
            .unwrap();
        assert_eq!(s.load(key).unwrap(), blk(5.0));
        // Untracked ops bypass suppression entirely.
        s.prepare_deduped(key, blk(1.0), PutMode::Replace, OpId::NONE)
            .unwrap();
        s.prepare_deduped(key, blk(1.0), PutMode::Replace, OpId::NONE)
            .unwrap();
        assert_eq!(s.stats().dup_prepares_suppressed, 1);
    }

    #[test]
    fn epoch_mark_flushes_and_writes_manifest() {
        let dir = tmpdir("epoch");
        let mut s = test_server(&dir, 8);
        let key = BlockKey::new(ArrayId(0), &[1, 2]);
        s.prepare_deduped(key, blk(4.0), PutMode::Replace, OpId(7))
            .unwrap();
        s.mark_epoch(1).unwrap();
        assert!(s.stats().disk_writes >= 1, "mark flushes dirty blocks");
        let manifest = dir.join(format!("manifest_r{}.txt", s.endpoint.rank().0));
        assert_eq!(fs::read_to_string(manifest).unwrap().trim(), "1");
        // The suppression window prunes entries two epochs back.
        s.mark_epoch(2).unwrap();
        s.mark_epoch(3).unwrap();
        assert!(
            !s.applied_ops.contains_key(&7),
            "old applied ops are pruned"
        );
    }

    #[test]
    fn absent_replace_drops_payload_and_real_prepare_clears_norm() {
        let dir = tmpdir("absent");
        let mut s = sparse_server(&dir, 8);
        let key = BlockKey::new(ArrayId(0), &[1, 2]);
        s.prepare(key, blk(3.0), PutMode::Replace).unwrap();
        s.flush_all().unwrap();
        assert!(!s.is_absent(&key));
        // A dropped Replace removes both the cached copy and the disk file.
        s.prepare_absent(key, 1e-12, PutMode::Replace);
        assert!(s.is_absent(&key), "payload gone from cache and disk");
        assert_eq!(s.norms.get(&key).copied(), Some(1e-12));
        // A later real prepare makes the block resident again and clears the
        // norm entry so it cannot shadow live data.
        s.prepare(key, blk(2.0), PutMode::Replace).unwrap();
        assert!(!s.is_absent(&key));
        assert!(!s.norms.contains_key(&key));
        assert_eq!(s.load(key).unwrap(), blk(2.0));
    }

    #[test]
    fn absent_accumulate_bounds_and_resident_noop() {
        let dir = tmpdir("absacc");
        let mut s = sparse_server(&dir, 8);
        let absent = BlockKey::new(ArrayId(0), &[3, 3]);
        // Accumulating norm bounds onto an absent block sums them
        // (triangle inequality keeps the bound sound).
        s.prepare_absent(absent, 0.25, PutMode::Accumulate);
        s.prepare_absent(absent, 0.50, PutMode::Accumulate);
        assert_eq!(s.norms.get(&absent).copied(), Some(0.75));
        // Onto a resident block it is a no-op: the payload stays exact.
        let resident = BlockKey::new(ArrayId(0), &[1, 1]);
        s.prepare(resident, blk(4.0), PutMode::Replace).unwrap();
        s.prepare_absent(resident, 0.25, PutMode::Accumulate);
        assert!(!s.norms.contains_key(&resident));
        assert_eq!(s.load(resident).unwrap(), blk(4.0));
    }

    #[test]
    fn duplicate_put_absent_suppressed() {
        let dir = tmpdir("absdup");
        let mut s = sparse_server(&dir, 8);
        let key = BlockKey::new(ArrayId(0), &[2, 4]);
        let op = OpId(0xabcd);
        // A retried/duplicated dropped-accumulate must bound the norm once.
        s.prepare_absent_deduped(key, 0.5, PutMode::Accumulate, op);
        s.prepare_absent_deduped(key, 0.5, PutMode::Accumulate, op);
        assert_eq!(s.norms.get(&key).copied(), Some(0.5));
        assert_eq!(s.stats().dup_prepares_suppressed, 1);
        // Real and absent prepares share one dedup window: a dropped resend
        // of an already-applied real prepare is suppressed too.
        let key2 = BlockKey::new(ArrayId(0), &[4, 2]);
        let op2 = OpId(0xbeef);
        s.prepare_deduped(key2, blk(2.0), PutMode::Accumulate, op2)
            .unwrap();
        s.prepare_absent_deduped(key2, 0.1, PutMode::Accumulate, op2);
        assert_eq!(s.load(key2).unwrap(), blk(2.0));
        assert!(!s.norms.contains_key(&key2));
    }

    #[test]
    fn delete_array_clears_norm_table() {
        let dir = tmpdir("absdel");
        let mut s = sparse_server(&dir, 8);
        let key = BlockKey::new(ArrayId(0), &[1, 3]);
        s.prepare_absent(key, 0.5, PutMode::Replace);
        s.delete_array(ArrayId(0)).unwrap();
        assert!(s.norms.is_empty());
    }

    #[test]
    fn lazy_write_behind_flushes_one_at_a_time() {
        let dir = tmpdir("lazy");
        let mut s = test_server(&dir, 8);
        for i in 1..=3 {
            s.prepare(
                BlockKey::new(ArrayId(0), &[i, i]),
                blk(i as f64),
                PutMode::Replace,
            )
            .unwrap();
        }
        assert_eq!(s.stats().disk_writes, 0, "prepares are lazy");
        assert!(s.flush_one().unwrap());
        assert_eq!(s.stats().disk_writes, 1);
        assert!(s.flush_one().unwrap());
        assert!(s.flush_one().unwrap());
        assert!(!s.flush_one().unwrap(), "nothing left to flush");
    }
}
