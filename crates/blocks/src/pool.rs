//! The worker block pool: "stacks of preallocated blocks … of various sizes".
//!
//! Per the paper (§V-B), each SIP worker divides its memory into stacks of
//! preallocated blocks per size class, with the number of blocks of each size
//! determined by the dry-run analysis. [`BlockPool`] reproduces this: storage
//! is recycled by element-count class, a configurable byte budget bounds
//! total residency, and [`PoolStats`] exposes the counters the dry run and
//! profiler need (peak residency validates the dry-run estimate in tests).
//!
//! The pool is deliberately single-threaded: each worker owns its own pool,
//! exactly as each MPI process owned its own stacks in the original SIP.
//!
//! Accounting follows custody ([`Custody`]). Storage handed out for the
//! worker's temps and scratch is *live* until it comes back through
//! [`BlockPool::release`] or leaves the worker's custody through
//! [`BlockPool::detach`] (a put, a home or local insert): either way it
//! stops counting against the budget exactly once. Storage for a block store
//! ([`BlockPool::acquire_stored`]) is never live: it reuses parked storage
//! when its size class has some. Storage the pool never handed out can still
//! be released — it is adopted onto a free stack — but only while live plus
//! free bytes stay within the budget; beyond that it is dropped.

use crate::block::Block;
use crate::shape::Shape;
use std::cell::RefCell;
use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::rc::Rc;

/// Pool configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Hard ceiling on bytes of block storage live at once (handed out plus
    /// cached in free stacks). Mirrors the per-worker memory the dry run
    /// budgets against.
    pub max_bytes: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        // 256 MiB default worker budget; the dry run overrides this.
        PoolConfig {
            max_bytes: 256 << 20,
        }
    }
}

/// Counters describing pool behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Acquisitions satisfied from a free stack.
    pub hits: u64,
    /// Acquisitions that had to allocate fresh storage.
    pub misses: u64,
    /// Blocks currently handed out.
    pub live_blocks: usize,
    /// Bytes currently handed out.
    pub live_bytes: usize,
    /// Peak of `live_bytes` over the pool's lifetime.
    pub peak_bytes: usize,
    /// Bytes parked in free stacks.
    pub free_bytes: usize,
}

/// Error when the byte budget would be exceeded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolExhausted {
    /// Bytes the failed acquisition needed.
    pub requested: usize,
    /// Bytes that were available under the budget.
    pub available: usize,
}

impl fmt::Display for PoolExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "block pool exhausted: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for PoolExhausted {}

/// Who keeps storage drawn from the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Custody {
    /// The worker's temps and scratch ([`BlockPool::acquire_scratch`]):
    /// counted live against `max_bytes` until released or detached.
    Worker,
    /// A block store — a home or local block, a block in flight
    /// ([`BlockPool::acquire_stored`]): never counted live.
    Store,
}

struct PoolInner {
    config: PoolConfig,
    /// Free stacks keyed by element count (the size class).
    stacks: BTreeMap<usize, Vec<Vec<f64>>>,
    /// Payload addresses of the storage handed out and not yet released or
    /// detached — what `live_blocks`/`live_bytes` count.
    live: HashSet<usize>,
    stats: PoolStats,
}

/// The identity of a block's storage while it is live.
fn storage_id(block: &Block) -> usize {
    block.data().as_ptr() as usize
}

fn block_bytes(elems: usize) -> usize {
    elems * std::mem::size_of::<f64>()
}

impl PoolInner {
    fn acquire(&mut self, shape: Shape) -> Result<Block, PoolExhausted> {
        self.acquire_with(shape, true)
    }

    /// Pops parked storage of `shape`'s size class, if any.
    fn pop_free(&mut self, shape: Shape, zero: bool) -> Option<Block> {
        let mut data = self.stacks.get_mut(&shape.len())?.pop()?;
        if zero {
            data.fill(0.0);
        }
        self.stats.hits += 1;
        self.stats.free_bytes -= block_bytes(data.len());
        Some(Block::from_data(shape, data))
    }

    fn acquire_stored(&mut self, shape: Shape, zero: bool) -> Block {
        self.pop_free(shape, zero).unwrap_or_else(|| {
            self.stats.misses += 1;
            Block::zeros(shape)
        })
    }

    fn acquire_with(&mut self, shape: Shape, zero: bool) -> Result<Block, PoolExhausted> {
        if let Some(block) = self.pop_free(shape, zero) {
            return Ok(self.hand_out(block));
        }
        let bytes = block_bytes(shape.len());
        let total = self.stats.live_bytes + self.stats.free_bytes;
        if total + bytes > self.config.max_bytes {
            // Try reclaiming free storage of other classes before failing,
            // largest classes first (they free the most per eviction).
            let mut freed = 0usize;
            let classes: Vec<usize> = self.stacks.keys().rev().copied().collect();
            for class in classes {
                if total + bytes - freed <= self.config.max_bytes {
                    break;
                }
                if let Some(stack) = self.stacks.get_mut(&class) {
                    while let Some(v) = stack.pop() {
                        freed += block_bytes(v.len());
                        drop(v);
                        if total + bytes - freed <= self.config.max_bytes {
                            break;
                        }
                    }
                }
            }
            self.stats.free_bytes -= freed;
            if self.stats.live_bytes + self.stats.free_bytes + bytes > self.config.max_bytes {
                return Err(PoolExhausted {
                    requested: bytes,
                    available: self.config.max_bytes
                        - (self.stats.live_bytes + self.stats.free_bytes),
                });
            }
        }
        self.stats.misses += 1;
        Ok(self.hand_out(Block::zeros(shape)))
    }

    fn hand_out(&mut self, block: Block) -> Block {
        self.live.insert(storage_id(&block));
        self.stats.live_blocks += 1;
        self.stats.live_bytes += block_bytes(block.len());
        self.stats.peak_bytes = self.stats.peak_bytes.max(self.stats.live_bytes);
        block
    }

    /// Stops counting `block` as live if it is storage this pool handed out.
    fn detach(&mut self, block: &Block) {
        if self.live.remove(&storage_id(block)) {
            self.stats.live_blocks -= 1;
            self.stats.live_bytes -= block_bytes(block.len());
        }
    }

    /// Parks a block's storage on its size-class stack. Blocks that were not
    /// acquired from this pool are *adopted*: their storage becomes reusable
    /// (the SIP hands freshly computed blocks to the pool when a temp dies).
    /// Storage that would push live plus free bytes over the budget is
    /// dropped instead of parked.
    fn release(&mut self, block: Block) {
        self.detach(&block);
        let bytes = block_bytes(block.len());
        if self.stats.live_bytes + self.stats.free_bytes + bytes > self.config.max_bytes {
            return;
        }
        self.stats.free_bytes += bytes;
        self.stacks
            .entry(block.len())
            .or_default()
            .push(block.into_data());
    }
}

/// A size-classed recycling allocator for blocks, shared cheaply via `Rc`.
#[derive(Clone)]
pub struct BlockPool {
    inner: Rc<RefCell<PoolInner>>,
}

impl BlockPool {
    /// Creates a pool with the given configuration.
    pub fn new(config: PoolConfig) -> Self {
        BlockPool {
            inner: Rc::new(RefCell::new(PoolInner {
                config,
                stacks: BTreeMap::new(),
                live: HashSet::new(),
                stats: PoolStats::default(),
            })),
        }
    }

    /// Acquires a zeroed block of `shape`, recycling storage when a block of
    /// the same size class was released earlier.
    pub fn acquire(&self, shape: Shape) -> Result<PooledBlock, PoolExhausted> {
        let block = self.inner.borrow_mut().acquire(shape)?;
        Ok(PooledBlock {
            block: Some(block),
            pool: Rc::clone(&self.inner),
        })
    }

    /// Acquires a raw [`Block`] the caller must eventually [`release`].
    ///
    /// [`release`]: BlockPool::release
    pub fn acquire_raw(&self, shape: Shape) -> Result<Block, PoolExhausted> {
        self.inner.borrow_mut().acquire(shape)
    }

    /// Like [`acquire_raw`], but recycled storage keeps its stale contents
    /// instead of being zero-filled. For scratch every element of which the
    /// caller overwrites before reading — e.g. GEMM pack panels, which
    /// explicitly write or zero-pad the entire region the microkernel
    /// consumes. Fresh allocations are still zeroed (there is nothing to
    /// recycle).
    ///
    /// [`acquire_raw`]: BlockPool::acquire_raw
    pub fn acquire_scratch(&self, shape: Shape) -> Result<Block, PoolExhausted> {
        self.inner.borrow_mut().acquire_with(shape, false)
    }

    /// Storage for a block store ([`Custody::Store`]): parked storage of
    /// the size class when there is some, fresh storage otherwise. Never
    /// counted live, so never refused; zero-filled when `zeroed` (otherwise
    /// recycled storage keeps stale contents, as with [`acquire_scratch`]).
    ///
    /// [`acquire_scratch`]: BlockPool::acquire_scratch
    pub fn acquire_stored(&self, shape: Shape, zeroed: bool) -> Block {
        self.inner.borrow_mut().acquire_stored(shape, zeroed)
    }

    /// Returns a raw block's storage to its size-class stack.
    pub fn release(&self, block: Block) {
        self.inner.borrow_mut().release(block);
    }

    /// Records that `block` left the worker's custody (a put, a home or local
    /// insert): if it is storage this pool handed out, it stops counting as
    /// live. Idempotent; a no-op for storage the pool never handed out.
    pub fn detach(&self, block: &Block) {
        self.inner.borrow_mut().detach(block);
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        self.inner.borrow().stats
    }

    /// Number of distinct size classes with parked storage.
    pub fn size_classes(&self) -> usize {
        self.inner.borrow().stacks.len()
    }

    /// Drops all parked free storage (e.g. between SIAL programs).
    pub fn trim(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.stacks.clear();
        inner.stats.free_bytes = 0;
    }
}

impl fmt::Debug for BlockPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockPool({:?})", self.stats())
    }
}

/// RAII handle to a pooled block; returns storage to the pool on drop.
pub struct PooledBlock {
    block: Option<Block>,
    pool: Rc<RefCell<PoolInner>>,
}

impl PooledBlock {
    /// Detaches the block from the pool (the storage will not be recycled;
    /// the live-byte accounting is reduced as if released).
    pub fn into_block(mut self) -> Block {
        let block = self.block.take().expect("block already taken");
        self.pool.borrow_mut().detach(&block);
        block
    }
}

impl Deref for PooledBlock {
    type Target = Block;
    fn deref(&self) -> &Block {
        self.block.as_ref().expect("block taken")
    }
}

impl DerefMut for PooledBlock {
    fn deref_mut(&mut self) -> &mut Block {
        self.block.as_mut().expect("block taken")
    }
}

impl Drop for PooledBlock {
    fn drop(&mut self) {
        if let Some(block) = self.block.take() {
            self.pool.borrow_mut().release(block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(bytes: usize) -> BlockPool {
        BlockPool::new(PoolConfig { max_bytes: bytes })
    }

    #[test]
    fn recycles_same_size_class() {
        let p = pool(1 << 20);
        let s = Shape::new(&[8, 8]);
        {
            let _b = p.acquire(s).unwrap();
        }
        let _b2 = p.acquire(s).unwrap();
        let st = p.stats();
        assert_eq!(st.misses, 1);
        assert_eq!(st.hits, 1);
    }

    #[test]
    fn recycled_blocks_are_zeroed() {
        let p = pool(1 << 20);
        let s = Shape::new(&[4]);
        {
            let mut b = p.acquire(s).unwrap();
            b.fill(9.0);
        }
        let b2 = p.acquire(s).unwrap();
        assert!(b2.data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn scratch_skips_zero_fill() {
        let p = pool(1 << 20);
        let s = Shape::new(&[4]);
        {
            let mut b = p.acquire(s).unwrap();
            b.fill(9.0);
        }
        let b2 = p.acquire_scratch(s).unwrap();
        assert!(
            b2.data().iter().all(|&x| x == 9.0),
            "recycled scratch keeps stale contents"
        );
        assert_eq!(p.stats().hits, 1);
    }

    #[test]
    fn budget_enforced() {
        let p = pool(1024); // room for 128 doubles
        let a = p.acquire(Shape::new(&[100])).unwrap();
        let err = p.acquire_raw(Shape::new(&[100])).unwrap_err();
        assert_eq!(err.requested, 800);
        drop(a);
        // After release the storage is parked but reclaimable.
        assert!(p.acquire(Shape::new(&[100])).is_ok());
    }

    #[test]
    fn reclaims_other_classes_under_pressure() {
        let p = pool(1600); // 200 doubles
        {
            let _a = p.acquire(Shape::new(&[100])).unwrap();
        }
        // 800 bytes parked in class 100; a class-150 request needs 1200 and
        // must evict the parked storage to fit.
        let b = p.acquire(Shape::new(&[150]));
        assert!(b.is_ok());
        assert_eq!(p.stats().free_bytes, 0);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let p = pool(1 << 20);
        let a = p.acquire(Shape::new(&[64])).unwrap();
        let b = p.acquire(Shape::new(&[64])).unwrap();
        drop(a);
        drop(b);
        assert_eq!(p.stats().peak_bytes, 2 * 64 * 8);
        assert_eq!(p.stats().live_bytes, 0);
    }

    #[test]
    fn into_block_detaches() {
        let p = pool(1 << 20);
        let b = p.acquire(Shape::new(&[16])).unwrap();
        let owned = b.into_block();
        assert_eq!(owned.len(), 16);
        let st = p.stats();
        assert_eq!(st.live_blocks, 0);
        assert_eq!(st.free_bytes, 0);
    }

    #[test]
    fn release_drops_storage_over_budget() {
        let p = pool(1024); // room for 128 doubles
                            // Adopted storage the pool never handed out: the first fits, the
                            // second would take free bytes past the budget and is dropped.
        p.release(Block::zeros(Shape::new(&[100])));
        p.release(Block::zeros(Shape::new(&[100])));
        let st = p.stats();
        assert_eq!(st.free_bytes, 800);
        assert_eq!(p.size_classes(), 1);
        // Parked plus handed-out storage never exceeds the budget.
        let a = p.acquire_raw(Shape::new(&[100])).unwrap();
        p.release(Block::zeros(Shape::new(&[16])));
        let st = p.stats();
        assert!(st.live_bytes + st.free_bytes <= 1024, "{st:?}");
        p.release(a);
        let st = p.stats();
        assert_eq!((st.live_bytes, st.free_bytes), (0, 800 + 128));
    }

    #[test]
    fn adopted_storage_never_uncounts_live_blocks() {
        let p = pool(1 << 20);
        let _a = p.acquire_raw(Shape::new(&[100])).unwrap();
        p.release(Block::zeros(Shape::new(&[100])));
        let st = p.stats();
        assert_eq!((st.live_blocks, st.live_bytes), (1, 800));
    }

    #[test]
    fn detach_frees_budget_once() {
        let p = pool(1600); // two 100-double blocks
        let a = p.acquire_raw(Shape::new(&[100])).unwrap();
        p.detach(&a);
        p.detach(&a); // idempotent
        assert_eq!(p.stats().live_bytes, 0);
        // `a` left custody, so two more blocks of its size fit the budget.
        let b = p.acquire_raw(Shape::new(&[100])).unwrap();
        let c = p.acquire_raw(Shape::new(&[100])).unwrap();
        assert_eq!(p.stats().live_bytes, 1600);
        // Handing the detached storage back adopts it only within budget.
        p.release(a);
        assert_eq!(p.stats().free_bytes, 0);
        p.release(b);
        p.release(c);
        let st = p.stats();
        assert_eq!((st.live_blocks, st.live_bytes, st.free_bytes), (0, 0, 1600));
    }

    #[test]
    fn store_custody_recycles_without_counting_live() {
        let p = pool(800); // one 100-double block
        let held = p.acquire_raw(Shape::new(&[100])).unwrap();
        // The worker's budget is full, yet a store acquisition succeeds...
        let stored = p.acquire_stored(Shape::new(&[100]), true);
        assert!(stored.data().iter().all(|&x| x == 0.0));
        assert_eq!(p.stats().live_bytes, 800);
        // ...and takes parked storage when there is some.
        p.release(held);
        let again = p.acquire_stored(Shape::new(&[100]), false);
        let st = p.stats();
        assert_eq!((st.hits, st.live_bytes, st.free_bytes), (1, 0, 0));
        assert_eq!(again.len(), 100);
    }

    #[test]
    fn trim_drops_parked_storage() {
        let p = pool(1 << 20);
        {
            let _ = p.acquire(Shape::new(&[32])).unwrap();
        }
        assert!(p.stats().free_bytes > 0);
        p.trim();
        assert_eq!(p.stats().free_bytes, 0);
        assert_eq!(p.size_classes(), 0);
    }

    #[test]
    fn distinct_classes_tracked() {
        let p = pool(1 << 20);
        {
            let _a = p.acquire(Shape::new(&[8])).unwrap();
            let _b = p.acquire(Shape::new(&[16])).unwrap();
        }
        assert_eq!(p.size_classes(), 2);
    }
}
