//! Shared, copy-on-write block handles.
//!
//! The SIP data plane moves the same block through many holders — the home
//! store that owns it, the cache entry on a remote rank, the fault-tolerance
//! journal, an epoch checkpoint, and the in-process fabric envelope carrying
//! it between ranks. A [`BlockHandle`] lets all of those holders share one
//! allocation: cloning a handle bumps a reference count instead of copying
//! the payload, and mutation copies only when the block is actually shared
//! (copy-on-write). A SIP worker mutates through the pool-aware
//! [`BlockHandle::make_unique`], [`BlockHandle::cow_scale`] and
//! [`BlockHandle::cow_axpy`], whose copies land in [`BlockPool`] storage and
//! report the bytes they copied; [`BlockHandle::make_mut`] copies on the
//! heap and serves holders without a pool (the I/O server).

use crate::block::Block;
use crate::pool::{BlockPool, Custody, PoolExhausted};
use crate::shape::Shape;
use std::ops::Deref;
use std::sync::Arc;

/// A reference-counted, copy-on-write handle to a [`Block`].
///
/// `Clone` is O(1) (an `Arc` increment). Reads go through `Deref<Target =
/// Block>`. Writes go through [`make_mut`](BlockHandle::make_mut), which
/// deep-copies the payload only if another holder still shares it.
#[derive(Clone, PartialEq)]
pub struct BlockHandle(Arc<Block>);

impl BlockHandle {
    /// Wraps a block in a fresh (unshared) handle.
    pub fn new(block: Block) -> Self {
        BlockHandle(Arc::new(block))
    }

    /// A zero-filled block of the given shape, behind a fresh handle.
    pub fn zeros(shape: Shape) -> Self {
        Self::new(Block::zeros(shape))
    }

    /// Mutable access, copy-on-write: if the handle is unique this is free;
    /// if it is shared, the payload is cloned on the heap first so no other
    /// holder observes the mutation.
    pub fn make_mut(&mut self) -> &mut Block {
        Arc::make_mut(&mut self.0)
    }

    /// Copy-on-write through `pool`: makes this handle the payload's only
    /// holder, copying a shared payload into pooled storage held by
    /// `custody` first. Returns the mutable payload and the bytes copied (0
    /// when the handle was already unique).
    pub fn make_unique(
        &mut self,
        pool: &BlockPool,
        custody: Custody,
    ) -> Result<(&mut Block, u64), PoolExhausted> {
        let copied = self.update(pool, custody, |_| {}, |src, dst| dst.copy_from_slice(src))?;
        let block = Arc::get_mut(&mut self.0).expect("unique after copy-on-write");
        Ok((block, copied))
    }

    /// `self *= s`. A shared payload is scaled straight into pooled storage
    /// in one pass instead of being copied and then scaled. Returns the
    /// bytes copied (0 when the handle was unique and scaled in place).
    pub fn cow_scale(
        &mut self,
        pool: &BlockPool,
        custody: Custody,
        s: f64,
    ) -> Result<u64, PoolExhausted> {
        self.update(
            pool,
            custody,
            |b| b.scale(s),
            |src, dst| {
                for (d, &x) in dst.iter_mut().zip(src) {
                    *d = x * s;
                }
            },
        )
    }

    /// `self += alpha * x`, fused like [`BlockHandle::cow_scale`]: a shared
    /// payload is combined with `x` straight into pooled storage.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn cow_axpy(
        &mut self,
        pool: &BlockPool,
        custody: Custody,
        alpha: f64,
        x: &Block,
    ) -> Result<u64, PoolExhausted> {
        assert_eq!(self.shape(), x.shape(), "axpy: shape mismatch");
        self.update(
            pool,
            custody,
            |b| b.axpy(alpha, x),
            |src, dst| {
                for ((d, &a), &b) in dst.iter_mut().zip(src).zip(x.data()) {
                    *d = a + alpha * b;
                }
            },
        )
    }

    /// Applies `in_place` to a unique payload; for a shared one, `fused`
    /// writes every element of fresh pooled storage from the shared payload
    /// (stale pool contents are never read) and the handle moves to it.
    fn update(
        &mut self,
        pool: &BlockPool,
        custody: Custody,
        in_place: impl FnOnce(&mut Block),
        fused: impl FnOnce(&[f64], &mut [f64]),
    ) -> Result<u64, PoolExhausted> {
        if let Some(b) = Arc::get_mut(&mut self.0) {
            in_place(b);
            return Ok(0);
        }
        let mut out = match custody {
            Custody::Worker => pool.acquire_scratch(*self.shape())?,
            Custody::Store => pool.acquire_stored(*self.shape(), false),
        };
        fused(self.data(), out.data_mut());
        let copied = self.heap_bytes();
        *self = BlockHandle::new(out);
        Ok(copied)
    }

    /// Unwraps into an owned [`Block`]; deep-copies only if still shared.
    pub fn into_block(self) -> Block {
        match Arc::try_unwrap(self.0) {
            Ok(b) => b,
            Err(arc) => (*arc).clone(),
        }
    }

    /// Do two handles share the same allocation?
    pub fn ptr_eq(a: &Self, b: &Self) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// Number of live holders of this allocation.
    pub fn holders(&self) -> usize {
        Arc::strong_count(&self.0)
    }

    /// Is at least one other holder sharing this allocation?
    pub fn is_shared(&self) -> bool {
        Arc::strong_count(&self.0) > 1
    }

    /// Payload heap bytes (the `f64` data; the fixed header is negligible).
    pub fn heap_bytes(&self) -> u64 {
        self.0.len() as u64 * 8
    }
}

impl Deref for BlockHandle {
    type Target = Block;
    fn deref(&self) -> &Block {
        &self.0
    }
}

impl std::borrow::Borrow<Block> for BlockHandle {
    fn borrow(&self) -> &Block {
        &self.0
    }
}

impl From<Block> for BlockHandle {
    fn from(block: Block) -> Self {
        BlockHandle::new(block)
    }
}

impl std::fmt::Debug for BlockHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BlockHandle({:?}, holders={})", &*self.0, self.holders())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shape::Shape;

    fn block(v: f64) -> Block {
        Block::filled(Shape::new(&[4]), v)
    }

    #[test]
    fn clone_shares_allocation() {
        let a = BlockHandle::new(block(1.0));
        let b = a.clone();
        assert!(BlockHandle::ptr_eq(&a, &b));
        assert_eq!(a.holders(), 2);
        assert!(a.is_shared());
    }

    #[test]
    fn cow_mutation_never_aliases_another_holder() {
        // The satellite CoW property: across a sweep of holder counts and
        // mutation orders, a mutated handle never changes what any other
        // holder reads, and the mutated handle no longer shares storage.
        for holders in 1..5usize {
            let mut a = BlockHandle::new(block(1.0));
            let others: Vec<BlockHandle> = (0..holders).map(|_| a.clone()).collect();
            a.make_mut().fill(9.0);
            for o in &others {
                assert_eq!(o.data()[0], 1.0, "holder observed a CoW mutation");
                assert!(!BlockHandle::ptr_eq(&a, o));
            }
            assert_eq!(a.data()[0], 9.0);
        }
    }

    /// A pool whose recycled storage is all NaN, so any element a CoW path
    /// fails to overwrite shows up in the result.
    fn nan_pool(elems: usize) -> BlockPool {
        let pool = BlockPool::new(crate::pool::PoolConfig::default());
        let stale: Vec<Block> = (0..4)
            .map(|_| {
                let mut b = pool.acquire_raw(Shape::new(&[elems])).unwrap();
                b.fill(f64::NAN);
                b
            })
            .collect();
        for b in stale {
            pool.release(b);
        }
        pool
    }

    fn ramp(shape: Shape) -> Block {
        let mut v = 0.37;
        Block::from_fn(shape, |_| {
            v = (v * 1.7 + 0.3) % 3.0 - 1.5;
            v
        })
    }

    #[test]
    fn cow_into_pool_matches_heap_cow_bitwise() {
        let shape = Shape::new(&[5, 3, 7]);
        let x = ramp(Shape::new(&[5, 3, 7]));
        let pool = nan_pool(shape.len());
        let src = BlockHandle::new(ramp(shape));

        let mut want_scale = (*src).clone();
        want_scale.scale(-2.5);
        let mut h = src.clone();
        assert_eq!(
            h.cow_scale(&pool, Custody::Worker, -2.5).unwrap(),
            src.heap_bytes()
        );
        assert_eq!(h.data(), want_scale.data());

        let mut want_axpy = (*src).clone();
        want_axpy.axpy(-1.0, &x);
        let mut h = src.clone();
        assert_eq!(
            h.cow_axpy(&pool, Custody::Worker, -1.0, &x).unwrap(),
            src.heap_bytes()
        );
        assert_eq!(h.data(), want_axpy.data());

        let mut h = src.clone();
        assert_eq!(
            h.make_unique(&pool, Custody::Store).unwrap().1,
            src.heap_bytes()
        );
        assert_eq!(h.data(), src.data());
        assert!(!BlockHandle::ptr_eq(&h, &src));
        // Every copy came from the NaN-seeded free stack.
        assert_eq!(pool.stats().hits, 3);
    }

    #[test]
    fn pooled_cow_never_aliases_another_holder() {
        let pool = nan_pool(4);
        for op in 0..3 {
            let mut a = BlockHandle::new(block(1.0));
            let other = a.clone();
            match op {
                0 => a
                    .cow_scale(&pool, Custody::Worker, 3.0)
                    .map(|_| ())
                    .unwrap(),
                1 => a
                    .cow_axpy(&pool, Custody::Store, 2.0, &block(1.0))
                    .map(|_| ())
                    .unwrap(),
                _ => a.make_unique(&pool, Custody::Worker).unwrap().0.fill(3.0),
            }
            assert_eq!(other.data(), &[1.0; 4], "holder observed a CoW mutation");
            assert_eq!(a.data(), &[3.0; 4]);
            assert!(!other.is_shared());
        }
    }

    #[test]
    fn unique_cow_is_in_place_and_copies_nothing() {
        let pool = BlockPool::new(crate::pool::PoolConfig::default());
        let mut a = BlockHandle::new(block(1.0));
        let before = a.data().as_ptr();
        assert_eq!(a.cow_scale(&pool, Custody::Worker, 2.0).unwrap(), 0);
        assert_eq!(
            a.cow_axpy(&pool, Custody::Worker, 1.0, &block(1.0))
                .unwrap(),
            0
        );
        assert_eq!(a.make_unique(&pool, Custody::Worker).unwrap().1, 0);
        assert_eq!(a.data().as_ptr(), before);
        assert_eq!(a.data(), &[3.0; 4]);
        assert_eq!(pool.stats().misses + pool.stats().hits, 0);
    }

    #[test]
    fn unique_mutation_is_in_place() {
        let mut a = BlockHandle::new(block(1.0));
        let before = a.data().as_ptr();
        a.make_mut().fill(2.0);
        assert_eq!(a.data().as_ptr(), before, "unique make_mut must not copy");
    }

    #[test]
    fn into_block_unwraps() {
        let a = BlockHandle::new(block(3.0));
        let b = a.clone().into_block(); // shared: copies
        assert_eq!(b.data()[0], 3.0);
        let c = a.into_block(); // unique: moves
        assert_eq!(c.data()[0], 3.0);
    }

    #[test]
    fn deref_reads_and_bytes() {
        let a = BlockHandle::zeros(Shape::new(&[2, 3]));
        assert_eq!(a.len(), 6);
        assert_eq!(a.heap_bytes(), 48);
        assert_eq!(a.sum(), 0.0);
    }
}
