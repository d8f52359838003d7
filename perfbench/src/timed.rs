//! Timing wrappers that measure a layer from outside, at its public
//! trait boundary: [`Timed`] around a [`BlockStore`] (a gateway's
//! `RemoteStore`, a daemon's `DiskStore`) or around an [`ErasureCode`].
//! The program's code is untouched; the traced run simply composes the
//! cluster from wrapped parts.

use std::ops::Sub;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use galloper_dfs::{BlockGet, BlockKey, BlockStore, StoreError, StoreHealth};
use galloper_erasure::{CodeError, DataLayout, ErasureCode, RepairPlan};

/// Calls, busy time, bytes and errors of one operation kind. Relaxed
/// atomics: these are statistics and publish no other data.
#[derive(Debug, Default)]
pub struct OpTally {
    calls: AtomicU64,
    nanos: AtomicU64,
    bytes: AtomicU64,
    errors: AtomicU64,
}

impl OpTally {
    fn record(&self, started: Instant, bytes: usize, failed: bool) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.errors.fetch_add(u64::from(failed), Ordering::Relaxed);
    }

    fn snapshot(&self) -> OpStats {
        OpStats {
            calls: self.calls.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of an [`OpTally`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct OpStats {
    /// Calls made.
    pub calls: u64,
    /// Wall time spent inside the calls, summed over callers.
    pub nanos: u64,
    /// Payload bytes moved (read, written, encoded or decoded).
    pub bytes: u64,
    /// Calls that returned an error.
    pub errors: u64,
}

impl OpStats {
    /// Total busy time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.nanos as f64 / 1e6
    }
}

impl Sub for OpStats {
    type Output = OpStats;
    fn sub(self, rhs: OpStats) -> OpStats {
        OpStats {
            calls: self.calls - rhs.calls,
            nanos: self.nanos - rhs.nanos,
            bytes: self.bytes - rhs.bytes,
            errors: self.errors - rhs.errors,
        }
    }
}

/// The tallies one layer keeps, shared by every wrapper of that layer
/// (all seven `RemoteStore`s feed one `LayerTally`). A store layer
/// fills `get`/`put`/`probe`; a code layer `encode`/`decode`.
#[derive(Debug, Default)]
pub struct LayerTally {
    get: OpTally,
    put: OpTally,
    probe: OpTally,
    encode: OpTally,
    decode: OpTally,
}

impl LayerTally {
    /// A fresh, shareable tally.
    pub fn shared() -> Arc<LayerTally> {
        Arc::new(LayerTally::default())
    }

    /// Copies every counter.
    pub fn snapshot(&self) -> LayerStats {
        LayerStats {
            get: self.get.snapshot(),
            put: self.put.snapshot(),
            probe: self.probe.snapshot(),
            encode: self.encode.snapshot(),
            decode: self.decode.snapshot(),
        }
    }
}

/// A point-in-time copy of a [`LayerTally`]; subtract two to get the
/// work done in between.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LayerStats {
    /// `get_block` calls.
    pub get: OpStats,
    /// `put_block` calls.
    pub put: OpStats,
    /// `probe` and `block_count` calls (placement probes).
    pub probe: OpStats,
    /// `encode` / `encode_into` calls.
    pub encode: OpStats,
    /// `decode` calls.
    pub decode: OpStats,
}

impl Sub for LayerStats {
    type Output = LayerStats;
    fn sub(self, rhs: LayerStats) -> LayerStats {
        LayerStats {
            get: self.get - rhs.get,
            put: self.put - rhs.put,
            probe: self.probe - rhs.probe,
            encode: self.encode - rhs.encode,
            decode: self.decode - rhs.decode,
        }
    }
}

/// A layer wrapped so every call through its trait is counted and
/// timed into a shared [`LayerTally`].
#[derive(Debug)]
pub struct Timed<T> {
    inner: T,
    tally: Arc<LayerTally>,
}

impl<T> Timed<T> {
    /// Wraps `inner`, recording into `tally`.
    pub fn new(inner: T, tally: Arc<LayerTally>) -> Timed<T> {
        Timed { inner, tally }
    }
}

impl<S: BlockStore> BlockStore for Timed<S> {
    fn put_block(&mut self, key: BlockKey, bytes: &[u8]) -> Result<(), StoreError> {
        let t0 = Instant::now();
        let res = self.inner.put_block(key, bytes);
        self.tally.put.record(t0, bytes.len(), res.is_err());
        res
    }

    fn get_block(&self, key: BlockKey) -> Result<BlockGet, StoreError> {
        let t0 = Instant::now();
        let res = self.inner.get_block(key);
        let bytes = match &res {
            Ok(BlockGet::Ok(b)) => b.len(),
            _ => 0,
        };
        self.tally.get.record(t0, bytes, res.is_err());
        res
    }

    fn delete_block(&mut self, key: BlockKey) -> Result<bool, StoreError> {
        self.inner.delete_block(key)
    }

    fn scan_blocks(&self) -> Result<Vec<BlockKey>, StoreError> {
        self.inner.scan_blocks()
    }

    fn contains_block(&self, key: BlockKey) -> bool {
        self.inner.contains_block(key)
    }

    /// Counted as a probe: placement calls it per comparison, and for a
    /// `RemoteStore` each call is a `Probe` round trip.
    fn block_count(&self) -> usize {
        let t0 = Instant::now();
        let n = self.inner.block_count();
        self.tally.probe.record(t0, 0, false);
        n
    }

    fn wipe(&mut self) {
        self.inner.wipe();
    }

    fn probe(&self) -> Result<StoreHealth, StoreError> {
        let t0 = Instant::now();
        let res = self.inner.probe();
        self.tally.probe.record(t0, 0, res.is_err());
        res
    }

    fn flip_byte(&mut self, key: BlockKey, pos: usize) -> bool {
        self.inner.flip_byte(key, pos)
    }
}

impl<C: ErasureCode> ErasureCode for Timed<C> {
    fn num_data_blocks(&self) -> usize {
        self.inner.num_data_blocks()
    }
    fn num_blocks(&self) -> usize {
        self.inner.num_blocks()
    }
    fn block_role(&self, block: usize) -> galloper_erasure::BlockRole {
        self.inner.block_role(block)
    }
    fn message_len(&self) -> usize {
        self.inner.message_len()
    }
    fn block_len(&self) -> usize {
        self.inner.block_len()
    }
    fn encode(&self, data: &[u8]) -> Result<Vec<Vec<u8>>, CodeError> {
        let t0 = Instant::now();
        let res = self.inner.encode(data);
        self.tally.encode.record(t0, data.len(), res.is_err());
        res
    }
    fn encode_into(&self, data: &[u8], blocks: &mut [&mut [u8]]) -> Result<(), CodeError> {
        let t0 = Instant::now();
        let res = self.inner.encode_into(data, blocks);
        self.tally.encode.record(t0, data.len(), res.is_err());
        res
    }
    fn decode(&self, blocks: &[Option<&[u8]>]) -> Result<Vec<u8>, CodeError> {
        let t0 = Instant::now();
        let res = self.inner.decode(blocks);
        let bytes = res.as_ref().map_or(0, Vec::len);
        self.tally.decode.record(t0, bytes, res.is_err());
        res
    }
    fn repair_plan(&self, target: usize) -> Result<RepairPlan, CodeError> {
        self.inner.repair_plan(target)
    }
    fn reconstruct(&self, target: usize, sources: &[(usize, &[u8])]) -> Result<Vec<u8>, CodeError> {
        self.inner.reconstruct(target, sources)
    }
    fn layout(&self) -> DataLayout {
        self.inner.layout()
    }
    fn can_decode(&self, available: &[bool]) -> bool {
        self.inner.can_decode(available)
    }
    fn storage_overhead(&self) -> f64 {
        self.inner.storage_overhead()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Rng;
    use galloper_codes::{build_code, CodeSpec};
    use galloper_dfs::{Dfs, MemStore};

    type TimedDfs = Dfs<Timed<galloper_codes::BoxedCode>, Timed<MemStore>>;

    /// Seven timed in-memory stores under a timed Galloper(4,2,1) code
    /// with 4 KiB stripes — the serve workloads' configuration — with
    /// the store and code tallies.
    fn timed_dfs() -> (TimedDfs, Arc<LayerTally>, Arc<LayerTally>) {
        let stores = LayerTally::shared();
        let codec = LayerTally::shared();
        let code = build_code(&CodeSpec::galloper(4, 2, 1, 4096)).unwrap();
        let dfs = Dfs::with_stores(
            (0..7)
                .map(|_| Timed::new(MemStore::new(), Arc::clone(&stores)))
                .collect(),
            Timed::new(code, Arc::clone(&codec)),
        );
        (dfs, stores, codec)
    }

    #[test]
    fn healthy_get_reads_all_seven_blocks() {
        let (mut dfs, stores, codec) = timed_dfs();
        let payload = Rng::new(1, 1).bytes(64 << 10);
        dfs.put("small", &payload).unwrap();
        let before = stores.snapshot();
        let codec_before = codec.snapshot();
        assert_eq!(dfs.get("small").unwrap(), payload);
        let d = stores.snapshot() - before;
        assert_eq!(d.get.calls, 7);
        assert_eq!(d.get.bytes, 200_704);
        assert_eq!(d.get.errors, 0);
        assert_eq!(d.put.calls, 0);
        assert_eq!((codec.snapshot() - codec_before).decode.calls, 1);
    }

    #[test]
    fn one_mib_put_writes_seventy_blocks() {
        let (mut dfs, stores, codec) = timed_dfs();
        let payload = Rng::new(2, 1).bytes(1 << 20);
        dfs.put("big", &payload).unwrap();
        let s = stores.snapshot();
        assert_eq!(s.put.calls, 70);
        assert_eq!(s.put.bytes, 70 * 28 * 1024);
        assert_eq!(s.get.calls, 0);
        assert!(s.probe.calls > 0, "placement probes every store");
        let c = codec.snapshot();
        assert_eq!(c.encode.calls, 10);
        assert_eq!(c.encode.bytes, 10 * 112 * 1024);
    }
}
