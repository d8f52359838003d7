//! An in-memory erasure-coded distributed file system: the HDFS-shaped
//! substrate the paper's prototype runs inside (§VI), reduced to its
//! storage semantics.
//!
//! [`Dfs`] keeps files as coding groups of blocks spread over a set of
//! servers, and implements the full storage lifecycle:
//!
//! * [`Dfs::put`] — encode and place (emptiest servers first, rotated
//!   per group so load balances across servers), through the same
//!   write path as the staged [`Dfs::put_begin`] / [`Dfs::put_append`]
//!   / [`Dfs::put_commit`] lifecycle: a failed write leaves no blocks;
//! * reads, all over one degraded-aware group decode loop:
//!   [`Dfs::read`] for ranges and retries ([`ReadOptions`] in,
//!   [`ReadOutcome`] out), [`Dfs::get`] for a whole file under a shared
//!   borrow, and [`Dfs::read_groups`] for one window of groups;
//! * [`Dfs::fail_server`] — failure injection (blocks on the server are
//!   lost);
//! * [`Dfs::repair`] — rebuild every lost block, preferring each block's
//!   local repair plan and falling back to group decode, with exact
//!   accounting of bytes read (the paper's disk-I/O metric);
//! * [`Dfs::fsck`] — per-file health report.
//!
//! Beyond clean crashes, the DFS models *messy* failures and heals
//! itself through them — the regime where locally repairable codes earn
//! their keep:
//!
//! * [`FaultPlan`] — a deterministic, seedable schedule of crashes,
//!   transient outage windows, stragglers, and silent block corruption,
//!   driven by a logical clock ([`Dfs::schedule`] /
//!   [`Dfs::advance_to`]);
//! * per-block CRC-32 checksums ([`crc32`]) stamped at write time and
//!   verified on every read, so corruption surfaces as an erasure and
//!   is routed around, never returned;
//! * [`ReadOptions::with_retries`] — bounded retry-with-backoff across
//!   transient outage windows;
//! * [`Dfs::scan_endangered`] / [`Dfs::drain_repairs`] — a background
//!   repair queue that rebuilds the most-endangered groups (fewest
//!   surviving blocks above the decode threshold) first.
//!
//! Everything is observable through the global `galloper-obs` registry:
//! the `dfs.faults.*` and `dfs.repair_queue.*` counters, byte-flow
//! counters (`dfs.bytes_read`, `dfs.bytes_written`,
//! `dfs.degraded_reads`), and per-op latency histograms
//! (`dfs.op.*_us`, `dfs.store.block_bytes`). Every top-level entry
//! point also opens a request-scoped span (`dfs.put`, `dfs.get`,
//! `dfs.read`, ...), so with tracing on, a degraded read —
//! including its retries, degraded decodes, and the repairs it
//! triggers — renders as one connected tree in the Chrome trace; and
//! with `GALLOPER_OP_LOG` set, each top-level operation emits a
//! structured JSON report line (bytes, stripes, retries, degraded
//! reads, repair triggers, wall/queue/compute time).
//!
//! The type is generic over the code, so Reed–Solomon, Pyramid, Carousel,
//! and Galloper files can live in DFS instances side by side and their
//! repair bills compared — see the `tests/` of this crate and the
//! repository's `examples/`.
//!
//! Storage itself sits behind the [`BlockStore`] trait ([`store`]):
//! the default [`MemStore`] keeps every test and simulation
//! deterministic and in-process, [`DiskStore`] persists one block per
//! file under a root directory (what `galloper` storage daemons
//! serve), and `galloper-net` adds a `RemoteStore` client so the same
//! `Dfs` logic runs a networked cluster.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;
pub mod faults;
mod fs;
mod health;
mod repair_queue;
pub mod store;

pub use crc::crc32;
pub use faults::{Fault, FaultPlan, FaultPlanConfig, TimedFault};
pub use fs::{
    Dfs, DfsError, DrainReport, FileId, ReadOptions, ReadOutcome, ReadReport, RepairSummary,
    ServerHealth,
};
pub use galloper_erasure::{AsLinearCode, ErasureCode};
pub use health::{FileHealth, FsckReport, GroupHealth};
pub use store::{BlockGet, BlockKey, BlockStore, DiskStore, MemStore, StoreError, StoreHealth};
