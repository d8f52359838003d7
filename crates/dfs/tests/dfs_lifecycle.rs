//! Lifecycle tests for the erasure-coded DFS: put/get under failures,
//! repair accounting across code families, and fsck reporting.

use std::cell::Cell;
use std::rc::Rc;

use galloper::Galloper;
use galloper_dfs::{
    BlockGet, BlockKey, BlockStore, Dfs, DfsError, ErasureCode, GroupHealth, MemStore, ReadOptions,
    StoreError, StoreHealth,
};
use galloper_pyramid::Pyramid;
use galloper_rs::ReedSolomon;
use galloper_testkit::TestRng;

fn random_data(len: usize, seed: u64) -> Vec<u8> {
    TestRng::new(seed).bytes(len)
}

#[test]
fn put_get_roundtrip_multiple_files() {
    let mut dfs = Dfs::new(10, Galloper::uniform(4, 2, 1, 512).unwrap());
    let files: Vec<(String, Vec<u8>)> = (0..5)
        .map(|i| (format!("f{i}"), random_data(10_000 + i * 3_777, i as u64)))
        .collect();
    for (name, data) in &files {
        dfs.put(name, data).unwrap();
    }
    for (name, data) in &files {
        assert_eq!(&dfs.get(name).unwrap(), data, "{name}");
    }
    assert!(dfs.fsck().all_healthy());
    // Duplicate names are rejected.
    assert!(matches!(
        dfs.put("f0", b"x"),
        Err(DfsError::AlreadyExists(_))
    ));
    assert!(matches!(dfs.get("missing"), Err(DfsError::NotFound(_))));
}

#[test]
fn degraded_reads_survive_g_plus_one_failures() {
    let mut dfs = Dfs::new(12, Galloper::uniform(4, 2, 1, 256).unwrap());
    let data = random_data(50_000, 7);
    dfs.put("a", &data).unwrap();
    // Fail two servers (g + 1 = 2 tolerance per group).
    dfs.fail_server(0);
    dfs.fail_server(5);
    assert_eq!(dfs.get("a").unwrap(), data);
    let report = dfs.fsck();
    assert!(!report.all_healthy());
    assert!(report.data_loss().is_empty());
}

#[test]
fn repair_restores_full_health_and_accounts_io() {
    let mut dfs = Dfs::new(12, Galloper::uniform(4, 2, 1, 256).unwrap());
    let data = random_data(40_000, 9);
    dfs.put("a", &data).unwrap();
    dfs.fail_server(2);
    let summary = dfs.repair().unwrap();
    assert!(summary.repaired_locally > 0);
    assert_eq!(summary.unrecoverable_groups, 0);
    assert!(summary.bytes_read > 0);
    assert!(dfs.fsck().all_healthy());
    assert_eq!(dfs.get("a").unwrap(), data);
    // A second repair is a no-op.
    let again = dfs.repair().unwrap();
    assert_eq!(again.bytes_read, 0);
}

#[test]
fn repair_bills_galloper_less_than_rs() {
    // The Fig. 8 economics at DFS scale: same data, one failed server,
    // compare total repair bytes.
    let data = random_data(200_000, 11);

    let mut gal = Dfs::new(12, Galloper::uniform(4, 2, 1, 1024).unwrap());
    gal.put("a", &data).unwrap();
    let victim = {
        // Fail a server that actually holds blocks.
        (0..12).find(|&s| gal.blocks_on(s) > 0).unwrap()
    };
    gal.fail_server(victim);
    let gal_summary = gal.repair().unwrap();

    let mut rs = Dfs::new(12, ReedSolomon::new(4, 2, 7 * 1024).unwrap());
    rs.put("a", &data).unwrap();
    let victim = (0..12).find(|&s| rs.blocks_on(s) > 0).unwrap();
    rs.fail_server(victim);
    let rs_summary = rs.repair().unwrap();

    assert!(
        gal_summary.bytes_read < rs_summary.bytes_read,
        "galloper {} bytes vs rs {}",
        gal_summary.bytes_read,
        rs_summary.bytes_read
    );
}

#[test]
fn decode_fallback_when_repair_sources_lost() {
    // Fail two servers hosting blocks of the same group: at least one
    // lost block's plan depends on the other lost block, forcing the
    // decode path.
    let mut dfs = Dfs::new(9, Pyramid::new(4, 2, 1, 512).unwrap());
    let data = random_data(14_336, 13); // exactly one group (4 * 512 * 7)?
    dfs.put("a", &data).unwrap();
    // Find the two servers hosting blocks 0 and 1 (same group) of group 0.
    // Placement is internal; brute-force: fail server pairs until the
    // summary shows a decode-path repair, then verify integrity.
    let mut saw_decode = false;
    'outer: for s1 in 0..9 {
        for s2 in (s1 + 1)..9 {
            let mut trial = Dfs::new(9, Pyramid::new(4, 2, 1, 512).unwrap());
            trial.put("a", &data).unwrap();
            if trial.blocks_on(s1) == 0 || trial.blocks_on(s2) == 0 {
                continue;
            }
            trial.fail_server(s1);
            trial.fail_server(s2);
            let summary = trial.repair().unwrap();
            assert_eq!(summary.unrecoverable_groups, 0);
            assert_eq!(trial.get("a").unwrap(), data);
            assert!(trial.fsck().all_healthy());
            if summary.repaired_via_decode > 0 {
                saw_decode = true;
                break 'outer;
            }
        }
    }
    assert!(saw_decode, "some double failure must hit the decode path");
}

#[test]
fn unrecoverable_groups_are_reported_not_destroyed() {
    let mut dfs = Dfs::new(12, ReedSolomon::new(4, 2, 512).unwrap());
    let data = random_data(8_192, 17);
    dfs.put("a", &data).unwrap();
    // Fail three block-hosting servers: more than r = 2 tolerance.
    let mut failed = 0;
    for s in 0..12 {
        if dfs.blocks_on(s) > 0 && failed < 3 {
            dfs.fail_server(s);
            failed += 1;
        }
    }
    assert!(matches!(dfs.get("a"), Err(DfsError::DataLoss { .. })));
    let summary = dfs.repair().unwrap();
    assert!(summary.unrecoverable_groups > 0);
    let report = dfs.fsck();
    assert!(!report.data_loss().is_empty());
    assert!(matches!(
        report.files[0].groups[0],
        GroupHealth::Unrecoverable { lost: 3 }
    ));
}

#[test]
fn range_reads_through_dfs() {
    let mut dfs = Dfs::new(10, Galloper::uniform(4, 2, 1, 128).unwrap());
    let data = random_data(30_000, 19);
    dfs.put("a", &data).unwrap();
    dfs.fail_server(1);
    for (offset, len) in [
        (0usize, 100usize),
        (3_583, 4_097),
        (29_990, 10),
        (0, 30_000),
    ] {
        let read = dfs.read("a", ReadOptions::range(offset, len)).unwrap();
        assert_eq!(read.bytes, &data[offset..offset + len], "{offset}+{len}");
    }
    assert!(matches!(
        dfs.read("a", ReadOptions::range(29_999, 2)),
        Err(DfsError::OutOfRange { .. })
    ));
}

#[test]
fn placement_balances_load() {
    let mut dfs = Dfs::new(14, Galloper::uniform(4, 2, 1, 64).unwrap());
    for i in 0..20 {
        dfs.put(&format!("f{i}"), &random_data(4_000, i as u64))
            .unwrap();
    }
    let counts: Vec<usize> = (0..14).map(|s| dfs.blocks_on(s)).collect();
    let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
    assert!(max - min <= 2, "placement should balance: {counts:?}");
}

#[test]
fn revive_brings_back_capacity_not_data() {
    let mut dfs = Dfs::new(7, Galloper::uniform(4, 2, 1, 64).unwrap());
    let data = random_data(5_000, 23);
    dfs.put("a", &data).unwrap();
    dfs.fail_server(3);
    assert_eq!(dfs.live_servers(), 6);
    // With only 6 live servers and 7 blocks per group, repair cannot
    // re-place everything...
    assert!(matches!(dfs.repair(), Err(DfsError::NotEnoughServers)));
    // ...until the machine is replaced (empty).
    dfs.revive_server(3);
    assert_eq!(dfs.blocks_on(3), 0);
    let summary = dfs.repair().unwrap();
    assert!(summary.repaired_locally > 0);
    assert!(dfs.fsck().all_healthy());
    assert_eq!(dfs.get("a").unwrap(), data);
}

#[test]
fn chunked_put_matches_oneshot_and_hides_until_commit() {
    let code = || Galloper::uniform(4, 2, 1, 512).unwrap();
    // Ragged sizes around group boundaries, fed in awkward chunk sizes.
    for (len, chunk) in [
        (0usize, 1usize),
        (1, 1),
        (2047, 100),
        (2048, 512),
        (50_000, 7_001),
    ] {
        let data = random_data(len, len as u64);
        let mut oneshot = Dfs::new(10, code());
        oneshot.put("x", &data).unwrap();

        let mut dfs = Dfs::new(10, code());
        dfs.put_begin("x").unwrap();
        // Open uploads are invisible to reads and block duplicate names.
        assert!(matches!(dfs.get("x"), Err(DfsError::NotFound(_))));
        assert!(matches!(
            dfs.put("x", b"y"),
            Err(DfsError::AlreadyExists(_))
        ));
        assert!(matches!(
            dfs.put_begin("x"),
            Err(DfsError::AlreadyExists(_))
        ));
        for piece in data.chunks(chunk.max(1)) {
            dfs.put_append("x", piece).unwrap();
        }
        if data.is_empty() {
            dfs.put_append("x", &data).unwrap();
        }
        dfs.put_commit("x").unwrap();
        assert_eq!(dfs.get("x").unwrap(), data, "len={len} chunk={chunk}");
        let manifest = dfs.object_manifest("x").unwrap();
        assert_eq!(manifest.object_len, len);
        assert_eq!(
            manifest.num_groups,
            oneshot.object_manifest("x").unwrap().num_groups,
            "len={len}"
        );
        // The same block bytes landed on the same servers.
        for server in 0..10 {
            assert_eq!(
                stored_blocks(&dfs, server),
                stored_blocks(&oneshot, server),
                "len={len} chunk={chunk} server={server}"
            );
        }
        // Windowed reads reassemble the object exactly.
        let mut windowed = Vec::new();
        let mut g = 0;
        while g < manifest.num_groups {
            let w = dfs.read_groups("x", g, 3).unwrap();
            windowed.extend_from_slice(&w);
            g += 3;
        }
        assert_eq!(windowed, data, "len={len}");
        assert!(dfs.fsck().all_healthy());
    }
}

#[test]
fn chunked_put_survives_failures_like_oneshot() {
    let mut dfs = Dfs::new(12, Galloper::uniform(4, 2, 1, 256).unwrap());
    let data = random_data(60_000, 31);
    dfs.put_begin("a").unwrap();
    for piece in data.chunks(9_000) {
        dfs.put_append("a", piece).unwrap();
    }
    dfs.put_commit("a").unwrap();
    dfs.fail_server(1);
    dfs.fail_server(6);
    assert_eq!(dfs.get("a").unwrap(), data, "degraded whole read");
    let groups = dfs.object_manifest("a").unwrap().num_groups;
    assert_eq!(dfs.read_groups("a", 0, groups).unwrap(), data);
    dfs.repair().unwrap();
    assert!(dfs.fsck().all_healthy());
}

#[test]
fn put_abort_reclaims_blocks_and_frees_the_name() {
    let mut dfs = Dfs::new(10, Galloper::uniform(4, 2, 1, 128).unwrap());
    let data = random_data(20_000, 5);
    dfs.put_begin("a").unwrap();
    dfs.put_append("a", &data).unwrap();
    let stored: usize = (0..10).map(|s| dfs.blocks_on(s)).sum();
    assert!(stored > 0, "groups were placed before the abort");
    assert!(dfs.put_abort("a"));
    assert!(!dfs.put_abort("a"), "second abort is a no-op");
    let after: usize = (0..10).map(|s| dfs.blocks_on(s)).sum();
    assert_eq!(after, 0, "aborted upload leaves no blocks behind");
    // The name is free again.
    dfs.put("a", &data).unwrap();
    assert_eq!(dfs.get("a").unwrap(), data);
    // Committing or appending to a never-opened name fails cleanly.
    assert!(matches!(
        dfs.put_append("b", b"x"),
        Err(DfsError::NotFound(_))
    ));
    assert!(matches!(dfs.put_commit("b"), Err(DfsError::NotFound(_))));
    // read_groups past the end is OutOfRange.
    let groups = dfs.object_manifest("a").unwrap().num_groups;
    assert!(matches!(
        dfs.read_groups("a", groups + 1, 1),
        Err(DfsError::OutOfRange { .. })
    ));
}

/// Every block on `server`, sorted by key, with what it reads back as.
fn stored_blocks<C: ErasureCode, S: BlockStore>(
    dfs: &Dfs<C, S>,
    server: usize,
) -> Vec<(BlockKey, BlockGet)> {
    let store = dfs.store(server);
    let mut keys = store.scan_blocks().unwrap();
    keys.sort_unstable();
    keys.into_iter()
        .map(|k| (k, store.get_block(k).unwrap()))
        .collect()
}

/// A [`MemStore`] that refuses every write once a budget shared by all
/// the stores of one cluster runs out — a disk filling up mid-put.
#[derive(Debug)]
struct FlakyStore {
    inner: MemStore,
    writes_left: Rc<Cell<usize>>,
}

impl BlockStore for FlakyStore {
    fn put_block(&mut self, key: BlockKey, bytes: &[u8]) -> Result<(), StoreError> {
        match self.writes_left.get() {
            0 => Err(StoreError::Backend("write budget exhausted".into())),
            n => {
                self.writes_left.set(n - 1);
                self.inner.put_block(key, bytes)
            }
        }
    }

    fn get_block(&self, key: BlockKey) -> Result<BlockGet, StoreError> {
        self.inner.get_block(key)
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

    fn block_count(&self) -> usize {
        self.inner.block_count()
    }

    fn wipe(&mut self) {
        self.inner.wipe();
    }

    fn probe(&self) -> Result<StoreHealth, StoreError> {
        self.inner.probe()
    }
}

/// Galloper(4,2,1) — seven blocks a group — over ten flaky stores that
/// accept `writes` block writes in total.
fn flaky_cluster(writes: usize) -> (Dfs<Galloper, FlakyStore>, Rc<Cell<usize>>) {
    let writes_left = Rc::new(Cell::new(writes));
    let stores = (0..10)
        .map(|_| FlakyStore {
            inner: MemStore::new(),
            writes_left: Rc::clone(&writes_left),
        })
        .collect();
    let dfs = Dfs::with_stores(stores, Galloper::uniform(4, 2, 1, 128).unwrap());
    (dfs, writes_left)
}

fn total_blocks<C: ErasureCode, S: BlockStore>(dfs: &Dfs<C, S>) -> usize {
    (0..dfs.num_servers()).map(|s| dfs.blocks_on(s)).sum()
}

#[test]
fn failed_put_leaves_no_blocks_and_burns_its_id() {
    // Two whole groups (14 blocks) fit the budget; the third group
    // fails after its third block.
    let (mut dfs, writes_left) = flaky_cluster(17);
    let data = random_data(3 * dfs.code().message_len(), 41);
    assert!(matches!(dfs.put("a", &data), Err(DfsError::Store(_))));
    assert_eq!(writes_left.get(), 0, "the put ran into the budget");
    assert_eq!(total_blocks(&dfs), 0, "a failed put leaves no blocks");
    assert!(matches!(dfs.get("a"), Err(DfsError::NotFound(_))));

    // The failed put's id is never handed out again.
    writes_left.set(usize::MAX);
    let id = dfs.put("b", &data).unwrap();
    let (mut fresh, _) = flaky_cluster(usize::MAX);
    assert_ne!(id, fresh.put("b", &data).unwrap(), "FileId reused");
    assert_eq!(dfs.get("b").unwrap(), data);
    // The failed name is free again.
    dfs.put("a", &data).unwrap();
    assert_eq!(dfs.get("a").unwrap(), data);
}

#[test]
fn failed_append_then_abort_leaves_no_blocks() {
    let (mut dfs, writes_left) = flaky_cluster(17);
    let data = random_data(3 * dfs.code().message_len(), 43);
    dfs.put_begin("a").unwrap();
    assert!(matches!(
        dfs.put_append("a", &data),
        Err(DfsError::Store(_))
    ));
    assert!(dfs.put_abort("a"));
    assert_eq!(
        total_blocks(&dfs),
        0,
        "abort reclaims the half-written group"
    );

    // A failed commit destroys the upload and its blocks by itself.
    writes_left.set(7);
    dfs.put_begin("c").unwrap();
    dfs.put_append("c", &data[..dfs.code().message_len() + 1])
        .unwrap();
    assert_eq!(total_blocks(&dfs), 7, "one whole group stored");
    assert!(matches!(dfs.put_commit("c"), Err(DfsError::Store(_))));
    assert_eq!(total_blocks(&dfs), 0);
    assert!(
        !dfs.put_abort("c"),
        "the failed commit already destroyed it"
    );
}
