//! Persistence integration tests: restart-without-resign, backend
//! proof equivalence, corruption robustness, and the typed refusals of
//! a service's snapshot refresh.
//!
//! The tests in this file share one process-global RSA signing
//! counter ([`spnet_crypto::rsa::signing_ops`]), so every test takes
//! `sign_lock()` — publishes sign, and the cold-start test must
//! observe an exactly-zero delta across its load window.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::methods::{LdmConfig, MethodConfig};
use spnet_core::owner::{DataOwner, ProviderPackage, Published};
use spnet_core::prelude::*;
use spnet_core::provider::ServiceProvider;
use spnet_core::snapshot::SNAPSHOT_FILE;
use spnet_graph::gen::grid_network;
use spnet_graph::NodeId;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

static SIGN_LOCK: Mutex<()> = Mutex::new(());

fn sign_lock() -> MutexGuard<'static, ()> {
    SIGN_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spnet-persist-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn all_methods() -> Vec<MethodConfig> {
    vec![
        MethodConfig::Dij,
        MethodConfig::Full {
            use_floyd_warshall: false,
        },
        MethodConfig::Ldm(LdmConfig {
            landmarks: 6,
            ..LdmConfig::default()
        }),
        MethodConfig::Hyp { cells: 9 },
    ]
}

fn publish(method: &MethodConfig, seed: u64) -> Published {
    let g = grid_network(9, 9, 1.15, seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5AFE);
    DataOwner::publish(&g, method, &SetupConfig::default(), &mut rng)
}

/// The acceptance bar of the snapshot subsystem: a provider
/// cold-started from disk performs **zero** RSA signing operations and
/// serves byte-identical verified answers, on both backends, for all
/// four methods.
#[test]
fn cold_start_signs_nothing_and_serves_byte_equal() {
    let _g = sign_lock();
    for (i, method) in all_methods().iter().enumerate() {
        let p = publish(method, 900 + i as u64);
        let dir = tmpdir(&format!("coldstart-{i}"));
        p.save_snapshot(&dir).unwrap();
        let fresh = ServiceProvider::new(p.package.clone());
        let queries = [(NodeId(0), NodeId(80)), (NodeId(5), NodeId(76))];
        for backend in [StoreBackend::Mem, StoreBackend::File] {
            let before = spnet_crypto::rsa::signing_ops();
            let loaded = ProviderPackage::load_snapshot(&dir, backend).unwrap();
            assert_eq!(
                spnet_crypto::rsa::signing_ops(),
                before,
                "{} cold start must not sign",
                method.name()
            );
            assert_eq!(loaded.public_key, p.public_key);
            let cold = ServiceProvider::new(loaded.package);
            for &(s, t) in &queries {
                let want = spnet_core::wire::encode_answer(&fresh.answer(s, t).unwrap());
                let got = spnet_core::wire::encode_answer(&cold.answer(s, t).unwrap());
                assert_eq!(got, want, "{} {backend:?} answer bytes", method.name());
            }
            // The original clients' key verifies the cold answers.
            let client = Client::new(p.public_key.clone());
            let (s, t) = queries[0];
            let v = client.verify(s, t, &cold.answer(s, t).unwrap()).unwrap();
            assert!(v.distance > 0.0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The `File` backend leaves tree pages on disk: opening faults only
/// the hot pages, and serving a query faults more in on demand.
#[test]
fn file_backend_faults_pages_lazily() {
    let _g = sign_lock();
    let p = publish(
        &MethodConfig::Full {
            use_floyd_warshall: false,
        },
        930,
    );
    let dir = tmpdir("lazy");
    p.save_snapshot(&dir).unwrap();
    let loaded = ProviderPackage::load_snapshot(&dir, StoreBackend::File).unwrap();
    assert!(loaded.store.is_lazy());
    let after_open = loaded.store.fault_count();
    let provider = ServiceProvider::new(loaded.package);
    provider.answer(NodeId(0), NodeId(80)).unwrap();
    assert!(
        loaded.store.fault_count() > after_open,
        "a proof must fault tree pages in"
    );

    // The Mem backend is eager: nothing lazy, no fault accounting.
    let eager = ProviderPackage::load_snapshot(&dir, StoreBackend::Mem).unwrap();
    assert!(!eager.store.is_lazy());
    std::fs::remove_dir_all(&dir).ok();
}

/// Byte offset of the first page of paged section `id`, read from the
/// snapshot's section table: the header holds the section count (bytes
/// 12..16) and the table offset (16..24); a 64-byte table entry holds
/// the id (0..2), the section offset (8..16), its length (16..24) and
/// its page-payload length (24..32), behind the page digest array.
fn first_page_at(bytes: &[u8], id: u16) -> usize {
    let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    let count = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    let table = word(16);
    let entry = (0..count)
        .map(|i| table + 64 * i)
        .find(|&e| u16::from_le_bytes([bytes[e], bytes[e + 1]]) == id)
        .expect("section present");
    word(entry + 8) + word(entry + 16) - word(entry + 24)
}

/// `Mem` verifies every section at open, also the tree pages its dense
/// loaders never read: a byte flipped in a network-tree level above the
/// leaves, or in a HYP hyper-edge tree level, fails the `Mem` load with
/// a typed checksum mismatch. `File` opens the same file, and only the
/// proofs that fault the page fail; every other answer is byte-equal
/// to a fresh provider's.
#[test]
fn mem_load_verifies_pages_no_dense_loader_reads() {
    use spnet_core::snapshot::{SnapshotError, SEC_HYP_HYPER_TREE, SEC_NET_TREE};
    use spnet_store::StoreError;

    let _g = sign_lock();
    let g = grid_network(24, 24, 1.15, 940);
    for (method, section) in [
        (MethodConfig::Dij, SEC_NET_TREE + 1),
        (MethodConfig::Hyp { cells: 9 }, SEC_HYP_HYPER_TREE),
    ] {
        let mut rng = StdRng::seed_from_u64(941);
        let p = DataOwner::publish(&g, &method, &SetupConfig::default(), &mut rng);
        let dir = tmpdir("unread-page");
        let path = p.save_snapshot(&dir).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = first_page_at(&bytes, section) + 5;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        let err = ProviderPackage::load_snapshot(&dir, StoreBackend::Mem).err();
        assert!(
            matches!(
                err,
                Some(SnapshotError::Store(StoreError::ChecksumMismatch(_)))
            ),
            "{method:?}: {err:?}"
        );
        let loaded = ProviderPackage::load_snapshot(&dir, StoreBackend::File).unwrap();
        let cold = ServiceProvider::new(loaded.package);
        let fresh = ServiceProvider::new(p.package);
        let (mut served, mut refused) = (0, 0);
        for s in (0..576u32).step_by(23) {
            let (vs, vt) = (NodeId(s), NodeId((s * 37 + 11) % 576));
            match cold.answer(vs, vt) {
                Ok(a) => {
                    let want = fresh.answer(vs, vt).unwrap();
                    assert_eq!(
                        spnet_core::wire::encode_answer(&a),
                        spnet_core::wire::encode_answer(&want),
                        "{vs} → {vt}"
                    );
                    served += 1;
                }
                Err(e) => {
                    assert!(e.to_string().contains("checksum mismatch"), "{e}");
                    refused += 1;
                }
            }
        }
        assert!(
            served > 0 && refused > 0,
            "{method:?}: {served} served, {refused} refused"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Truncations at every interesting boundary decode to typed errors —
/// never a panic, never a serving package.
#[test]
fn truncated_snapshots_fail_typed() {
    let _g = sign_lock();
    let p = publish(&MethodConfig::Dij, 910);
    let dir = tmpdir("truncate");
    let path = p.save_snapshot(&dir).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    for cut in [
        0,
        1,
        7,
        8,
        23,
        24,
        bytes.len() / 3,
        bytes.len() / 2,
        bytes.len() - 1,
    ] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        for backend in [StoreBackend::Mem, StoreBackend::File] {
            assert!(
                ProviderPackage::load_snapshot(&dir, backend).is_err(),
                "cut at {cut} ({backend:?}) must fail typed"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A bumped format version is rejected as [`spnet_store::StoreError::UnsupportedVersion`],
/// distinct from corruption, so future formats can negotiate.
#[test]
fn version_bump_fails_typed() {
    let _g = sign_lock();
    let p = publish(&MethodConfig::Dij, 911);
    let dir = tmpdir("version");
    let path = p.save_snapshot(&dir).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[8] = bytes[8].wrapping_add(1); // header version byte
    std::fs::write(&path, &bytes).unwrap();
    for backend in [StoreBackend::Mem, StoreBackend::File] {
        match ProviderPackage::load_snapshot(&dir, backend) {
            Err(SnapshotError::Store(spnet_store::StoreError::UnsupportedVersion(_))) => {}
            Err(other) => panic!("want UnsupportedVersion, got {other:?}"),
            Ok(_) => panic!("bumped version must not load"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Only a snapshot-backed service can refresh its snapshot, and only
/// its one package, index 0; both refusals are typed.
#[test]
fn refresh_rejects_services_without_a_snapshot() {
    let _g = sign_lock();
    let p = publish(&MethodConfig::Dij, 940);
    let dir = tmpdir("refresh-errors");
    p.save_snapshot(&dir).unwrap();
    let backed = SpService::builder()
        .snapshot(&dir, StoreBackend::Mem)
        .unwrap()
        .threads(0)
        .build();
    let plain = SpService::new(publish(&MethodConfig::Dij, 941).package);

    assert!(matches!(
        plain.refresh_shard_snapshot(0, &p.public_key),
        Err(SnapshotError::Corrupt("service is not snapshot-backed"))
    ));
    assert!(matches!(
        backed.refresh_shard_snapshot(1, &p.public_key),
        Err(SnapshotError::Corrupt("no such shard"))
    ));
    assert!(
        backed.refresh_shard_snapshot(0, &p.public_key).is_ok(),
        "index 0 is the served package"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Fixture for the bit-flip fuzz: one pristine DIJ snapshot, its
/// bytes, and the fresh provider's answer bytes for a fixed query.
fn fuzz_fixture() -> &'static (PathBuf, Vec<u8>, Vec<u8>) {
    static FIX: OnceLock<(PathBuf, Vec<u8>, Vec<u8>)> = OnceLock::new();
    FIX.get_or_init(|| {
        let p = publish(&MethodConfig::Dij, 920);
        let dir = tmpdir("fuzz");
        let path = p.save_snapshot(&dir).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let fresh = ServiceProvider::new(p.package);
        let want = spnet_core::wire::encode_answer(&fresh.answer(NodeId(0), NodeId(80)).unwrap());
        (dir, bytes, want)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fuzz: flipping any single bit of the snapshot either fails with
    /// a typed error (at load, or — on the lazy backend — at first
    /// touch while proving) or, when the flip lands in alignment
    /// padding, leaves every served answer byte-identical. It never
    /// panics and never serves a silently wrong proof.
    #[test]
    fn single_bit_flips_fail_typed_or_stay_harmless(
        pos in 0usize..1_000_000,
        bit in 0u8..8,
        backend_pick in 0usize..2,
    ) {
        let _g = sign_lock();
        let (dir, pristine, want) = fuzz_fixture();
        let mut bytes = pristine.clone();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        std::fs::write(dir.join(SNAPSHOT_FILE), &bytes).unwrap();
        let backend = if backend_pick == 1 { StoreBackend::File } else { StoreBackend::Mem };
        if let Ok(loaded) = ProviderPackage::load_snapshot(dir, backend) {
            let provider = ServiceProvider::new(loaded.package);
            match provider.answer(NodeId(0), NodeId(80)) {
                // Lazy backend: the corrupt page faulted during the
                // proof and surfaced as a typed provider error.
                Err(_) => {}
                Ok(a) => {
                    let got = spnet_core::wire::encode_answer(&a);
                    prop_assert_eq!(&got, want, "flip at byte {} bit {} served different bytes", pos, bit);
                }
            }
        }
        std::fs::write(dir.join(SNAPSHOT_FILE), pristine).unwrap();
    }
}

/// The faulted-page cache is **bounded**: scanning a paged structure
/// far larger than [`PAGE_CACHE_PAGES`] evicts LRU pages instead of
/// accumulating them, so resident pages (faults − evictions) never
/// exceed the configured bound. Uses a POI tree as the paged
/// structure: at 256 entries/page, 140k POIs span ~547 entry pages
/// against a 512-page cache.
#[test]
fn file_backend_page_cache_stays_bounded() {
    use spnet_core::snapshot::PAGE_CACHE_PAGES;
    use spnet_queries::PoiSet;

    let _g = sign_lock();
    let mut rng = StdRng::seed_from_u64(970);
    let keypair = spnet_crypto::rsa::RsaKeyPair::generate(&mut rng, 512);
    let n: u32 = 140_000;
    let pois: Vec<(NodeId, f64)> = (0..n).map(|i| (NodeId(i), i as f64)).collect();
    let set = PoiSet::publish(&keypair, &pois).unwrap();
    let dir = tmpdir("cache-bound");
    set.save(&dir).unwrap();

    let (loaded, store) = PoiSet::load(&dir, StoreBackend::File).unwrap();
    // Full completeness proof touches every entry page plus the digest
    // pages of the Merkle cover — far more than the cache holds.
    let proof = loaded.prove_all().unwrap();
    assert_eq!(proof.entries.len(), n as usize);
    assert!(
        store.evict_count() > 0,
        "a scan over ~547 pages must evict from a 512-page cache"
    );
    // Two paged structures (entry array + digest tree) share the
    // store's counters, each individually bounded.
    let resident = store.fault_count() - store.evict_count();
    assert!(
        resident <= 2 * PAGE_CACHE_PAGES as u64,
        "resident pages {resident} exceed the configured bound"
    );

    // The bounded cache is purely a memory cap: the proof still
    // verifies the complete directory.
    spnet_queries::PoiDirectory::verify(keypair.public_key(), loaded.signed(), &proof).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}
