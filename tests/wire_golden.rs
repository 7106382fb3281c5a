//! Golden bytes: SHA-256 digests of every wire payload and snapshot
//! section a fixed deployment produces, for all four methods.
//!
//! A 9×9 grid, a seeded 256-bit owner key and fixed queries make every
//! byte deterministic. Any change to an encoding — a field reordered, a
//! count widened, a tag renumbered — changes a digest here, so a codec
//! refactor that claims "no byte changes" is checked byte for byte.
//! The build-seconds snapshot sections are left out: they hold wall
//! time.

use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_core::methods::{LdmConfig, MethodConfig};
use spnet_core::owner::{DataOwner, Published};
use spnet_core::prelude::*;
use spnet_core::snapshot::{
    save_package, SEC_FULL_CONFIG, SEC_HYP_CONFIG, SEC_LDM_BUILD, SNAPSHOT_FILE,
};
use spnet_core::wire;
use spnet_crypto::rsa::RsaKeyPair;
use spnet_crypto::sha256::{sha256, Sha256};
use spnet_graph::gen::grid_network;
use spnet_graph::NodeId;
use spnet_queries::wire::{encode_knn_answer, encode_matrix_answer};
use spnet_queries::{PoiSet, SessionQueries};
use spnet_store::{Snapshot, StoreError};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

const QUERIES: [(u32, u32); 3] = [(0, 80), (1, 79), (0, 40)];

/// The methods, in table order.
fn methods() -> [MethodConfig; 4] {
    [
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

/// The payload of each digest, in the order [`digests`] yields them.
const LABELS: [&str; 10] = [
    "answer",
    "batch",
    "range",
    "frame.header",
    "frame.chunk0",
    "frame.chunk1",
    "frame.end",
    "knn",
    "matrix",
    "snapshot",
];

/// Per method (in [`methods`] order), the SHA-256 hex of each payload.
const GOLDEN: [(&str, [&str; 10]); 4] = [
    (
        "DIJ",
        [
            "3a0658088aecdb42a32832baa59e27c40b06b80cb666aa4a03a2a7097fef0a97",
            "acab96ff65611ee2aaffaf77165412d14a8bbed80a740e8e42a8005816d7c761",
            "ee44191891080b0916da4758fcdd2eb595f3ca02c5b65c54edfe357d57c6ce02",
            "fb94351f864772777db4daf2549cc40dd0b8c35954fef9e836008b66669d973e",
            "0ff423d3a87b551069639e4d296fa8e76bb64ce6a02707c843ab05d58519fdfd",
            "370622b94ef1a5a9adce885c7f2490aa74ba980ed3acb7dc7f46743b3f780de0",
            "ba12b9574d388576020457bbcae0087fe9f517a0997f2d47db1a8909748b9fa0",
            "49b7ddffcdbbb1034cadc531db096b197218711859166b61eebd3348bfd7276e",
            "e6d6d4a1a80f7f3f196acc965473bfd86a276023b47439ca8f390ff411ce9981",
            "6ef668742c9bc2906cd64a5b3ae4f6d5edb5c1a5d0117197203c985f30b80104",
        ],
    ),
    (
        "FULL",
        [
            "31430bd22f2b007fa3b0d119fd0fa6e584c7da0360723a5d6ca179c073558ce8",
            "25245c6bcb49d51647ff0fa4e52abec33a068b9540f584bb6966d77cbaa113d9",
            "283a9d3c23dc638cd76801fd089a03ad0c2a7e1cc6b933c1379616562870fc71",
            "8436e16ccf2e11e8d65e077a22e11ec28cf7c1d0f60375757435011f435c728e",
            "b138108e1e66adb663cf9ac9d731edbbc2fc473b954ae8e6db016c656a49c97e",
            "773d46763384f415eaea673dd27efeed2afc77f2b1b200b28bd10c22a7275668",
            "ba12b9574d388576020457bbcae0087fe9f517a0997f2d47db1a8909748b9fa0",
            "af79a00838554aa282e6c245682dbcf1801eae4fcacd68bfbc67efd1802ec4a6",
            "d7000115a527ec74da74ccff8925efe43abbfeb16f7675e41670a48c0f6fa6a2",
            "6c526e2b95f64a603f3d93baac839a7309db6557891d191fa9bdcca4098b62a9",
        ],
    ),
    (
        "LDM",
        [
            "8895ffe98be660180aa1f17bc438b1def345b9952f8722b0c40409403cdb1fbe",
            "88ddcd2be8450177aa3a65173063bac4dd5fe1f77bd8cee7c267d03d862a569a",
            "351a69794a263d3ea52c5323df91acd39353995c74dfcf54c8483ff553f239b2",
            "a4a78726377e6e5944c8bd57b4a60d8aee3d78382df9dacf27fdcb8bbde73751",
            "e4a0923d20ab57f2c254ffd45f11f2b62665d1dcb3e91c41d7b4941d25e24b6c",
            "0e2e7422af84d4095feddc01c21ced0bdcb72272576f77756f109a60abcd426b",
            "ba12b9574d388576020457bbcae0087fe9f517a0997f2d47db1a8909748b9fa0",
            "186c3a07d997d971102cfe0e8c7e61f17aeac3540ee9ea0848c2408140479c9d",
            "3c23914b5142ade579ea1bf682ee4cfcebe9ac5fbe96ed622292e7e8593ad497",
            "a2baa1d83d9805abdcad64ef58a77e6c7ff9b9de71a6c47a32f700749058c74f",
        ],
    ),
    (
        "HYP",
        [
            "c4952fe43ba8cc09061e311ae7d2ceb1c07882ef3d38b219e83923c16dcc232e",
            "9c1933472040ff1d45e7e8a362d325071f756b56baba6805ba9c5c6a76d41882",
            "71b127b390bf8a7aac47bcc8d2b7526228fa1b49276c5128812752a7bb9d5304",
            "3f5544112827f33fc4a194b402e464fe2e527cff31de7c08e290ded5ebb68139",
            "b632bfd6babd720f359254f4c58841f485577fd5770975f16f6e0855294a5070",
            "83456a5801d53292b9091765007ced9b819e8f27dfd0332a8c14048b928a649f",
            "ba12b9574d388576020457bbcae0087fe9f517a0997f2d47db1a8909748b9fa0",
            "f3275474dce6bd6fd7fba84118ca560066fe2ac7cb6d1b66abec3469aabc34c0",
            "920732f586acab3fecf4c4fce15787fce6209d40494b9bd5ae9fa657ed94f5a3",
            "47d013dae8ae8efbab52c9802608d413b13fb2dfb51f88be61616f621bfeb926",
        ],
    ),
];

fn publish(method: &MethodConfig) -> (Published, RsaKeyPair) {
    let g = grid_network(9, 9, 1.15, 4000);
    let keypair = RsaKeyPair::generate(&mut StdRng::seed_from_u64(4001), 256);
    let p = DataOwner::publish_with_key(&g, method, &SetupConfig::default(), &keypair);
    (p, keypair)
}

/// The snapshot digest: for DIJ the whole `save_package` file; for the
/// others every section but the build-seconds ones, as (id, length,
/// bytes) in file order.
fn snapshot_digest(published: &Published, tag: &str) -> String {
    let dir = std::env::temp_dir().join(format!("spnet-wire-golden-{tag}-{}", std::process::id()));
    save_package(published, &dir).unwrap();
    let path = dir.join(SNAPSHOT_FILE);
    let out = if tag == "DIJ" {
        sha256(&std::fs::read(&path).unwrap()).to_hex()
    } else {
        let snap = Snapshot::open(&path).unwrap();
        let mut h = Sha256::new();
        for id in snap.section_ids() {
            if [SEC_FULL_CONFIG, SEC_HYP_CONFIG, SEC_LDM_BUILD].contains(&id) {
                continue;
            }
            let bytes = match snap.blob(id) {
                Ok(b) => b,
                Err(StoreError::WrongKind { .. }) => snap
                    .paged(id, Arc::new(AtomicU64::new(0)))
                    .unwrap()
                    .read_all()
                    .unwrap(),
                Err(e) => panic!("section {id:#06x}: {e}"),
            };
            h.update(&id.to_le_bytes());
            h.update(&(bytes.len() as u64).to_le_bytes());
            h.update(&bytes);
        }
        h.finalize().to_hex()
    };
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

/// Digests of every payload kind and of the snapshot, in label order.
fn digests(method: &MethodConfig) -> Vec<String> {
    let (published, keypair) = publish(method);
    let queries: Vec<(NodeId, NodeId)> = QUERIES
        .iter()
        .map(|&(s, t)| (NodeId(s), NodeId(t)))
        .collect();
    let provider = ServiceProvider::new(published.package.clone());
    let service = SpService::new(published.package.clone());
    let session = service
        .open_session(Client::new(keypair.public_key().clone()))
        .unwrap();
    let pois = PoiSet::publish(
        &keypair,
        &[(NodeId(8), 1.0), (NodeId(44), 2.0), (NodeId(72), 3.0)],
    )
    .unwrap();

    let mut payloads = vec![
        wire::encode_answer(&provider.answer(NodeId(0), NodeId(80)).unwrap()),
        wire::encode_batch_answer(&session.answer_batch(&queries).unwrap()),
        wire::encode_range_answer(&session.answer_range(NodeId(40), 3_000.0).unwrap()),
    ];
    let frames: Vec<Vec<u8>> = provider
        .answer_stream(&queries, 2)
        .collect::<Result<_, _>>()
        .unwrap();
    assert_eq!(frames.len(), 4, "header, two chunks, end");
    payloads.extend(frames);
    payloads.push(encode_knn_answer(
        &session.answer_knn(&pois, NodeId(0), 2).unwrap(),
    ));
    payloads.push(encode_matrix_answer(
        &session
            .answer_matrix(&[NodeId(0), NodeId(9)], &[NodeId(80), NodeId(44)])
            .unwrap(),
    ));
    let mut out: Vec<String> = payloads.iter().map(|p| sha256(p).to_hex()).collect();
    out.push(snapshot_digest(&published, method.name()));
    out
}

#[test]
fn wire_and_snapshot_bytes_match_the_golden_digests() {
    let mut wrong = Vec::new();
    for (method, (name, want)) in methods().iter().zip(GOLDEN) {
        assert_eq!(method.name(), name);
        for ((label, got), want) in LABELS.iter().zip(digests(method)).zip(want) {
            if got != want {
                wrong.push(format!("{name} {label}: {got}"));
            }
        }
    }
    assert!(wrong.is_empty(), "digests changed:\n{}", wrong.join("\n"));
}
