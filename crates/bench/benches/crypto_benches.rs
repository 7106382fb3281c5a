//! Criterion micro-benchmarks for the cryptographic substrate:
//! hashing throughput, Merkle construction/proofs at the paper's
//! fanouts, and RSA sign/verify/keygen at 256, 1024 and 2048 bits.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use spnet_crypto::digest::hash_bytes;
use spnet_crypto::merkle::MerkleTree;
use spnet_crypto::rsa::RsaKeyPair;
use spnet_crypto::sha256::sha256;
use std::collections::BTreeSet;
use std::hint::black_box;

fn bench_sha256(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256");
    for size in [64usize, 1024, 65536] {
        let data = vec![0xABu8; size];
        g.throughput(criterion::Throughput::Bytes(size as u64));
        g.bench_function(format!("{size}B"), |b| b.iter(|| sha256(black_box(&data))));
    }
    g.finish();
}

/// Inner-node combiner: the stack-buffer fast path vs the seed's
/// streaming `update`-per-child hashing.
fn bench_hash_digests(c: &mut Criterion) {
    use spnet_crypto::digest::hash_digests;
    use spnet_crypto::sha256::Sha256;
    let mut g = c.benchmark_group("inner_node");
    for fanout in [2usize, 32] {
        let children: Vec<_> = (0..fanout as u32)
            .map(|i| hash_bytes(&i.to_le_bytes()))
            .collect();
        g.bench_function(format!("streaming_f{fanout}"), |b| {
            b.iter(|| {
                let mut h = Sha256::new();
                for d in &children {
                    h.update(d.as_bytes());
                }
                h.finalize()
            })
        });
        g.bench_function(format!("stack_f{fanout}"), |b| {
            b.iter(|| hash_digests(black_box(&children)))
        });
    }
    g.finish();
}

fn bench_merkle_build(c: &mut Criterion) {
    let leaves: Vec<_> = (0u32..10_000)
        .map(|i| hash_bytes(&i.to_le_bytes()))
        .collect();
    let mut g = c.benchmark_group("merkle_build_10k");
    for fanout in [2usize, 8, 32] {
        g.bench_function(format!("fanout{fanout}"), |b| {
            b.iter_batched(
                || leaves.clone(),
                |l| MerkleTree::build(l, fanout).unwrap(),
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_merkle_prove(c: &mut Criterion) {
    let leaves: Vec<_> = (0u32..10_000)
        .map(|i| hash_bytes(&i.to_le_bytes()))
        .collect();
    let tree = MerkleTree::build(leaves, 2).unwrap();
    let contiguous: BTreeSet<usize> = (4000..4100).collect();
    c.bench_function("merkle_prove_100of10k", |b| {
        b.iter(|| tree.prove(black_box(contiguous.clone())).unwrap())
    });
}

/// Sign, verify and key generation at a research-scale, a current and
/// a production modulus. Key generation time depends on how many
/// candidates the seed goes through, so every run replays one seed.
fn bench_rsa(c: &mut Criterion) {
    let d = hash_bytes(b"root");
    for bits in [256usize, 1024, 2048] {
        let keygen = || RsaKeyPair::generate(&mut StdRng::seed_from_u64(42), bits);
        let kp = keygen();
        let sig = kp.sign(&d);
        c.bench_function(format!("rsa{bits}_sign"), |b| {
            b.iter(|| kp.sign(black_box(&d)))
        });
        c.bench_function(format!("rsa{bits}_verify"), |b| {
            b.iter(|| kp.public_key().verify(black_box(&d), black_box(&sig)))
        });
        c.bench_function(format!("rsa{bits}_keygen"), |b| b.iter(keygen));
    }
}

criterion_group!(
    benches,
    bench_sha256,
    bench_hash_digests,
    bench_merkle_build,
    bench_merkle_prove,
    bench_rsa
);
criterion_main!(benches);
