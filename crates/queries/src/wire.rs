//! Wire codecs for the query-operator answers.
//!
//! Composes the core wire format: the POI certificate reuses the core
//! signed-root and key-range-proof codecs, and the pooled batch is
//! embedded as one length-prefixed [`spnet_core::wire`] payload —
//! decoding re-runs the core decoder, so the embedded batch inherits
//! its version check, length caps and full-consumption discipline.
//! (The range answer's codec lives in the core crate next to its
//! operator: [`spnet_core::wire::encode_range_answer`].)

use crate::knn::KnnAnswer;
use crate::matrix::MatrixAnswer;
use spnet_core::enc::{DecodeError, Decoder, Encoder};
use spnet_core::wire::{
    decode_batch_answer, encode_batch_answer, put_key_range_proof, put_signed_root,
    take_key_range_proof, take_signed_root, WIRE_VERSION,
};
use spnet_graph::NodeId;

fn put_version(e: &mut Encoder) {
    e.put_u8(WIRE_VERSION);
}

fn take_version(d: &mut Decoder<'_>) -> Result<(), DecodeError> {
    match d.take_u8()? {
        WIRE_VERSION => Ok(()),
        v => Err(DecodeError::UnsupportedVersion(v)),
    }
}

/// Encodes a k-nearest-POI answer into bytes.
pub fn encode_knn_answer(a: &KnnAnswer) -> Vec<u8> {
    let mut e = Encoder::new();
    put_version(&mut e);
    e.put_u32(a.k);
    put_signed_root(&mut e, &a.poi_signed);
    put_key_range_proof(&mut e, &a.poi_proof);
    e.put_bytes(&encode_batch_answer(&a.batch));
    e.into_bytes()
}

/// Decodes a k-nearest-POI answer, requiring full consumption.
pub fn decode_knn_answer(bytes: &[u8]) -> Result<KnnAnswer, DecodeError> {
    let mut d = Decoder::new(bytes);
    take_version(&mut d)?;
    let k = d.take_u32()?;
    let poi_signed = take_signed_root(&mut d)?;
    let poi_proof = take_key_range_proof(&mut d)?;
    let batch = decode_batch_answer(d.take_bytes()?)?;
    d.finish()?;
    Ok(KnnAnswer {
        k,
        poi_signed,
        poi_proof,
        batch,
    })
}

/// Encodes a distance-matrix answer into bytes.
pub fn encode_matrix_answer(a: &MatrixAnswer) -> Vec<u8> {
    let mut e = Encoder::new();
    put_version(&mut e);
    e.put_u32(a.sources.len() as u32);
    for s in &a.sources {
        e.put_u32(s.0);
    }
    e.put_u32(a.targets.len() as u32);
    for t in &a.targets {
        e.put_u32(t.0);
    }
    e.put_bytes(&encode_batch_answer(&a.batch));
    e.into_bytes()
}

/// Decodes a distance-matrix answer, requiring full consumption.
pub fn decode_matrix_answer(bytes: &[u8]) -> Result<MatrixAnswer, DecodeError> {
    let mut d = Decoder::new(bytes);
    take_version(&mut d)?;
    let ns = d.take_len(4)?;
    let sources = (0..ns)
        .map(|_| Ok(NodeId(d.take_u32()?)))
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let nt = d.take_len(4)?;
    let targets = (0..nt)
        .map(|_| Ok(NodeId(d.take_u32()?)))
        .collect::<Result<Vec<_>, DecodeError>>()?;
    let batch = decode_batch_answer(d.take_bytes()?)?;
    d.finish()?;
    Ok(MatrixAnswer {
        sources,
        targets,
        batch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::poi::PoiSet;
    use crate::SessionQueries;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use spnet_core::prelude::*;
    use spnet_crypto::rsa::RsaKeyPair;
    use spnet_graph::gen::grid_network;

    fn session_and_pois() -> (SpService, RsaKeyPair, PoiSet) {
        let g = grid_network(8, 8, 1.15, 2500);
        let mut rng = StdRng::seed_from_u64(2501);
        let keypair = RsaKeyPair::generate(&mut rng, SetupConfig::default().rsa_bits);
        let p =
            DataOwner::publish_with_key(&g, &MethodConfig::Dij, &SetupConfig::default(), &keypair);
        let pois = PoiSet::publish(
            &keypair,
            &[(NodeId(7), 1.0), (NodeId(30), 2.0), (NodeId(63), 3.0)],
        )
        .unwrap();
        (SpService::new(p.package), keypair, pois)
    }

    #[test]
    fn knn_answer_round_trip_and_verifies() {
        let (service, keypair, pois) = session_and_pois();
        let session = service
            .open_session(Client::new(keypair.public_key().clone()))
            .unwrap();
        let answer = session.answer_knn(&pois, NodeId(0), 2).unwrap();
        let bytes = encode_knn_answer(&answer);
        let back = decode_knn_answer(&bytes).unwrap();
        assert_eq!(back, answer);
        let nearest = session.verify_knn(NodeId(0), 2, &back).unwrap();
        assert_eq!(nearest.len(), 2);
        for cut in [0usize, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_knn_answer(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = bytes;
        long.push(0);
        assert!(matches!(
            decode_knn_answer(&long),
            Err(DecodeError::TrailingBytes(1))
        ));
    }

    #[test]
    fn matrix_answer_round_trip_and_verifies() {
        let (service, keypair, _) = session_and_pois();
        let session = service
            .open_session(Client::new(keypair.public_key().clone()))
            .unwrap();
        let sources = [NodeId(0), NodeId(9)];
        let targets = [NodeId(54), NodeId(63), NodeId(32)];
        let answer = session.answer_matrix(&sources, &targets).unwrap();
        let bytes = encode_matrix_answer(&answer);
        let back = decode_matrix_answer(&bytes).unwrap();
        assert_eq!(back, answer);
        let m = session.verify_matrix(&sources, &targets, &back).unwrap();
        assert_eq!(m.values().len(), 6);
        for cut in [0usize, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(decode_matrix_answer(&bytes[..cut]).is_err(), "cut at {cut}");
        }
        let mut long = bytes;
        long.push(0);
        assert!(matches!(
            decode_matrix_answer(&long),
            Err(DecodeError::TrailingBytes(1))
        ));
    }
}
