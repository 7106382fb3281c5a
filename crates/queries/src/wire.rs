//! Wire codecs for the query-operator answers: one [`Wire`] impl per
//! answer, under the format rules of [`spnet_core::wire`].
//!
//! The pooled batch is embedded as one length-prefixed, versioned core
//! payload ([`wire::encode`]), so decoding it re-runs the core's version
//! check, length caps and full-consumption discipline. (The range
//! answer's codec lives in the core crate next to its operator.)

use crate::knn::KnnAnswer;
use crate::matrix::MatrixAnswer;
use spnet_core::ads::SignedRoot;
use spnet_core::enc::{DecodeError, Decoder, Encoder, Wire};
use spnet_core::wire;
use spnet_crypto::mbtree::KeyRangeProof;

/// `k`, the POI root and its completeness proof, then the nested batch.
impl Wire for KnnAnswer {
    const MIN_LEN: usize = 4 + SignedRoot::MIN_LEN + KeyRangeProof::MIN_LEN + 4;

    fn put(&self, e: &mut Encoder) {
        e.put(&self.k);
        e.put(&self.poi_signed);
        e.put(&self.poi_proof);
        e.put_bytes(&wire::encode(&self.batch));
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(KnnAnswer {
            k: d.take()?,
            poi_signed: d.take()?,
            poi_proof: d.take()?,
            batch: wire::decode(d.take_bytes()?)?,
        })
    }
}

/// The echoed sources and targets, then the nested batch.
impl Wire for MatrixAnswer {
    const MIN_LEN: usize = 4 + 4 + 4;

    fn put(&self, e: &mut Encoder) {
        e.put(&self.sources);
        e.put(&self.targets);
        e.put_bytes(&wire::encode(&self.batch));
    }

    fn take(d: &mut Decoder<'_>) -> Result<Self, DecodeError> {
        Ok(MatrixAnswer {
            sources: d.take()?,
            targets: d.take()?,
            batch: wire::decode(d.take_bytes()?)?,
        })
    }
}

/// Encodes a k-nearest-POI answer into bytes.
pub fn encode_knn_answer(a: &KnnAnswer) -> Vec<u8> {
    wire::encode(a)
}

/// Decodes a k-nearest-POI answer, requiring full consumption.
pub fn decode_knn_answer(bytes: &[u8]) -> Result<KnnAnswer, DecodeError> {
    wire::decode(bytes)
}

/// Encodes a distance-matrix answer into bytes.
pub fn encode_matrix_answer(a: &MatrixAnswer) -> Vec<u8> {
    wire::encode(a)
}

/// Decodes a distance-matrix answer, requiring full consumption.
pub fn decode_matrix_answer(bytes: &[u8]) -> Result<MatrixAnswer, DecodeError> {
    wire::decode(bytes)
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
    use spnet_graph::NodeId;

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
        assert_eq!(answer.encoded_len() + 1, bytes.len());
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
        assert_eq!(answer.encoded_len() + 1, bytes.len());
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
