//! Property-based tests over the cryptographic substrate.

use pba_crypto::codec::{
    decode_from_slice, encode_to_vec, read_varint, write_varint, CodecError, Decode, Encode,
    Reader, MAX_SEQ_LEN,
};
use pba_crypto::field::{Fp, MODULUS};
use pba_crypto::lamport::{LamportKeyPair, LamportParams};
use pba_crypto::merkle::MerkleTree;
use pba_crypto::poly::interpolate_at_zero;
use pba_crypto::prg::Prg;
use pba_crypto::sha256::{Digest, Sha256};
use pba_crypto::shamir::{reconstruct, share};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..512), split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn digest_hex_roundtrip(bytes in any::<[u8; 32]>()) {
        let d = Digest::new(bytes);
        prop_assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
    }

    #[test]
    fn field_axioms(a in 0..MODULUS, b in 0..MODULUS, c in 0..MODULUS) {
        let (a, b, c) = (Fp::new(a), Fp::new(b), Fp::new(c));
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!((a * b) * c, a * (b * c));
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!(a + b, b + a);
        prop_assert_eq!(a * b, b * a);
        prop_assert_eq!(a - a, Fp::ZERO);
        if !a.is_zero() {
            prop_assert_eq!(a * a.inverse(), Fp::ONE);
        }
    }

    #[test]
    fn shamir_reconstructs_from_any_quorum(
        secret in 0..MODULUS,
        threshold in 1usize..5,
        extra in 0usize..4,
        seed in any::<[u8; 8]>(),
    ) {
        let n = threshold + 1 + extra;
        let mut prg = Prg::from_seed_bytes(&seed);
        let shares = share(Fp::new(secret), threshold, n, &mut prg);
        // Take an arbitrary (threshold+1)-subset: the last one.
        let subset = &shares[extra..];
        prop_assert_eq!(reconstruct(subset).unwrap(), Fp::new(secret));
    }

    #[test]
    fn lagrange_interpolation_is_exact(
        secret in 0..MODULUS,
        degree in 0usize..6,
        seed in any::<[u8; 8]>(),
    ) {
        let mut prg = Prg::from_seed_bytes(&seed);
        let poly = pba_crypto::poly::Polynomial::random_with_constant(Fp::new(secret), degree, &mut prg);
        let points: Vec<(Fp, Fp)> = (1..=degree as u64 + 1)
            .map(|x| (Fp::new(x), poly.eval(Fp::new(x))))
            .collect();
        prop_assert_eq!(interpolate_at_zero(&points), Fp::new(secret));
    }

    #[test]
    fn merkle_proofs_verify_and_bind(
        leaves in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..32), 1..40),
        index in 0usize..40,
        tamper in any::<u8>(),
    ) {
        let index = index % leaves.len();
        let tree = MerkleTree::from_leaves(leaves.iter());
        let proof = tree.prove(index);
        prop_assert!(proof.verify(&tree.root(), &leaves[index]));
        // Tampered leaf fails (unless the tamper is a no-op).
        let mut tampered = leaves[index].clone();
        tampered.push(tamper);
        prop_assert!(!proof.verify(&tree.root(), &tampered));
    }

    #[test]
    fn codec_roundtrip_nested(
        v in proptest::collection::vec((any::<u64>(), proptest::collection::vec(any::<u8>(), 0..16)), 0..16),
    ) {
        let encoded = encode_to_vec(&v);
        prop_assert_eq!(v.encoded_len(), encoded.len());
        let decoded: Vec<(u64, Vec<u8>)> = decode_from_slice(&encoded).unwrap();
        prop_assert_eq!(decoded, v);
    }

    #[test]
    fn codec_encoded_len_is_exact(
        words in proptest::collection::vec(any::<u16>(), 0..200),
        text in proptest::collection::vec(any::<u8>(), 0..300),
        present in any::<bool>(),
        flag in any::<bool>(),
    ) {
        let text = String::from_utf8_lossy(&text).into_owned();
        let value = (
            Some(words.clone()).filter(|_| present),
            (text, flag),
            vec![vec![words.clone()], Vec::new()],
        );
        let encoded = encode_to_vec(&value);
        prop_assert_eq!(value.encoded_len(), encoded.len());
        prop_assert_eq!(decode_from_slice(&encoded), Ok(value));
    }

    #[test]
    fn codec_bulk_bytes_match_the_per_byte_reference(
        len in prop_oneof![Just(0usize), 1usize..200, 1025usize..4000],
        seed in any::<[u8; 8]>(),
        cut in any::<u64>(),
        excess in 1u64..(1 << 40),
    ) {
        let mut data = vec![0u8; len];
        Prg::from_seed_bytes(&seed).fill_bytes_scalar(&mut data);

        // Reference encoding: the varint length, then one push per byte.
        let mut reference = Vec::new();
        write_varint(&mut reference, len as u64);
        for &b in &data {
            reference.push(b);
        }
        let encoded = encode_to_vec(&data);
        prop_assert_eq!(&encoded, &reference);
        prop_assert_eq!(data.encoded_len(), encoded.len());

        // Reference decoding: one `u8::decode` per byte.
        let mut r = Reader::new(&reference);
        let n = read_varint(&mut r).unwrap() as usize;
        let per_byte: Vec<u8> = (0..n).map(|_| u8::decode(&mut r).unwrap()).collect();
        prop_assert_eq!(&per_byte, &data);
        prop_assert_eq!(decode_from_slice::<Vec<u8>>(&encoded), Ok(data.clone()));

        // Any strict prefix is truncated, never a shorter vector.
        let cut = (cut % encoded.len() as u64) as usize;
        prop_assert_eq!(
            decode_from_slice::<Vec<u8>>(&encoded[..cut]),
            Err(CodecError::UnexpectedEnd)
        );

        // A length past the sanity bound is refused before the body is read.
        let mut hostile = Vec::new();
        write_varint(&mut hostile, MAX_SEQ_LEN + excess);
        hostile.extend_from_slice(&data);
        prop_assert_eq!(
            decode_from_slice::<Vec<u8>>(&hostile),
            Err(CodecError::LengthOverflow(MAX_SEQ_LEN + excess))
        );
    }

    #[test]
    fn codec_rejects_any_truncation(value in any::<u64>(), tail in proptest::collection::vec(any::<u8>(), 1..8)) {
        let mut bytes = encode_to_vec(&(value, tail));
        bytes.pop();
        let r: Result<(u64, Vec<u8>), _> = decode_from_slice(&bytes);
        prop_assert!(r.is_err());
    }

    #[test]
    fn lamport_signs_only_its_message(seed in any::<[u8; 8]>(), m1 in any::<[u8; 12]>(), m2 in any::<[u8; 12]>()) {
        prop_assume!(m1 != m2);
        let params = LamportParams::new(32);
        let mut prg = Prg::from_seed_bytes(&seed);
        let kp = LamportKeyPair::generate(&params, &mut prg);
        let sig = kp.sign(&m1);
        prop_assert!(params.verify(&kp.verification_key(), &m1, &sig));
        // 32-bit truncated digests collide with prob 2^-32: negligible for
        // the case count here.
        prop_assert!(!params.verify(&kp.verification_key(), &m2, &sig));
    }

    #[test]
    fn prg_streams_are_deterministic_and_label_separated(
        seed in any::<[u8; 16]>(),
        la in "[a-z]{1,8}",
        lb in "[a-z]{1,8}",
    ) {
        let mut a1 = Prg::from_seed_label(&seed, &la);
        let mut a2 = Prg::from_seed_label(&seed, &la);
        prop_assert_eq!(a1.next_digest(), a2.next_digest());
        if la != lb {
            let mut b = Prg::from_seed_label(&seed, &lb);
            let mut a3 = Prg::from_seed_label(&seed, &la);
            prop_assert_ne!(a3.next_digest(), b.next_digest());
        }
    }

    #[test]
    fn sample_distinct_is_distinct_and_in_range(seed in any::<[u8; 8]>(), n in 1u64..500, k_frac in 0.0f64..1.0) {
        let k = ((n as f64 * k_frac) as usize).min(n as usize);
        let mut prg = Prg::from_seed_bytes(&seed);
        let sample = prg.sample_distinct(n, k);
        prop_assert_eq!(sample.len(), k);
        let set: std::collections::HashSet<_> = sample.iter().collect();
        prop_assert_eq!(set.len(), k);
        prop_assert!(sample.iter().all(|&v| v < n));
    }
}
