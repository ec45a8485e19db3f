//! The steps 7–8 verdict memo: every honest receiver of a certificate
//! checks it (a *logical* check), but byte-identical copies share one
//! `Srds::verify` (a *physical* verification).
//!
//! * **Honest run** — one distinct certificate, so one verification,
//!   while every honest party still counts its own check.
//! * **No poisoning** — under the Byzantine profile, step 6's constant
//!   adversary delivers `0xbb…` garbage to some parties. A counting
//!   wrapper shows each distinct delivered byte string reaches the scheme
//!   at most once, the garbage is rejected, the honest certificate is
//!   accepted, and the memoised outputs equal the outputs of checking
//!   every delivered copy directly, without the memo.

use pba_aetree::fae::{constant_adversary, disseminate};
use pba_core::protocol::{BaConfig, Certificate, Service, ValueSeed};
use pba_crypto::codec::{decode_from_slice, encode_to_vec};
use pba_crypto::prf::SubsetPrf;
use pba_crypto::prg::Prg;
use pba_crypto::sha256::Sha256;
use pba_net::{wire, Network, PartyId};
use pba_srds::cache::CacheStats;
use pba_srds::owf::OwfSrds;
use pba_srds::{PkiMode, Srds};
use std::cell::RefCell;
use std::collections::BTreeSet;

/// A forwarding scheme that records the `(message, signature)` of every
/// `verify` call, and the key board's inputs so a test can verify on its
/// own.
struct CountingSrds<S: Srds> {
    inner: S,
    verified: RefCell<Vec<(Vec<u8>, S::Signature)>>,
    #[allow(clippy::type_complexity)]
    board: RefCell<Option<(S::PublicParams, Vec<S::VerificationKey>)>>,
}

impl<S: Srds> CountingSrds<S> {
    fn new(inner: S) -> Self {
        CountingSrds {
            inner,
            verified: RefCell::new(Vec::new()),
            board: RefCell::new(None),
        }
    }

    /// The bare scheme's verdict, outside the wrapper's record.
    fn verify_directly(&self, message: &[u8], sig: &S::Signature) -> bool {
        let board = self.board.borrow();
        let (pp, vks) = board.as_ref().expect("key board prepared");
        let keyboard = self.inner.prepare(pp, vks);
        self.inner.verify(pp, &keyboard, message, sig)
    }

    fn take(&self) -> Vec<(Vec<u8>, S::Signature)> {
        std::mem::take(&mut self.verified.borrow_mut())
    }
}

impl<S: Srds> Srds for CountingSrds<S> {
    type PublicParams = S::PublicParams;
    type VerificationKey = S::VerificationKey;
    type SigningKey = S::SigningKey;
    type Signature = S::Signature;
    type KeyBoard = S::KeyBoard;

    fn mode(&self) -> PkiMode {
        self.inner.mode()
    }
    fn prepare(&self, pp: &Self::PublicParams, vks: &[Self::VerificationKey]) -> Self::KeyBoard {
        *self.board.borrow_mut() = Some((pp.clone(), vks.to_vec()));
        self.inner.prepare(pp, vks)
    }
    fn setup(&self, n: usize, prg: &mut Prg) -> Self::PublicParams {
        self.inner.setup(n, prg)
    }
    fn keygen(
        &self,
        pp: &Self::PublicParams,
        prg: &mut Prg,
    ) -> (Self::VerificationKey, Self::SigningKey) {
        self.inner.keygen(pp, prg)
    }
    fn sign(
        &self,
        pp: &Self::PublicParams,
        index: u64,
        sk: &Self::SigningKey,
        message: &[u8],
    ) -> Option<Self::Signature> {
        self.inner.sign(pp, index, sk, message)
    }
    fn sign_epoch(
        &self,
        pp: &Self::PublicParams,
        index: u64,
        sk: &Self::SigningKey,
        epoch: u64,
        message: &[u8],
    ) -> Option<Self::Signature> {
        self.inner.sign_epoch(pp, index, sk, epoch, message)
    }
    fn epoch_capacity(&self, pp: &Self::PublicParams) -> Option<u64> {
        self.inner.epoch_capacity(pp)
    }
    fn cache_stats(&self) -> Option<CacheStats> {
        self.inner.cache_stats()
    }
    fn advance_cache_generation(&self) {
        self.inner.advance_cache_generation()
    }
    fn aggregate1(
        &self,
        pp: &Self::PublicParams,
        board: &Self::KeyBoard,
        message: &[u8],
        sigs: &[Self::Signature],
    ) -> Vec<Self::Signature> {
        self.inner.aggregate1(pp, board, message, sigs)
    }
    fn aggregate2(
        &self,
        pp: &Self::PublicParams,
        message: &[u8],
        s_sig: &[Self::Signature],
    ) -> Option<Self::Signature> {
        self.inner.aggregate2(pp, message, s_sig)
    }
    fn aggregate(
        &self,
        pp: &Self::PublicParams,
        board: &Self::KeyBoard,
        message: &[u8],
        sigs: &[Self::Signature],
    ) -> Option<Self::Signature> {
        self.inner.aggregate(pp, board, message, sigs)
    }
    fn verify(
        &self,
        pp: &Self::PublicParams,
        board: &Self::KeyBoard,
        message: &[u8],
        sig: &Self::Signature,
    ) -> bool {
        self.verified
            .borrow_mut()
            .push((message.to_vec(), sig.clone()));
        self.inner.verify(pp, board, message, sig)
    }
    fn min_index(&self, sig: &Self::Signature) -> u64 {
        self.inner.min_index(sig)
    }
    fn max_index(&self, sig: &Self::Signature) -> u64 {
        self.inner.max_index(sig)
    }
    fn signature_len(&self, sig: &Self::Signature) -> usize {
        self.inner.signature_len(sig)
    }
}

#[test]
fn honest_run_verifies_the_certificate_once() {
    let scheme = CountingSrds::new(OwfSrds::with_defaults());
    let mut service =
        Service::try_establish(&scheme, &BaConfig::honest(64, b"memo-honest")).expect("establish");
    scheme.take();
    let round = service.certify_bytes(vec![1], Sha256::digest(b"coin"));
    assert!(round.certificate_len.is_some(), "σ_root never formed");
    assert_eq!(round.cert_verifications, 1);
    assert_eq!(
        scheme.take().len(),
        1,
        "the scheme saw more than one verify"
    );
    let online = service.honest().len();
    assert!(
        round.cert_checks >= online,
        "{} logical checks for {online} honest online parties",
        round.cert_checks
    );
    for &p in service.honest() {
        assert_eq!(round.outputs[p.index()], Some(vec![1]), "party {p:?}");
    }
}

#[test]
fn memo_cannot_be_poisoned_by_step6_garbage() {
    let scheme = CountingSrds::new(OwfSrds::with_defaults());
    // A seed whose tree leaves a few honest parties under majority-corrupt
    // paths (asserted below), so the garbage really is delivered.
    let n = 128;
    let config = BaConfig::byzantine(n, 32, b"memo-poison-31");
    let mut service = Service::try_establish(&scheme, &config).expect("establish");
    scheme.take();
    let (epoch, value, seed) = (0, vec![7u8], Sha256::digest(b"coin"));
    let round = service.certify_bytes(value.clone(), seed);
    let verified = scheme.take();

    // Rebuild the honest certificate from the one verify call, then replay
    // step 6's dissemination (deterministic in tree, corrupt set, payload
    // and adversary) to recover every party's delivered copy.
    assert_eq!(verified.len(), 1, "expected exactly one physical verify");
    assert_eq!(round.cert_verifications, 1);
    let (message, sig) = &verified[0];
    assert_eq!(
        message,
        &wire::encode_msg(&ValueSeed {
            epoch,
            value: value.clone(),
            seed,
        })
    );
    let honest_cert = wire::encode_msg(&Certificate {
        epoch,
        value: value.clone(),
        seed,
        sig: encode_to_vec(sig),
    });
    let garbage = vec![0xbbu8; honest_cert.len()];
    let corrupt: BTreeSet<PartyId> = service.corrupt().clone();
    let delivered = disseminate(
        &mut Network::new(n),
        service.tree(),
        &corrupt,
        &|member: PartyId| (!corrupt.contains(&member)).then(|| honest_cert.clone()),
        &mut constant_adversary(garbage.clone()),
    );
    let copy = |p: PartyId| delivered.party_value(p.index());
    let honest = service.honest().to_vec();
    assert!(
        honest.iter().any(|&p| copy(p) == Some(garbage.as_slice())),
        "the scenario must deliver garbage to some honest party"
    );
    let distinct: BTreeSet<&[u8]> = honest.iter().filter_map(|&p| copy(p)).collect();
    assert_eq!(
        distinct,
        BTreeSet::from([honest_cert.as_slice(), garbage.as_slice()]),
        "delivered byte strings"
    );

    // Direct check, no memo: every copy decoded and verified afresh.
    let direct = |bytes: &[u8]| -> Option<Vec<u8>> {
        let cert = wire::decode_msg::<Certificate>(bytes).ok()?;
        if cert.epoch != epoch {
            return None;
        }
        let sig = decode_from_slice(&cert.sig).ok()?;
        let signed = wire::encode_msg(&ValueSeed {
            epoch,
            value: cert.value.clone(),
            seed: cert.seed,
        });
        scheme.verify_directly(&signed, &sig).then_some(cert.value)
    };
    assert_eq!(direct(&garbage), None, "garbage must be rejected");
    assert_eq!(direct(&honest_cert), Some(value.clone()));

    let subset_size = service.params().committee_size.min(n - 1).max(1);
    let mut expected: Vec<Option<Vec<u8>>> = vec![None; n];
    let mut checks = 0;
    for &p in &honest {
        if let Some(bytes) = copy(p) {
            checks += 1;
            expected[p.index()] = direct(bytes);
        }
    }
    for &p in &honest {
        let Some(bytes) = copy(p) else { continue };
        let Ok(cert) = wire::decode_msg::<Certificate>(bytes) else {
            continue;
        };
        for j in SubsetPrf::new(cert.seed, n as u64, subset_size).eval(p.0) {
            let receiver = PartyId(j);
            if !corrupt.contains(&receiver) && expected[receiver.index()].is_none() {
                checks += 1;
                expected[receiver.index()] = direct(bytes);
            }
        }
    }
    assert_eq!(round.outputs, expected);
    assert_eq!(round.cert_checks, checks);
    assert!(round.cert_checks > round.cert_verifications);
    assert!(honest.iter().all(|&p| round.outputs[p.index()]
        .as_deref()
        .is_none_or(|v| v == value)));
}
