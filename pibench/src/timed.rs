//! A forwarding [`Srds`] that counts and times every call by kind.
//!
//! The wrapper is passed to [`pba_core::protocol::Service`] in place of
//! the bare scheme, so the SRDS layer is measured from outside the
//! program: every `keygen`, `sign`/`sign_epoch`,
//! `aggregate`/`aggregate1`/`aggregate2` and `verify` call is forwarded
//! unchanged, timed, counted, and recorded as a span under the
//! innermost open benchmark span. Cache hooks (`cache_stats`,
//! `advance_cache_generation`) and the epoch capacity are forwarded
//! untouched, so a wrapped run is byte-for-byte the bare run.

use crate::trace::Tracer;
use pba_crypto::prg::Prg;
use pba_srds::cache::CacheStats;
use pba_srds::{PkiMode, Srds};
use std::cell::Cell;
use std::time::Instant;

/// Calls and busy time of one call kind.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Calls made.
    pub calls: u64,
    /// Nanoseconds spent inside them.
    pub busy_ns: u64,
}

impl CallStats {
    fn add(&mut self, other: CallStats) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
    }

    /// Busy time in milliseconds.
    pub fn ms(&self) -> f64 {
        self.busy_ns as f64 / 1e6
    }
}

/// Cumulative per-kind counters of a [`TimedSrds`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SrdsStats {
    /// `keygen` calls.
    pub keygen: CallStats,
    /// `sign` and `sign_epoch` calls.
    pub sign: CallStats,
    /// `aggregate`, `aggregate1` and `aggregate2` calls.
    pub aggregate: CallStats,
    /// `verify` calls.
    pub verify: CallStats,
    /// `verify` calls that returned false.
    pub verify_rejects: u64,
}

impl SrdsStats {
    /// Adds another wrapper's counters to these.
    pub fn add(&mut self, other: &SrdsStats) {
        self.keygen.add(other.keygen);
        self.sign.add(other.sign);
        self.aggregate.add(other.aggregate);
        self.verify.add(other.verify);
        self.verify_rejects += other.verify_rejects;
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Keygen,
    Sign,
    Aggregate,
    Verify,
}

/// The forwarding wrapper around a scheme `S`.
pub struct TimedSrds<'t, S> {
    inner: S,
    tracer: &'t Tracer,
    stats: Cell<SrdsStats>,
}

impl<'t, S: Srds> TimedSrds<'t, S> {
    /// Wraps `inner`, recording call spans into `tracer`.
    pub fn new(inner: S, tracer: &'t Tracer) -> Self {
        TimedSrds {
            inner,
            tracer,
            stats: Cell::new(SrdsStats::default()),
        }
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> SrdsStats {
        self.stats.get()
    }

    fn timed<R>(&self, kind: Kind, call: impl FnOnce(&S) -> R) -> R {
        let start = Instant::now();
        let out = call(&self.inner);
        let end = Instant::now();
        let ns = end.duration_since(start).as_nanos() as u64;
        let mut stats = self.stats.get();
        let (slot, name) = match kind {
            Kind::Keygen => (&mut stats.keygen, "srds.keygen"),
            Kind::Sign => (&mut stats.sign, "srds.sign"),
            Kind::Aggregate => (&mut stats.aggregate, "srds.aggregate"),
            Kind::Verify => (&mut stats.verify, "srds.verify"),
        };
        slot.calls += 1;
        slot.busy_ns += ns;
        self.stats.set(stats);
        self.tracer.leaf(name, start, end);
        out
    }
}

impl<S: Srds> Srds for TimedSrds<'_, S> {
    type PublicParams = S::PublicParams;
    type VerificationKey = S::VerificationKey;
    type SigningKey = S::SigningKey;
    type Signature = S::Signature;
    type KeyBoard = S::KeyBoard;

    fn mode(&self) -> PkiMode {
        self.inner.mode()
    }

    fn prepare(&self, pp: &Self::PublicParams, vks: &[Self::VerificationKey]) -> Self::KeyBoard {
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
        self.timed(Kind::Keygen, |s| s.keygen(pp, prg))
    }

    fn sign(
        &self,
        pp: &Self::PublicParams,
        index: u64,
        sk: &Self::SigningKey,
        message: &[u8],
    ) -> Option<Self::Signature> {
        self.timed(Kind::Sign, |s| s.sign(pp, index, sk, message))
    }

    fn sign_epoch(
        &self,
        pp: &Self::PublicParams,
        index: u64,
        sk: &Self::SigningKey,
        epoch: u64,
        message: &[u8],
    ) -> Option<Self::Signature> {
        self.timed(Kind::Sign, |s| s.sign_epoch(pp, index, sk, epoch, message))
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
        self.timed(Kind::Aggregate, |s| s.aggregate1(pp, board, message, sigs))
    }

    fn aggregate2(
        &self,
        pp: &Self::PublicParams,
        message: &[u8],
        s_sig: &[Self::Signature],
    ) -> Option<Self::Signature> {
        self.timed(Kind::Aggregate, |s| s.aggregate2(pp, message, s_sig))
    }

    fn aggregate(
        &self,
        pp: &Self::PublicParams,
        board: &Self::KeyBoard,
        message: &[u8],
        sigs: &[Self::Signature],
    ) -> Option<Self::Signature> {
        self.timed(Kind::Aggregate, |s| s.aggregate(pp, board, message, sigs))
    }

    fn verify(
        &self,
        pp: &Self::PublicParams,
        board: &Self::KeyBoard,
        message: &[u8],
        sig: &Self::Signature,
    ) -> bool {
        let accepted = self.timed(Kind::Verify, |s| s.verify(pp, board, message, sig));
        if !accepted {
            let mut stats = self.stats.get();
            stats.verify_rejects += 1;
            self.stats.set(stats);
        }
        accepted
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
