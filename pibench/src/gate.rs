//! The correctness gate every decision passes through.
//!
//! A decision counts as correct only when it completed, the honest
//! parties agreed, validity held, the agreed value is the seeded
//! unanimous input, a certificate formed, and the service's per-tag byte
//! attribution still conserves its totals. A failed check is counted,
//! never a panic, so a run reports how many decisions failed and exits
//! non-zero afterwards.

use pba_core::protocol::{MultiValueOutcome, ProtocolError};

/// Checks one decision against the value every party was given.
pub fn check_decision(
    result: &Result<MultiValueOutcome, ProtocolError>,
    expected: &[u8],
    tags_conserved: bool,
) -> Result<(), String> {
    let outcome = result
        .as_ref()
        .map_err(|e| format!("instance failed: {e}"))?;
    if !outcome.agreement {
        return Err("honest parties did not agree".into());
    }
    if !outcome.validity {
        return Err("validity did not hold".into());
    }
    if outcome.value != expected {
        return Err(format!(
            "agreed value {:02x?} differs from the seeded input {:02x?}",
            outcome.value, expected
        ));
    }
    if outcome.certificate_len.is_none() {
        return Err("no certificate formed".into());
    }
    if !tags_conserved {
        return Err("per-tag byte attribution does not conserve totals".into());
    }
    Ok(())
}

/// Attempted and failed decisions of a run, and failed checks that are
/// not decisions of their own.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Decisions attempted.
    pub attempted: u64,
    /// Attempted decisions that failed a check.
    pub failed: u64,
    /// Other checks that failed: a timed establishment outside any cycle,
    /// or one of the traced run's self-checks.
    pub check_failures: u64,
    /// The first failure's reason, for the report.
    pub first_failure: Option<String>,
}

impl Tally {
    /// Counts one checked decision.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = verdict {
            self.failed += 1;
            self.first_failure.get_or_insert(reason);
        }
    }

    /// Counts `decisions` attempted decisions that all failed for one
    /// reason, such as the establishment that was to serve them.
    pub fn record_lost(&mut self, decisions: usize, reason: String) {
        self.attempted += decisions as u64;
        self.failed += decisions as u64;
        self.first_failure.get_or_insert(reason);
    }

    /// Counts a failed check that is not a decision.
    pub fn fail_check(&mut self, reason: String) {
        self.check_failures += 1;
        self.first_failure.get_or_insert(reason);
    }

    /// Fraction of attempted decisions that failed.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// Whether decisions were attempted and every decision and check
    /// passed.
    pub fn passed(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.check_failures == 0
    }
}
