//! The operation-accounting ledger of the trusted server.
//!
//! Every counter is monotonically increasing and counts *events*, not
//! states, with retransmission and recovery explicitly separated out:
//!
//! * a retransmission of an already-pushed package increments
//!   [`Ledger::retransmissions`] only — never the push counters, so a lossy
//!   link cannot inflate the accounting;
//! * a pending operation voided by a vehicle reboot (its boot epoch moved on,
//!   so the outcome can never arrive) increments
//!   [`Ledger::operations_voided`] — it is neither completed nor failed;
//! * the orphan uninstalls a resync pushes are counted on their own, apart
//!   from user-initiated uninstalls.
//!
//! The ledger is part of the server's durability snapshot
//! (`TrustedServer::snapshot_bytes`), so a journaled-and-replayed server
//! carries byte-identical totals to the live one.

use dynar_foundation::codec::Reader;
#[cfg(doc)]
use dynar_foundation::error::DynarError;
use dynar_foundation::error::Result;
use dynar_foundation::value::Value;

/// Monotonic counters over every operation the trusted server performed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Install packages pushed (first transmission only).
    pub installs_pushed: u64,
    /// Uninstall messages pushed by user intent or reconciliation.
    pub uninstalls_pushed: u64,
    /// Install operations that resolved with every plug-in acknowledged.
    pub installs_completed: u64,
    /// Uninstall operations that resolved with every plug-in acknowledged.
    pub uninstalls_completed: u64,
    /// Operations that resolved failed (rejection, retry exhaustion, …).
    pub operations_failed: u64,
    /// Retransmissions of already-pushed packages (same sequence id).
    pub retransmissions: u64,
    /// Packages abandoned after their retry budget was spent.
    pub retries_exhausted: u64,
    /// Packages failed immediately because the vehicle is unreachable.
    pub unreachable_failures: u64,
    /// Pending operations voided by a vehicle boot-epoch bump (neither
    /// completed nor failed: their old-epoch outcome can never arrive).
    pub operations_voided: u64,
    /// State reports consumed to resynchronise a vehicle's observed state.
    pub resyncs: u64,
    /// Orphan uninstalls pushed by resyncs for unaccounted plug-ins.
    pub orphan_uninstalls: u64,
    /// Packages re-pushed by ECU restore operations.
    pub restores: u64,
    /// Vehicles whose desired manifest a rollout campaign rewrote (canary
    /// and ramp waves alike; one event per vehicle per campaign).
    pub campaign_exposures: u64,
    /// Vehicles restored to their recorded last-good manifest by a campaign
    /// abort.  A rollback is a manifest restore, **not** an uninstall: the
    /// replaced version re-enters the desired set and reconciliation
    /// reinstalls it.
    pub campaign_rollbacks: u64,
    /// Campaigns that converged every target to the new version.
    pub campaigns_completed: u64,
    /// Campaigns aborted (manually or by their health gate).
    pub campaigns_aborted: u64,
}

impl Ledger {
    /// Encodes the ledger as a [`Value`] (a fixed-arity list of counters).
    pub fn to_value(&self) -> Value {
        Value::List(
            [
                self.installs_pushed,
                self.uninstalls_pushed,
                self.installs_completed,
                self.uninstalls_completed,
                self.operations_failed,
                self.retransmissions,
                self.retries_exhausted,
                self.unreachable_failures,
                self.operations_voided,
                self.resyncs,
                self.orphan_uninstalls,
                self.restores,
                self.campaign_exposures,
                self.campaign_rollbacks,
                self.campaigns_completed,
                self.campaigns_aborted,
            ]
            .iter()
            .map(|&c| Value::I64(c as i64))
            .collect(),
        )
    }

    /// Reads a ledger whose [`Ledger::to_value`] form was encoded.
    ///
    /// # Errors
    ///
    /// Returns [`DynarError::ProtocolViolation`] for malformed encodings.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self> {
        r.list_of(16, "ledger")?;
        let mut counters = [0u64; 16];
        for counter in &mut counters {
            *counter = r.int("ledger counter")?;
        }
        let [installs_pushed, uninstalls_pushed, installs_completed, uninstalls_completed, operations_failed, retransmissions, retries_exhausted, unreachable_failures, operations_voided, resyncs, orphan_uninstalls, restores, campaign_exposures, campaign_rollbacks, campaigns_completed, campaigns_aborted] =
            counters;
        Ok(Ledger {
            installs_pushed,
            uninstalls_pushed,
            installs_completed,
            uninstalls_completed,
            operations_failed,
            retransmissions,
            retries_exhausted,
            unreachable_failures,
            operations_voided,
            resyncs,
            orphan_uninstalls,
            restores,
            campaign_exposures,
            campaign_rollbacks,
            campaigns_completed,
            campaigns_aborted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynar_foundation::codec;

    #[test]
    fn ledger_round_trips() {
        let ledger = Ledger {
            installs_pushed: 1,
            uninstalls_pushed: 2,
            installs_completed: 3,
            uninstalls_completed: 4,
            operations_failed: 5,
            retransmissions: 6,
            retries_exhausted: 7,
            unreachable_failures: 8,
            operations_voided: 9,
            resyncs: 10,
            orphan_uninstalls: 11,
            restores: 12,
            campaign_exposures: 13,
            campaign_rollbacks: 14,
            campaigns_completed: 15,
            campaigns_aborted: 16,
        };
        assert_eq!(decode(&ledger.to_value()).unwrap(), ledger);
    }

    /// Decodes the encoding of `value` as a ledger.
    fn decode(value: &Value) -> Result<Ledger> {
        codec::decode_with(&codec::encode_value(value), Ledger::decode)
    }

    #[test]
    fn malformed_ledgers_are_rejected() {
        assert!(decode(&Value::I64(1)).is_err());
        assert!(decode(&Value::List(vec![Value::I64(1)])).is_err());
        assert!(decode(&Value::List(vec![Value::I64(-1); 16])).is_err());
    }
}
