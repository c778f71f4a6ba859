//! Output checks: a digest of each workload's simulated output, pinned at
//! the default seed and required to repeat across a run's iterations.
//!
//! The benchmark measures host time only. A change meant to speed up the
//! simulator must leave the simulated output byte-identical, so the pins
//! below move only when the model itself changes on purpose.

use crate::{Opts, Workload};

/// The seed the pins were recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// FNV-1a, 64-bit.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Digest of the simulated output at [`DEFAULT_SEED`]: `FleetReport` JSON
/// (fleet-scripted), the cells' taxonomy JSON (corpus-oracle), the final
/// recovered `STATE` (service-uptime).
fn pinned(workload: Workload, smoke: bool) -> u64 {
    match (workload, smoke) {
        (Workload::FleetScripted, false) => 0x9a72_0079_c71d_0adb,
        (Workload::FleetScripted, true) => 0x02be_5f46_a45b_71de,
        (Workload::CorpusOracle, false) => 0x2ee0_6bd9_9eef_7ed9,
        (Workload::CorpusOracle, true) => 0x4514_8660_e8b9_a528,
        (Workload::ServiceUptime, false) => 0x70a3_1827_7cd7_1d3a,
        (Workload::ServiceUptime, true) => 0x8d1e_06c7_7ff2_3eb2,
    }
}

/// Checks every output digest of one run.
#[derive(Debug)]
pub struct Digests {
    pin: Option<u64>,
    first: Option<u64>,
}

impl Digests {
    pub fn new(opts: &Opts) -> Self {
        let pin = (opts.seed == DEFAULT_SEED)
            .then(|| pinned(opts.workload, opts.smoke) ^ u64::from(opts.corrupt_digest));
        Self { pin, first: None }
    }

    /// The first digest seen, for the report line.
    pub fn first(&self) -> Option<u64> {
        self.first
    }

    /// Checks one output: equal to the pin at the default seed, and equal
    /// to every earlier output of this run (same seed, same inputs).
    pub fn check(&mut self, output: &[u8]) -> Result<(), String> {
        let digest = fnv(output);
        let first = *self.first.get_or_insert(digest);
        if digest != first {
            return Err(format!(
                "output digest {digest:016x} differs from this run's first {first:016x}"
            ));
        }
        match self.pin {
            Some(pin) if pin != digest => Err(format!(
                "output digest {digest:016x} differs from the pinned {pin:016x}"
            )),
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
