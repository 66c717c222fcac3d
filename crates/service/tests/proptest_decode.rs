//! Decoder total-function properties: the daemon reads job and result
//! files it did not write, so `JobSpec::decode` and `JobResult::decode`
//! must turn arbitrary bytes and single-byte mutations of valid
//! encodings into typed errors, never panics. A mutated spec that still
//! decodes and validates must also survive the daemon's key derivation.

use proptest::prelude::*;
use ssr_engine::EngineKind;
use ssr_service::{JobInit, JobResult, JobSpec, JobStatusKind, OutcomeStats};

fn spec_text() -> String {
    let mut spec = JobSpec::new("ring", 64, 7);
    spec.init = JobInit::KDistant(5);
    spec.engine = EngineKind::Jump;
    spec.max_interactions = 1_000_000;
    spec.threads = 2;
    spec.bursts = vec![(1_000, 4), (50_000, 2)];
    spec.fault_rate = 1e-4;
    spec.churn = 1e-5;
    spec.byzantine = 3;
    spec.encode()
}

fn result_text() -> String {
    JobResult {
        status: JobStatusKind::Timeout,
        interactions: 1_000_000,
        interactions_wide: 1_000_000,
        productive: 4_321,
        parallel_time: 15_625.0,
        outcome: Some(OutcomeStats {
            availability: 0.25,
            mean_k: 3.5,
            max_k: 17,
            faults_injected: 104,
            churn_events: 9,
            bursts: vec![(1_000, 4, 4, Some(20_000)), (50_000, 2, 2, None)],
        }),
    }
    .encode()
}

/// Replace the byte at `pos % len` with `byte` and decode lossily, the
/// way a corrupted file reaches the daemon.
fn mutate(text: &str, pos: usize, byte: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    let i = pos % bytes.len();
    bytes[i] = byte;
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary bytes decode to errors: without the version header no
    /// text is a spec or a result.
    #[test]
    fn decoders_reject_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let text = String::from_utf8_lossy(&bytes);
        prop_assert!(JobSpec::decode(&text).is_err());
        prop_assert!(JobResult::decode(&text).is_err());
    }

    /// Arbitrary bytes behind a valid header never panic either decoder.
    #[test]
    fn decoders_are_total_behind_a_valid_header(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let body = String::from_utf8_lossy(&bytes);
        let spec_header = spec_text().lines().next().unwrap_or_default().to_string();
        let result_header = result_text().lines().next().unwrap_or_default().to_string();
        let _ = JobSpec::decode(&format!("{spec_header}\n{body}"));
        let _ = JobResult::decode(&format!("{result_header}\n{body}"));
    }

    /// Single-byte mutations of a valid spec decode to an error or to a
    /// spec whose validation and key derivation do not panic.
    #[test]
    fn spec_decode_is_total_on_mutations(pos in 0usize..10_000, byte in any::<u8>()) {
        if let Ok(spec) = JobSpec::decode(&mutate(&spec_text(), pos, byte)) {
            if spec.validate().is_ok() {
                prop_assert!(spec.key().is_ok());
            }
        }
    }

    /// Single-byte mutations of a valid result decode to an error or to a
    /// result that re-encodes without panicking.
    #[test]
    fn result_decode_is_total_on_mutations(pos in 0usize..10_000, byte in any::<u8>()) {
        if let Ok(result) = JobResult::decode(&mutate(&result_text(), pos, byte)) {
            let _ = result.encode();
        }
    }
}

#[test]
fn fixtures_round_trip() {
    assert_eq!(JobSpec::decode(&spec_text()).unwrap().encode(), spec_text());
    assert_eq!(
        JobResult::decode(&result_text()).unwrap().encode(),
        result_text()
    );
}
