//! Golden digests for the dynamic channel.
//!
//! The digests were recorded before the explorer learned to analyse each
//! contract once and reuse its run state. Any change to how the explorer
//! executes a contract must leave every trace, and so every trace feature
//! bit, exactly as it was: a model trained on old rows must score new rows
//! the same way.

use phishinghook::data::{Corpus, CorpusConfig, Scenario};
use phishinghook::evm::explorer::Explorer;
use phishinghook::evm::keccak::{keccak256, to_hex};
use phishinghook::features::TraceExtractor;

/// keccak-256 of the little-endian `f64::to_bits` bytes of the trace rows
/// of the mixed corpus (seed 11) followed by the honeypot corpus (seed 41).
const FEATURE_BITS_DIGEST: &str =
    "cd0584a910047c1e39a228f2f88edf1ce11c7990f573612eec3c7a7526573318";

/// keccak-256 of the `Debug` rendering of every explorer trace over the
/// same two corpora, one trace per line.
const TRACE_DEBUG_DIGEST: &str = "6fb66ec93751f9eead2b97b5f36e124c8dd10f62c6e9f742e60dda972168167b";

fn corpora() -> Vec<Vec<u8>> {
    [(Scenario::Mixed, 11), (Scenario::Honeypot, 41)]
        .into_iter()
        .flat_map(|(scenario, seed)| {
            Corpus::generate(&CorpusConfig {
                n_contracts: 300,
                seed,
                scenario,
                ..Default::default()
            })
            .records
        })
        .map(|r| r.bytecode)
        .collect()
}

#[test]
fn trace_feature_bits_match_the_golden_digest() {
    let codes = corpora();
    let refs: Vec<&[u8]> = codes.iter().map(Vec::as_slice).collect();
    let m = TraceExtractor::new().transform(&refs);
    let mut bytes = Vec::with_capacity(m.rows() * m.cols() * 8);
    for i in 0..m.rows() {
        for x in m.row(i) {
            bytes.extend_from_slice(&x.to_bits().to_le_bytes());
        }
    }
    assert_eq!(to_hex(&keccak256(&bytes)), FEATURE_BITS_DIGEST);
}

#[test]
fn explorer_traces_match_the_golden_digest() {
    let explorer = Explorer::default();
    let mut text = String::new();
    for code in corpora() {
        text.push_str(&format!("{:?}\n", explorer.explore(&code)));
    }
    assert_eq!(to_hex(&keccak256(text.as_bytes())), TRACE_DEBUG_DIGEST);
}
