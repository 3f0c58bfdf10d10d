//! Seeded input generators. Every input the program receives is made here
//! from the `--seed` argument; the same seed gives the same request bytes.
//!
//! Each generator draws from its own seed-derived stream, and everything
//! scanned is held out from the training corpus (no scanned bytecode's
//! keccak digest occurs among the training contracts).

use phishinghook_data::{ChainFirehose, Corpus, CorpusConfig, FirehoseConfig};
use phishinghook_evm::keccak::{to_hex, Digest};
use std::collections::HashSet;
use std::io::Write;

/// Stream salts: one independent seed per generator.
const TRAIN: u64 = 1;
const BULK: u64 = 2;
const WALLET: u64 = 3;
const CHAIN_POOL: u64 = 4;
const CHAIN_STREAM: u64 = 5;
/// Salt of the detector's own training seed.
pub const MODEL: u64 = 6;

/// Labeled contracts the snapshots are trained on.
pub const TRAIN_CONTRACTS: usize = 1000;

/// The set-up probe's request: a bytecode no generator emits, so timing
/// the first answer never warms the cache for a workload's inputs.
pub const PROBE_HEX: &str = "6080604052";

/// SplitMix64 finalizer over `seed` and a stream salt.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn corpus(n: usize, seed: u64) -> Corpus {
    Corpus::generate(&CorpusConfig {
        n_contracts: n,
        seed,
        ..Default::default()
    })
}

/// The training corpus of one seed.
pub struct Training {
    /// Bytecodes.
    pub codes: Vec<Vec<u8>>,
    /// Class labels (1 = phishing).
    pub labels: Vec<usize>,
    /// Digests of `codes`, for holding scanned inputs out.
    pub digests: HashSet<Digest>,
}

/// The training corpus derived from `seed`.
pub fn training(seed: u64, n: usize) -> Training {
    let corpus = corpus(n, mix(seed, TRAIN));
    let codes: Vec<Vec<u8>> = corpus.records.iter().map(|r| r.bytecode.clone()).collect();
    let labels = corpus.records.iter().map(|r| r.label.as_index()).collect();
    let digests = codes.iter().map(|c| Digest::of(c)).collect();
    Training {
        codes,
        labels,
        digests,
    }
}

/// Up to `n` distinct contracts of the seed's bulk corpus, none of them in
/// the training set.
pub fn bulk_contracts(seed: u64, n: usize, train: &HashSet<Digest>) -> Vec<Vec<u8>> {
    let mut seen = train.clone();
    corpus(n, mix(seed, BULK))
        .records
        .into_iter()
        .map(|r| r.bytecode)
        .filter(|c| seen.insert(Digest::of(c)))
        .collect()
}

/// An unbounded sequence of distinct bytecodes: held-out pool contracts,
/// each followed by an `INVALID` byte and an 8-byte tail unique to its
/// index (the way compiler metadata makes redeployed sources differ).
#[derive(Debug, Clone)]
pub struct Variants {
    pool: Vec<Vec<u8>>,
    key: u64,
}

impl Variants {
    /// The seed's variant sequence over a pool of `pool` contracts.
    pub fn new(seed: u64, pool: usize, train: &HashSet<Digest>) -> Self {
        let stream = mix(seed, WALLET);
        let mut seen = train.clone();
        let pool = corpus(pool, stream)
            .records
            .into_iter()
            .map(|r| r.bytecode)
            .filter(|c| seen.insert(Digest::of(c)))
            .collect();
        Variants { pool, key: stream }
    }

    /// Bytecode `i`; distinct indices give distinct bytecodes (the last 8
    /// bytes encode the index).
    pub fn get(&self, i: u64) -> Vec<u8> {
        let base = &self.pool[(i % self.pool.len() as u64) as usize];
        let mut code = Vec::with_capacity(base.len() + 9);
        code.extend_from_slice(base);
        code.push(0xfe);
        code.extend_from_slice(&(i ^ self.key).to_le_bytes());
        code
    }
}

/// The chain-watch deployment stream: a template pool and the firehose's
/// skewed sequence of template indices.
#[derive(Debug, Clone)]
pub struct ChainStream {
    /// Template bytecodes (held out from training).
    pub templates: Vec<Vec<u8>>,
    /// Hex of each template.
    pub hex: Vec<String>,
    /// Template index of every deployment, in arrival order.
    pub sequence: Vec<u32>,
}

/// `len` deployments over a `templates`-contract pool at Zipf skew `skew`.
pub fn chain_stream(
    seed: u64,
    templates: usize,
    skew: f64,
    len: usize,
    train: &HashSet<Digest>,
) -> ChainStream {
    let mut pool = corpus(templates, mix(seed, CHAIN_POOL));
    pool.records
        .retain(|r| !train.contains(&Digest::of(&r.bytecode)));
    let firehose = ChainFirehose::from_corpus(
        &pool,
        &FirehoseConfig {
            templates,
            seed: mix(seed, CHAIN_STREAM),
            skew,
            deploys_per_block: 5,
        },
    );
    let templates: Vec<Vec<u8>> = pool.records[..firehose.template_pool()]
        .iter()
        .map(|r| r.bytecode.clone())
        .collect();
    let hex = templates.iter().map(|c| to_hex(c)).collect();
    let sequence = firehose.take(len).map(|e| e.template as u32).collect();
    ChainStream {
        templates,
        hex,
        sequence,
    }
}

/// Appends one JSONL v2 request line for bytecode `hex` under id `id`.
pub fn jsonl_request(out: &mut Vec<u8>, id: u64, hex: &str) {
    writeln!(out, "{{\"id\":\"{id}\",\"bytecode\":\"0x{hex}\"}}").expect("writing to a Vec");
}

/// Appends one keep-alive `POST /predict` request carrying `body`.
pub fn http_predict(out: &mut Vec<u8>, body: &[u8]) {
    write!(
        out,
        "POST /predict HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .expect("writing to a Vec");
    out.extend_from_slice(body);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every request byte a workload sends, for a small instance of each
    /// generator.
    fn request_bytes(seed: u64) -> Vec<Vec<u8>> {
        let train = training(seed, 40);
        let mut bulk = Vec::new();
        for (i, c) in bulk_contracts(seed, 30, &train.digests).iter().enumerate() {
            jsonl_request(&mut bulk, i as u64, &to_hex(c));
        }
        let variants = Variants::new(seed, 20, &train.digests);
        let mut wallet = Vec::new();
        for i in 0..50 {
            let mut body = Vec::new();
            jsonl_request(&mut body, i, &to_hex(&variants.get(i)));
            http_predict(&mut wallet, &body);
        }
        let chain = chain_stream(seed, 30, 1.1, 200, &train.digests);
        let mut watch = Vec::new();
        for (i, &t) in chain.sequence.iter().enumerate() {
            jsonl_request(&mut watch, i as u64, &chain.hex[t as usize]);
        }
        let model: Vec<u8> = train.codes.concat();
        vec![model, bulk, wallet, watch]
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = request_bytes(11);
        assert_eq!(a, request_bytes(11));
        let b = request_bytes(12);
        for (x, y) in a.iter().zip(&b) {
            assert!(!x.is_empty());
            assert_ne!(x, y);
        }
    }

    #[test]
    fn scanned_inputs_are_distinct_and_held_out() {
        let train = training(3, 60);
        let bulk = bulk_contracts(3, 60, &train.digests);
        let digests: HashSet<Digest> = bulk.iter().map(|c| Digest::of(c)).collect();
        assert_eq!(digests.len(), bulk.len());
        assert!(digests.is_disjoint(&train.digests));

        let variants = Variants::new(3, 5, &train.digests);
        let many: HashSet<Vec<u8>> = (0..500).map(|i| variants.get(i)).collect();
        assert_eq!(many.len(), 500, "no repeats within a run");

        let chain = chain_stream(3, 40, 1.1, 400, &train.digests);
        assert!(chain
            .templates
            .iter()
            .all(|c| !train.digests.contains(&Digest::of(c))));
        let distinct: HashSet<u32> = chain.sequence.iter().copied().collect();
        assert!(distinct.len() < chain.sequence.len(), "redeploys repeat");
    }
}
