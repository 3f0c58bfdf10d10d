//! Keccak-256, the EVM's hash function.
//!
//! Used by the interpreter's `SHA3` opcode and by the dataset layer to
//! deduplicate bytecodes and derive synthetic contract addresses (the paper
//! deduplicates 17,455 phishing bytecodes down to 3,458 unique ones).
//!
//! This is the original Keccak padding (`0x01`), not NIST SHA-3 (`0x06`),
//! matching Ethereum.

const ROUNDS: usize = 24;

const RC: [u64; ROUNDS] = [
    0x0000000000000001,
    0x0000000000008082,
    0x800000000000808a,
    0x8000000080008000,
    0x000000000000808b,
    0x0000000080000001,
    0x8000000080008081,
    0x8000000000008009,
    0x000000000000008a,
    0x0000000000000088,
    0x0000000080008009,
    0x000000008000000a,
    0x000000008000808b,
    0x800000000000008b,
    0x8000000000008089,
    0x8000000000008003,
    0x8000000000008002,
    0x8000000000000080,
    0x000000000000800a,
    0x800000008000000a,
    0x8000000080008081,
    0x8000000000008080,
    0x0000000080000001,
    0x8000000080008008,
];

const RHO: [u32; 24] = [
    1, 3, 6, 10, 15, 21, 28, 36, 45, 55, 2, 14, 27, 41, 56, 8, 25, 43, 62, 18, 39, 61, 20, 44,
];

const PI: [usize; 24] = [
    10, 7, 11, 17, 18, 3, 5, 16, 8, 21, 24, 4, 15, 23, 19, 13, 12, 2, 20, 14, 22, 9, 6, 1,
];

fn keccak_f1600(state: &mut [u64; 25]) {
    for rc in RC.iter().take(ROUNDS) {
        // θ
        let mut c = [0u64; 5];
        for (x, cx) in c.iter_mut().enumerate() {
            *cx = state[x] ^ state[x + 5] ^ state[x + 10] ^ state[x + 15] ^ state[x + 20];
        }
        for x in 0..5 {
            let d = c[(x + 4) % 5] ^ c[(x + 1) % 5].rotate_left(1);
            for y in 0..5 {
                state[x + 5 * y] ^= d;
            }
        }
        // ρ and π
        let mut last = state[1];
        for i in 0..24 {
            let j = PI[i];
            let tmp = state[j];
            state[j] = last.rotate_left(RHO[i]);
            last = tmp;
        }
        // χ
        for y in 0..5 {
            let row: [u64; 5] = core::array::from_fn(|x| state[5 * y + x]);
            for x in 0..5 {
                state[5 * y + x] = row[x] ^ (!row[(x + 1) % 5] & row[(x + 2) % 5]);
            }
        }
        // ι
        state[0] ^= rc;
    }
}

/// Computes the Keccak-256 digest of `data`.
///
/// ```
/// use phishinghook_evm::keccak::keccak256;
///
/// // The famous Ethereum "empty code hash".
/// let digest = keccak256(b"");
/// assert_eq!(
///     hex(&digest),
///     "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
/// );
///
/// fn hex(b: &[u8]) -> String {
///     b.iter().map(|x| format!("{x:02x}")).collect()
/// }
/// ```
pub fn keccak256(data: &[u8]) -> [u8; 32] {
    const RATE: usize = 136; // 1088-bit rate for 256-bit output
    let mut state = [0u64; 25];

    let mut chunks = data.chunks_exact(RATE);
    for block in &mut chunks {
        absorb(&mut state, block);
        keccak_f1600(&mut state);
    }

    // Final (padded) block: Keccak pad10*1 with domain byte 0x01.
    let rem = chunks.remainder();
    let mut block = [0u8; RATE];
    block[..rem.len()].copy_from_slice(rem);
    block[rem.len()] ^= 0x01;
    block[RATE - 1] ^= 0x80;
    absorb(&mut state, &block);
    keccak_f1600(&mut state);

    let mut out = [0u8; 32];
    for i in 0..4 {
        out[8 * i..8 * i + 8].copy_from_slice(&state[i].to_le_bytes());
    }
    out
}

fn absorb(state: &mut [u64; 25], block: &[u8]) {
    for (i, lane) in block.chunks_exact(8).enumerate() {
        state[i] ^= u64::from_le_bytes(lane.try_into().expect("8-byte lane"));
    }
}

/// A Keccak-256 digest as a first-class value: 32 bytes that hash, compare
/// and order cheaply, usable directly as a lookup key (verdict caches,
/// bytecode dedup sets) without re-hashing the preimage.
///
/// ```
/// use phishinghook_evm::keccak::Digest;
///
/// let d = Digest::of(b"");
/// assert!(d.to_hex().starts_with("c5d24601"));
/// assert_eq!(d, Digest::of(b""));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub [u8; 32]);

impl Digest {
    /// Keccak-256 of `data` (Ethereum's code-hash primitive).
    pub fn of(data: &[u8]) -> Digest {
        Digest(keccak256(data))
    }

    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lowercase hex form (64 characters, no `0x` prefix).
    pub fn to_hex(&self) -> String {
        to_hex(&self.0)
    }
}

impl std::fmt::Debug for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Digest(0x{})", self.to_hex())
    }
}

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{}", self.to_hex())
    }
}

/// Formats a digest (or any byte slice) as lowercase hex.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write;
        write!(s, "{b:02x}").expect("writing to a String cannot fail");
    }
    s
}

/// Nibble value of every byte: `0..=15` for a hex digit (either case),
/// [`NOT_HEX`] for anything else.
const NIBBLE: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut b = 0;
    while b < 10 {
        table[b'0' as usize + b] = b as u8;
        b += 1;
    }
    let mut b = 0;
    while b < 6 {
        table[b'a' as usize + b] = 10 + b as u8;
        table[b'A' as usize + b] = 10 + b as u8;
        b += 1;
    }
    table
};

/// The [`NIBBLE`] entry of a non-hex byte: its high bits survive any OR
/// with valid nibbles, so one check after the loop catches every bad digit.
const NOT_HEX: u8 = 0xFF;

/// Parses lowercase/uppercase hex (with optional `0x` prefix) into bytes.
///
/// # Errors
/// Returns `None` for odd-length or non-hex input.
pub fn from_hex(s: &str) -> Option<Vec<u8>> {
    decode_hex(s.strip_prefix("0x").unwrap_or(s).as_bytes())
}

/// Decodes prefix-free hex digits. Every digit goes through the [`NIBBLE`]
/// table; invalid digits are folded into one accumulator checked at the end
/// instead of branching per nibble.
fn decode_hex(digits: &[u8]) -> Option<Vec<u8>> {
    if !digits.len().is_multiple_of(2) {
        return None;
    }
    let mut bad = 0u8;
    let out = digits
        .chunks_exact(2)
        .map(|pair| {
            let (hi, lo) = (NIBBLE[pair[0] as usize], NIBBLE[pair[1] as usize]);
            bad |= hi | lo;
            (hi << 4) | lo
        })
        .collect();
    (bad & !0x0F == 0).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_string_vector() {
        assert_eq!(
            to_hex(&keccak256(b"")),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470"
        );
    }

    #[test]
    fn abc_vector() {
        assert_eq!(
            to_hex(&keccak256(b"abc")),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45"
        );
    }

    #[test]
    fn transfer_selector() {
        // The canonical ERC-20 selector test: keccak("transfer(address,uint256)")[0..4] = a9059cbb
        let d = keccak256(b"transfer(address,uint256)");
        assert_eq!(to_hex(&d[..4]), "a9059cbb");
    }

    #[test]
    fn long_input_crosses_rate_boundary() {
        // 200 bytes > 136-byte rate; check against a stable self-consistent value.
        let data = vec![0xAAu8; 200];
        let d1 = keccak256(&data);
        let d2 = keccak256(&data);
        assert_eq!(d1, d2);
        assert_ne!(d1, keccak256(&vec![0xAAu8; 201]));
    }

    #[test]
    fn exact_rate_block() {
        // Exactly 136 bytes exercises the full-block + empty-padded-block path.
        let data = vec![0x42u8; 136];
        let d = keccak256(&data);
        assert_ne!(d, keccak256(&[0x42u8; 135]));
    }

    #[test]
    fn digest_wrapper_matches_raw_hash_and_formats() {
        let d = Digest::of(b"abc");
        assert_eq!(*d.as_bytes(), keccak256(b"abc"));
        assert_eq!(d.to_hex(), to_hex(&keccak256(b"abc")));
        assert_eq!(format!("{d}"), format!("0x{}", d.to_hex()));
        assert!(format!("{d:?}").starts_with("Digest(0x4e036"));
        // Usable as a map key without re-hashing the preimage.
        let mut set = std::collections::HashSet::new();
        assert!(set.insert(d));
        assert!(!set.insert(Digest::of(b"abc")));
        assert!(set.insert(Digest::of(b"abd")));
    }

    #[test]
    fn hex_roundtrip() {
        let bytes = vec![0x00, 0x01, 0xAB, 0xFF];
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert_eq!(from_hex("0x6080").unwrap(), vec![0x60, 0x80]);
        assert!(from_hex("abc").is_none());
        assert!(from_hex("zz").is_none());
    }

    /// The digit semantics the table must reproduce: `char::to_digit(16)`
    /// on the byte read as a char (non-ASCII bytes are never digits).
    fn reference(digits: &[u8]) -> Option<Vec<u8>> {
        if !digits.len().is_multiple_of(2) {
            return None;
        }
        digits
            .chunks_exact(2)
            .map(|pair| {
                let hi = (pair[0] as char).to_digit(16)?;
                let lo = (pair[1] as char).to_digit(16)?;
                Some((hi * 16 + lo) as u8)
            })
            .collect()
    }

    #[test]
    fn hex_table_matches_to_digit_on_every_byte_pair() {
        for a in 0..=255u8 {
            for b in 0..=255u8 {
                let pair = [a, b];
                let expected = reference(&pair);
                assert_eq!(decode_hex(&pair), expected, "{pair:02x?}");
                if let Ok(text) = std::str::from_utf8(&pair) {
                    // `"0x"` itself is a prefix with no digits after it.
                    let bare = reference(text.strip_prefix("0x").unwrap_or(text).as_bytes());
                    assert_eq!(from_hex(text), bare, "{text:?}");
                    assert_eq!(from_hex(&format!("0x{text}")), expected, "0x{text:?}");
                }
            }
        }
    }

    #[test]
    fn hex_prefix_and_odd_lengths() {
        assert_eq!(from_hex(""), Some(vec![]));
        assert_eq!(from_hex("0x"), Some(vec![]));
        assert_eq!(from_hex("0xAbCd"), Some(vec![0xAB, 0xCD]));
        // Only a lowercase `0x` prefix is stripped, and only once.
        assert!(from_hex("0X60").is_none());
        assert!(from_hex("0x0x60").is_none());
        for odd in ["0", "0x0", "606", "0x606", "0x6080604"] {
            assert!(from_hex(odd).is_none(), "{odd}");
        }
        // A bad digit anywhere, first or last, fails the whole input.
        assert!(from_hex("g0606060").is_none());
        assert!(from_hex("6060606g").is_none());
        // Multibyte characters are never digits, even at even byte length.
        assert!(from_hex("\u{e9}").is_none());
        assert!(from_hex("60\u{e9}60").is_none());
    }
}
