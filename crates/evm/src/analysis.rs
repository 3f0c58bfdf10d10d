//! One linear pass over a contract's bytecode.
//!
//! Both the interpreter and the dispatcher explorer need facts that depend
//! only on the code: which offsets are valid `JUMPDEST`s (a `0x5B` byte
//! outside every `PUSH` immediate) and which selectors the dispatcher
//! compares calldata against. [`CodeAnalysis`] walks the instruction
//! boundaries once, on the flat [`OpTable`] immediate widths, and records
//! both, so exploring a contract with several entry-point runs analyses it
//! once rather than once per run.

use crate::opcode::OpTable;

const JUMPDEST: u8 = 0x5B;
const PUSH4: u8 = 0x63;
const EQ: u8 = 0x14;

/// The code-only facts every run of one contract shares.
#[derive(Debug)]
pub(crate) struct CodeAnalysis<'c> {
    code: &'c [u8],
    /// Bit `pc` is set when `pc` is a valid jump destination.
    jumpdests: Vec<u64>,
    /// Dispatcher selectors, deduplicated, in order of first appearance.
    selectors: Vec<[u8; 4]>,
}

impl<'c> CodeAnalysis<'c> {
    /// Walks `code` once.
    ///
    /// A selector is a `PUSH4 <selector>` whose full immediate is present
    /// and whose *next* instruction is `EQ` (covering the canonical `DUP1
    /// PUSH4 … EQ JUMPI` emitted by solc and this repo's assembler, plus
    /// Vyper's `CALLDATALOAD PUSH4 … EQ` shape).
    pub(crate) fn new(code: &'c [u8]) -> Self {
        let table = OpTable::shared();
        let mut jumpdests = vec![0u64; code.len().div_ceil(64)];
        let mut selectors: Vec<[u8; 4]> = Vec::new();
        let mut pc = 0usize;
        while pc < code.len() {
            let byte = code[pc];
            if byte == JUMPDEST {
                jumpdests[pc / 64] |= 1 << (pc % 64);
            } else if byte == PUSH4 && code.get(pc + 5) == Some(&EQ) {
                let sel = [code[pc + 1], code[pc + 2], code[pc + 3], code[pc + 4]];
                if !selectors.contains(&sel) {
                    selectors.push(sel);
                }
            }
            pc += 1 + table.immediate_bytes(byte);
        }
        CodeAnalysis {
            code,
            jumpdests,
            selectors,
        }
    }

    /// The analysed bytecode.
    pub(crate) fn code(&self) -> &'c [u8] {
        self.code
    }

    /// `true` when `pc` is a `JUMPDEST` at an instruction boundary.
    #[inline]
    pub(crate) fn is_jumpdest(&self, pc: usize) -> bool {
        self.jumpdests
            .get(pc / 64)
            .is_some_and(|word| word >> (pc % 64) & 1 == 1)
    }

    /// The dispatcher's selector table.
    pub(crate) fn selectors(&self) -> &[[u8; 4]] {
        &self.selectors
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opcode::ShanghaiRegistry;
    use proptest::prelude::*;

    /// The reference: a walk over the registry that checks each fact
    /// separately, written for clarity rather than speed.
    fn naive(code: &[u8]) -> (Vec<bool>, Vec<[u8; 4]>) {
        let reg = ShanghaiRegistry::shared();
        let mut boundaries = Vec::new();
        let mut pc = 0usize;
        while pc < code.len() {
            boundaries.push(pc);
            pc += 1 + reg
                .get(code[pc])
                .map_or(0, |i| usize::from(i.immediate_bytes));
        }
        let mut jumpdests = vec![false; code.len()];
        let mut selectors: Vec<[u8; 4]> = Vec::new();
        for &pc in &boundaries {
            jumpdests[pc] = code[pc] == 0x5B;
            if code[pc] == 0x63 && pc + 5 < code.len() && code[pc + 5] == 0x14 {
                let sel: [u8; 4] = code[pc + 1..pc + 5].try_into().expect("four bytes");
                if !selectors.contains(&sel) {
                    selectors.push(sel);
                }
            }
        }
        (jumpdests, selectors)
    }

    fn assert_matches_naive(code: &[u8]) {
        let analysis = CodeAnalysis::new(code);
        let (jumpdests, selectors) = naive(code);
        for (pc, &expected) in jumpdests.iter().enumerate() {
            assert_eq!(analysis.is_jumpdest(pc), expected, "pc {pc} of {code:02x?}");
        }
        // Nothing past the end is a destination, however far.
        for pc in [code.len(), code.len() + 1, code.len() + 64, usize::MAX] {
            assert!(!analysis.is_jumpdest(pc), "pc {pc} is past the end");
        }
        assert_eq!(analysis.selectors(), selectors.as_slice());
    }

    #[test]
    fn jumpdest_inside_push_immediate_is_not_a_destination() {
        // PUSH2 0x5B5B; JUMPDEST
        let code = [0x61, 0x5B, 0x5B, 0x5B];
        let analysis = CodeAnalysis::new(&code);
        assert!(!analysis.is_jumpdest(1) && !analysis.is_jumpdest(2));
        assert!(analysis.is_jumpdest(3));
        assert_matches_naive(&code);
    }

    #[test]
    fn truncated_trailing_push_hides_its_tail() {
        // JUMPDEST; PUSH32 with only two immediate bytes, both 0x5B.
        let code = [0x5B, 0x7F, 0x5B, 0x5B];
        let analysis = CodeAnalysis::new(&code);
        assert!(analysis.is_jumpdest(0));
        assert!(!analysis.is_jumpdest(2) && !analysis.is_jumpdest(3));
        assert_matches_naive(&code);
        // A PUSH4 cut short before its EQ is no selector.
        assert!(CodeAnalysis::new(&[0x63, 1, 2, 3, 4])
            .selectors()
            .is_empty());
        assert!(CodeAnalysis::new(&[0x63, 1, 2, 0x14])
            .selectors()
            .is_empty());
    }

    #[test]
    fn empty_code_has_nothing() {
        let analysis = CodeAnalysis::new(&[]);
        assert!(!analysis.is_jumpdest(0));
        assert!(analysis.selectors().is_empty());
    }

    #[test]
    fn repeated_selectors_keep_first_appearance_order() {
        let code = [
            0x63, 9, 9, 9, 9, 0x14, // PUSH4 09090909 EQ
            0x63, 1, 1, 1, 1, 0x14, // PUSH4 01010101 EQ
            0x63, 9, 9, 9, 9, 0x14, // repeat of the first
        ];
        let analysis = CodeAnalysis::new(&code);
        assert_eq!(analysis.selectors(), &[[9, 9, 9, 9], [1, 1, 1, 1]]);
        assert_matches_naive(&code);
    }

    /// Maps a random draw to a byte from a distribution dense in the bytes
    /// the analysis cares about (JUMPDEST, PUSH4, EQ and every PUSH width),
    /// so the cases above come up often.
    fn dense_byte(draw: u16) -> u8 {
        let [pick, raw] = draw.to_be_bytes();
        match pick % 4 {
            0 => [0x5B, 0x63, 0x14, 0x7F][usize::from(raw % 4)],
            1 => 0x60 + raw % 32,
            _ => raw,
        }
    }

    proptest! {
        #[test]
        fn analysis_matches_the_naive_walk(
            code in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            assert_matches_naive(&code);
        }

        #[test]
        fn analysis_matches_the_naive_walk_on_dense_code(
            draws in proptest::collection::vec(any::<u16>(), 0..200),
        ) {
            let code: Vec<u8> = draws.into_iter().map(dense_byte).collect();
            assert_matches_naive(&code);
        }

        #[test]
        fn analysis_matches_the_naive_walk_on_repeated_selectors(
            picks in proptest::collection::vec(0usize..3, 0..12),
            tail in proptest::collection::vec(any::<u8>(), 0..8),
        ) {
            let table = [[0xAA, 0xBB, 0xCC, 0xDD], [1, 2, 3, 4], [0x5B; 4]];
            let mut code = Vec::new();
            for &i in &picks {
                code.push(0x80); // DUP1
                code.push(0x63);
                code.extend_from_slice(&table[i]);
                code.push(0x14);
            }
            code.extend_from_slice(&tail);
            assert_matches_naive(&code);
            let mut expected: Vec<[u8; 4]> = Vec::new();
            for &i in &picks {
                if !expected.contains(&table[i]) {
                    expected.push(table[i]);
                }
            }
            let analysis = CodeAnalysis::new(&code);
            prop_assert_eq!(analysis.selectors(), expected.as_slice());
        }
    }
}
