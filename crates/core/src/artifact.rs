//! Stage-boundary artifacts: stable content hashing, canonical key
//! texts, and a bit-exact float encoding.
//!
//! The `sarad` compile-and-simulate service keys each pipeline stage's
//! output by a content hash of its inputs, and persists the small ones
//! (cost estimates, simulation results) as verifiable artifacts. That
//! needs two things from the compiler crate:
//!
//! * **Stable hashing** — [`StableHasher`] derives a deterministic
//!   128-bit content key from a stage's inputs (program text, compiler
//!   options, chip, PnR seed). The hash is *not* `std::hash::Hasher`
//!   (whose output is explicitly unstable across releases); it is a
//!   fixed FNV-1a construction whose values may be persisted in on-disk
//!   cache indexes. Domain separation comes from length-prefixing every
//!   field, so `("ab", "c")` and `("a", "bc")` never collide.
//! * **A bit-exact float encoding** — [`f64_bits`] / [`f64_from_bits`]
//!   write a float by its IEEE-754 bit pattern, not decimal text, so a
//!   persisted cost estimate reads back bit-identically (NaN payloads
//!   and `-0.0` included).
//!
//! There is no VUDFG wire form: lowered and placed graphs live only in
//! the memory of the engine that built them.
//!
//! Canonical-text helpers ([`program_canon`], [`options_canon`]) define
//! what "the same program, the same flags" means for cache keys: any
//! semantic difference must change the text (and therefore the hash);
//! spurious differences only cost a recompute, never a wrong hit.

use crate::compile::CompilerOptions;
use plasticine_arch::SystemSpec;
use sara_ir::Program;

// ---------------------------------------------------------------------------
// Stable hashing
// ---------------------------------------------------------------------------

/// Deterministic 128-bit content hasher (two independent FNV-1a 64-bit
/// lanes) with length-prefixed field framing. Stable across processes,
/// platforms, and releases — safe to persist in cache indexes.
#[derive(Debug, Clone)]
pub struct StableHasher {
    lo: u64,
    hi: u64,
}

const FNV_OFFSET_LO: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_OFFSET_HI: u64 = 0x6c62_272e_07bb_0142;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher.
    pub fn new() -> StableHasher {
        StableHasher { lo: FNV_OFFSET_LO, hi: FNV_OFFSET_HI }
    }

    /// Absorb raw bytes (no framing; see [`StableHasher::field`]).
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.lo = (self.lo ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            self.hi = (self.hi ^ u64::from(b ^ 0x5a)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorb one length-prefixed field: concatenation-ambiguity-proof.
    pub fn field(&mut self, bytes: &[u8]) -> &mut Self {
        self.bytes(&(bytes.len() as u64).to_le_bytes());
        self.bytes(bytes)
    }

    /// Absorb a string field.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.field(s.as_bytes())
    }

    /// Absorb an integer field.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.field(&v.to_le_bytes())
    }

    /// The 32-hex-character digest.
    pub fn hex(&self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }
}

/// One-shot digest of a byte string.
pub fn stable_hash_hex(bytes: &[u8]) -> String {
    let mut h = StableHasher::new();
    h.field(bytes);
    h.hex()
}

// ---------------------------------------------------------------------------
// Canonical key texts
// ---------------------------------------------------------------------------

/// Canonical text of a program for content addressing: the pretty-printed
/// control tree plus every memory's initial-contents spec (which the
/// pretty printer omits but which changes simulation results).
pub fn program_canon(p: &Program) -> String {
    use std::fmt::Write as _;
    let mut out = p.pretty();
    for (i, m) in p.mems.iter().enumerate() {
        let _ = writeln!(out, "init m{i} {:?}", m.init);
    }
    out
}

/// Canonical text of the full compiler-option set. Derived `Debug`
/// rendering: deterministic, and total over every field — renaming a
/// field invalidates old cache entries (a safe miss), while two distinct
/// option sets always render differently.
pub fn options_canon(opts: &CompilerOptions) -> String {
    format!("{opts:?}")
}

/// Content key of a compile stage: program, options, and the *full*
/// system/topology description ([`SystemSpec::canon`] covers every chip
/// and link field), so cached artifacts can never alias across two
/// topologies that happen to share a display name.
pub fn compile_key(p: &Program, opts: &CompilerOptions, system: &SystemSpec) -> String {
    let mut h = StableHasher::new();
    h.str("sarad-compile-v2").str(&program_canon(p)).str(&options_canon(opts)).str(&system.canon());
    h.hex()
}

// ---------------------------------------------------------------------------
// Float encoding
// ---------------------------------------------------------------------------

/// Bit-exact float encoding, `"f<16-hex IEEE-754 bits>"`: round-trips
/// NaN payloads and -0.0, which a decimal rendering would not.
pub fn f64_bits(v: f64) -> String {
    format!("f{:016x}", v.to_bits())
}

/// Read back a float written by [`f64_bits`]; `None` for any other
/// text.
pub fn f64_from_bits(s: &str) -> Option<f64> {
    s.strip_prefix('f').and_then(|hex| u64::from_str_radix(hex, 16).ok()).map(f64::from_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hashes_are_stable_and_framed() {
        // Pinned value: a change here silently invalidates every on-disk
        // cache in the wild, so it must be deliberate.
        assert_eq!(stable_hash_hex(b"sara"), "024aed4baab923ffe9dbf3d9d387586c");
        assert_eq!(stable_hash_hex(b"sara"), stable_hash_hex(b"sara"));
        assert_ne!(stable_hash_hex(b"sara"), stable_hash_hex(b"saraa"));
        // Length prefixing: shifting bytes between fields changes the hash.
        let ab_c = StableHasher::new().str("ab").str("c").hex();
        let a_bc = StableHasher::new().str("a").str("bc").hex();
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn canon_texts_cover_options_and_init_data() {
        let mut opts = CompilerOptions::default();
        let base = options_canon(&opts);
        opts.opt.retime = false;
        assert_ne!(base, options_canon(&opts), "flag flip must change the canon text");

        let w = sara_workloads::by_name("dotprod").unwrap();
        let mut p = w.program.clone();
        let canon = program_canon(&p);
        assert!(canon.contains("program"));
        // Mutate initial data only: pretty() alone would not see it.
        p.mems[0].init = sara_ir::MemInit::LinSpace { start: 99.0, step: 0.5 };
        assert_ne!(canon, program_canon(&p), "init change must change the canon text");
    }

    #[test]
    fn f64_bits_round_trip_bit_exactly() {
        for v in [0.1, -0.0, f64::INFINITY, f64::from_bits(0x7ff8_0000_0000_1234)] {
            let back = f64_from_bits(&f64_bits(v)).unwrap();
            assert_eq!(back.to_bits(), v.to_bits(), "{v:?}");
        }
        assert!(f64_from_bits("x1").is_none());
        assert!(f64_from_bits("fzz").is_none());
    }
}
