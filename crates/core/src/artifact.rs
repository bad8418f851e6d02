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
//! * **A design digest** — [`design_digest`] hashes what a compile hands
//!   to place-and-route, sharding and simulation, so two knob settings
//!   that compile to one design can share one simulation.
//!
//! There is no VUDFG wire form: lowered and placed graphs live only in
//! the memory of the engine that built them.
//!
//! Canonical-text helpers ([`program_canon`], [`options_canon`]) define
//! what "the same program, the same flags" means for cache keys: any
//! semantic difference must change the text (and therefore the hash);
//! spurious differences only cost a recompute, never a wrong hit.

use crate::compile::{Compiled, CompilerOptions};
use crate::vudfg::UnitId;
use plasticine_arch::SystemSpec;
use sara_ir::Program;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

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

/// Content digest of a compiled design: the whole VUDFG (unit labels,
/// stream depths and DRAM init data included) and the assignment fields
/// that place-and-route and sharding read (`pu_type`, `merge`,
/// `unit_parts` and `extra_latency`). Two compiles with one digest
/// place, shard and simulate identically on one system under one PnR
/// seed, whatever knobs produced them. The resource report and the CMMC
/// statistics are left out: nothing downstream of the compile reads
/// them.
///
/// The structures are walked by their `Hash` impls into a
/// [`StableHasher`], never through JSON or `Debug` text: integers go in
/// little-endian, `usize` and enum tags at 64 bits, floats by their bits
/// (see `sara_ir::Elem`'s `Hash`), and the three `HashMap`s in `UnitId`
/// order, so every process computes the same digest. Integer slices go
/// in as native bytes, so a store moved to a big-endian or 32-bit host
/// misses once; it is never served a wrong entry.
pub fn design_digest(c: &Compiled) -> String {
    let mut h = StableHasher::new();
    let mut feed = HashFeed(&mut h);
    let a = &c.assignment;
    c.vudfg.hash(&mut feed);
    a.merge.hash(&mut feed);
    by_unit(&a.pu_type).hash(&mut feed);
    by_unit(&a.unit_parts).hash(&mut feed);
    by_unit(&a.extra_latency).hash(&mut feed);
    h.hex()
}

/// A per-unit map's entries in `UnitId` order.
fn by_unit<V>(map: &HashMap<UnitId, V>) -> Vec<(&UnitId, &V)> {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort_unstable_by_key(|(u, _)| **u);
    entries
}

/// Feeds a `Hash` walk into a [`StableHasher`] with fixed-width
/// little-endian integers (the std defaults write native-endian bytes,
/// `usize` at the platform's width).
struct HashFeed<'a>(&'a mut StableHasher);

impl Hasher for HashFeed<'_> {
    fn finish(&self) -> u64 {
        self.0.lo
    }

    fn write(&mut self, bytes: &[u8]) {
        self.0.bytes(bytes);
    }

    fn write_u16(&mut self, i: u16) {
        self.0.bytes(&i.to_le_bytes());
    }

    fn write_u32(&mut self, i: u32) {
        self.0.bytes(&i.to_le_bytes());
    }

    fn write_u64(&mut self, i: u64) {
        self.0.bytes(&i.to_le_bytes());
    }

    fn write_u128(&mut self, i: u128) {
        self.0.bytes(&i.to_le_bytes());
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
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
    fn design_digest_is_repeatable_and_sees_every_design_field() {
        use plasticine_arch::PuType;
        use sara_ir::Elem;

        // `gemm` has a split unit, so every assignment map is non-empty.
        let chip = plasticine_arch::ChipSpec::small_8x8();
        let program = sara_workloads::by_name("gemm").unwrap().program;
        let compile = || crate::compile::compile(&program, &chip, &CompilerOptions::default());
        let c = compile().unwrap();
        let base = design_digest(&c);
        assert_eq!(design_digest(&compile().unwrap()), base, "a second compile moved the digest");
        assert_eq!(base.len(), 32);

        fn first<V>(m: &HashMap<UnitId, V>) -> UnitId {
            *m.keys().min().expect("non-empty map")
        }
        type Mutation = (&'static str, fn(&mut Compiled));
        let mutations: [Mutation; 7] = [
            ("stream depth", |c| c.vudfg.streams[0].depth += 1),
            ("unit label", |c| c.vudfg.units[0].label.push('x')),
            ("DRAM init element", |c| {
                let e = &mut c.vudfg.drams[0].init[0];
                *e = Elem::F64(e.as_f64() + 1.0);
            }),
            ("pu_type entry", |c| {
                let u = first(&c.assignment.pu_type);
                let t = c.assignment.pu_type.get_mut(&u).unwrap();
                *t = if *t == PuType::Pcu { PuType::Pmu } else { PuType::Pcu };
            }),
            ("unit_parts value", |c| {
                let u = first(&c.assignment.unit_parts);
                *c.assignment.unit_parts.get_mut(&u).unwrap() += 1;
            }),
            ("extra_latency value", |c| {
                let u = first(&c.assignment.extra_latency);
                *c.assignment.extra_latency.get_mut(&u).unwrap() += 1;
            }),
            ("merge group", |c| {
                let s = &mut c.assignment.merge.solution;
                s.group[0] = s.num_groups;
            }),
        ];
        for (what, mutate) in mutations {
            let mut m = c.clone();
            mutate(&mut m);
            assert_ne!(design_digest(&m), base, "{what} must change the digest");
        }

        // `0.0 == -0.0` as numbers, yet they are two designs.
        let mut zero = c.clone();
        zero.vudfg.drams[0].init[0] = Elem::F64(0.0);
        let mut negative = zero.clone();
        negative.vudfg.drams[0].init[0] = Elem::F64(-0.0);
        assert_ne!(design_digest(&negative), design_digest(&zero), "0.0 -> -0.0 must change it");
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
