//! Scalar element values and data types carried by the IR, the reference
//! interpreter and the functional dataflow simulator.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};

/// Element data type of a memory or expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DType {
    /// 64-bit signed integer (also used for booleans, 0/1).
    I64,
    /// 64-bit IEEE-754 float.
    F64,
}

impl DType {
    /// Number of bytes an element of this type occupies in DRAM traffic
    /// accounting. The modeled Plasticine datapath is 32-bit, so both types
    /// count as 4 bytes when estimating off-chip bandwidth, matching the
    /// paper's single-precision workloads.
    pub fn dram_bytes(self) -> usize {
        4
    }

    /// Zero value of this type.
    pub fn zero(self) -> Elem {
        match self {
            DType::I64 => Elem::I64(0),
            DType::F64 => Elem::F64(0.0),
        }
    }
}

impl fmt::Display for DType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DType::I64 => write!(f, "i64"),
            DType::F64 => write!(f, "f64"),
        }
    }
}

/// A scalar element value.
///
/// Booleans are represented as `I64(0)`/`I64(1)`. All arithmetic helpers
/// promote `I64` to `F64` when the two operands disagree, mirroring the
/// implicit widening the Spatial front end performs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub enum Elem {
    I64(i64),
    F64(f64),
}

impl Elem {
    pub const TRUE: Elem = Elem::I64(1);
    pub const FALSE: Elem = Elem::I64(0);

    /// The data type of this element.
    pub fn dtype(self) -> DType {
        match self {
            Elem::I64(_) => DType::I64,
            Elem::F64(_) => DType::F64,
        }
    }

    /// Interpret as a boolean: nonzero is true.
    pub fn as_bool(self) -> bool {
        match self {
            Elem::I64(v) => v != 0,
            Elem::F64(v) => v != 0.0,
        }
    }

    /// Interpret as an integer, truncating floats.
    ///
    /// Addresses in the IR are integer expressions; the interpreter uses
    /// this to fold float-typed index arithmetic defensively.
    pub fn as_i64(self) -> i64 {
        match self {
            Elem::I64(v) => v,
            Elem::F64(v) => v as i64,
        }
    }

    /// Interpret as a float.
    pub fn as_f64(self) -> f64 {
        match self {
            Elem::I64(v) => v as f64,
            Elem::F64(v) => v,
        }
    }

    /// Construct a boolean element.
    pub fn from_bool(b: bool) -> Elem {
        if b {
            Elem::TRUE
        } else {
            Elem::FALSE
        }
    }

    /// Bit-exact equality used by differential tests between the reference
    /// interpreter and the dataflow simulator. NaN equals NaN so that a
    /// NaN-producing program still compares deterministically.
    pub fn bit_eq(self, other: Elem) -> bool {
        match (self, other) {
            (Elem::I64(a), Elem::I64(b)) => a == b,
            (Elem::F64(a), Elem::F64(b)) => a.to_bits() == b.to_bits(),
            _ => false,
        }
    }
}

impl PartialEq for Elem {
    fn eq(&self, other: &Self) -> bool {
        match (*self, *other) {
            (Elem::I64(a), Elem::I64(b)) => a == b,
            (a, b) => a.as_f64() == b.as_f64(),
        }
    }
}

/// Hashes the variant and the exact bits, the identity [`Elem::bit_eq`]
/// compares. That is stricter than the numeric `PartialEq`: `I64(2)`
/// and `F64(2.0)` are equal but hash apart, and so do `0.0` and `-0.0`.
/// `Elem` is not `Eq`, so no std hash collection keys by it; the impl
/// serves content digests of compiled designs, where a constant or an
/// initial value of another type or sign is another design: integer and
/// float division differ, and `1.0 / -0.0` is `-inf`.
impl Hash for Elem {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match *self {
            Elem::I64(v) => {
                state.write_u8(0);
                state.write_i64(v);
            }
            Elem::F64(v) => {
                state.write_u8(1);
                state.write_u64(v.to_bits());
            }
        }
    }
}

impl fmt::Display for Elem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Elem::I64(v) => write!(f, "{v}"),
            Elem::F64(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Elem {
    fn from(v: i64) -> Self {
        Elem::I64(v)
    }
}

impl From<f64> for Elem {
    fn from(v: f64) -> Self {
        Elem::F64(v)
    }
}

impl From<bool> for Elem {
    fn from(v: bool) -> Self {
        Elem::from_bool(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_display_and_zero() {
        assert_eq!(DType::I64.to_string(), "i64");
        assert_eq!(DType::F64.to_string(), "f64");
        assert!(DType::I64.zero().bit_eq(Elem::I64(0)));
        assert!(DType::F64.zero().bit_eq(Elem::F64(0.0)));
    }

    #[test]
    fn elem_coercions() {
        assert_eq!(Elem::I64(3).as_f64(), 3.0);
        assert_eq!(Elem::F64(3.7).as_i64(), 3);
        assert!(Elem::I64(1).as_bool());
        assert!(!Elem::F64(0.0).as_bool());
        assert_eq!(Elem::from_bool(true), Elem::I64(1));
    }

    #[test]
    fn mixed_equality_promotes() {
        assert_eq!(Elem::I64(2), Elem::F64(2.0));
        assert_ne!(Elem::I64(2), Elem::F64(2.5));
    }

    #[test]
    fn bit_eq_is_type_strict_and_nan_stable() {
        assert!(!Elem::I64(2).bit_eq(Elem::F64(2.0)));
        assert!(Elem::F64(f64::NAN).bit_eq(Elem::F64(f64::NAN)));
    }

    #[test]
    fn from_impls() {
        assert_eq!(Elem::from(4i64), Elem::I64(4));
        assert_eq!(Elem::from(4.0f64), Elem::F64(4.0));
        assert_eq!(Elem::from(false), Elem::I64(0));
    }
}
