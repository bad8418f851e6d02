//! Memory declarations: DRAM tensors, on-chip scratchpads, scalar registers
//! and FIFOs.

use crate::value::{DType, Elem};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a memory declaration within a [`crate::Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MemId(pub u32);

impl MemId {
    /// Index into the program's memory table.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for MemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// Kind of a declared memory.
///
/// The kind determines which physical resource the SARA back end lowers the
/// memory to: DRAM tensors become address-generator + DRAM-interface streams,
/// scratchpads become virtual memory units (VMUs, later Plasticine PMUs),
/// registers become single-element VMUs or broadcast streams, and FIFOs
/// become the input buffers of the consuming unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemKind {
    /// Off-chip tensor, explicitly transferred through DRAM interfaces.
    Dram,
    /// On-chip software-managed scratchpad.
    Sram,
    /// Scalar register; the only legal carrier for dynamic loop bounds,
    /// branch conditions and do-while conditions.
    Reg,
    /// Streaming first-in-first-out queue. Reads are destructive and must
    /// happen in write order; the compiler maps FIFOs onto unit input
    /// buffers (see the `msr` optimization, paper §III-C).
    Fifo,
}

impl fmt::Display for MemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemKind::Dram => "dram",
            MemKind::Sram => "sram",
            MemKind::Reg => "reg",
            MemKind::Fifo => "fifo",
        };
        f.write_str(s)
    }
}

/// Initial contents of a memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MemInit {
    /// All elements zero.
    Zero,
    /// Explicit element data, row-major; length must equal the memory size.
    Data(Vec<Elem>),
    /// `start + i * step` as `F64` for flat index `i`.
    LinSpace { start: f64, step: f64 },
    /// Uniform random floats in `[0, 1)`, reproducible from the seed.
    RandomF { seed: u64 },
    /// Uniform random integers in `[lo, hi)`, reproducible from the seed.
    RandomI { seed: u64, lo: i64, hi: i64 },
}

impl MemInit {
    /// Materialize the initial contents as a flat vector of `len` elements
    /// of type `dtype`.
    pub fn materialize(&self, len: usize, dtype: DType) -> Vec<Elem> {
        match self {
            MemInit::Zero => vec![dtype.zero(); len],
            MemInit::Data(d) => d.clone(),
            MemInit::LinSpace { start, step } => (0..len)
                .map(|i| {
                    let v = start + i as f64 * step;
                    match dtype {
                        DType::F64 => Elem::F64(v),
                        DType::I64 => Elem::I64(v as i64),
                    }
                })
                .collect(),
            MemInit::RandomF { seed } => {
                let mut rng = SmallRng::seed_from_u64(*seed);
                (0..len).map(|_| Elem::F64(rng.gen::<f64>())).collect()
            }
            MemInit::RandomI { seed, lo, hi } => {
                let mut rng = SmallRng::seed_from_u64(*seed);
                (0..len).map(|_| Elem::I64(rng.gen_range(*lo..*hi))).collect()
            }
        }
    }
}

/// A declared memory.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemDecl {
    /// Human-readable name, used by the pretty printer and diagnostics.
    pub name: String,
    /// Storage class.
    pub kind: MemKind,
    /// Logical tensor shape (row-major). Scalars use `[1]`.
    pub dims: Vec<usize>,
    /// Element type.
    pub dtype: DType,
    /// Initial contents.
    pub init: MemInit,
}

impl MemDecl {
    /// Total number of elements.
    pub fn size(&self) -> usize {
        self.dims.iter().product()
    }

    /// Whether the memory is a scalar register.
    pub fn is_scalar_reg(&self) -> bool {
        self.kind == MemKind::Reg && self.size() == 1
    }

    /// Row-major flattening of a multi-dimensional address. Takes the
    /// coordinates as an iterator, so callers need not collect them.
    ///
    /// Returns `None` if the coordinate count differs from the rank or any
    /// coordinate is out of range.
    pub fn flatten(&self, coords: impl IntoIterator<Item = i64>) -> Option<i64> {
        let mut coords = coords.into_iter();
        let mut flat: i64 = 0;
        for &d in &self.dims {
            let c = coords.next()?;
            if c < 0 || c >= d as i64 {
                return None;
            }
            flat = flat * d as i64 + c;
        }
        coords.next().is_none().then_some(flat)
    }

    /// Row-major strides of the tensor shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(dims: &[usize]) -> MemDecl {
        MemDecl {
            name: "m".into(),
            kind: MemKind::Sram,
            dims: dims.to_vec(),
            dtype: DType::F64,
            init: MemInit::Zero,
        }
    }

    #[test]
    fn size_and_strides() {
        let m = decl(&[2, 3, 4]);
        assert_eq!(m.size(), 24);
        assert_eq!(m.strides(), vec![12, 4, 1]);
    }

    #[test]
    fn flatten_row_major() {
        let m = decl(&[2, 3]);
        assert_eq!(m.flatten([0, 0]), Some(0));
        assert_eq!(m.flatten([1, 2]), Some(5));
        assert_eq!(m.flatten([2, 0]), None);
        assert_eq!(m.flatten([0, -1]), None);
        assert_eq!(m.flatten([0]), None);
        assert_eq!(m.flatten([0, 0, 0]), None);
    }

    #[test]
    fn materialize_zero_and_linspace() {
        let z = MemInit::Zero.materialize(3, DType::I64);
        assert!(z.iter().all(|e| e.bit_eq(Elem::I64(0))));
        let l = MemInit::LinSpace { start: 1.0, step: 0.5 }.materialize(3, DType::F64);
        assert_eq!(l[2], Elem::F64(2.0));
    }

    #[test]
    fn materialize_random_is_reproducible() {
        let a = MemInit::RandomF { seed: 7 }.materialize(16, DType::F64);
        let b = MemInit::RandomF { seed: 7 }.materialize(16, DType::F64);
        assert!(a.iter().zip(&b).all(|(x, y)| x.bit_eq(*y)));
        let c = MemInit::RandomI { seed: 7, lo: 0, hi: 10 }.materialize(64, DType::I64);
        assert!(c.iter().all(|e| (0..10).contains(&e.as_i64())));
    }

    #[test]
    fn scalar_reg_detection() {
        let mut m = decl(&[1]);
        m.kind = MemKind::Reg;
        assert!(m.is_scalar_reg());
        m.dims = vec![2];
        assert!(!m.is_scalar_reg());
    }
}
