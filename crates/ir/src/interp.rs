//! Sequential reference interpreter.
//!
//! Executes the program with the semantics CMMC must preserve: controllers
//! run in program order, one activation at a time, and every memory access
//! observes all earlier accesses. The interpreter also gathers the dynamic
//! statistics (per-hyperblock firing counts, op counts, off-chip traffic)
//! consumed by Table IV and the GPU roofline baseline.
//!
//! It is a plain tree walk. Controllers and hyperblocks are borrowed from
//! the program, and all per-controller state lives in vectors indexed by
//! [`CtrlId`], so a firing allocates nothing.

use crate::error::IrError;
use crate::expr::{Expr, ExprId, Hyperblock};
use crate::mem::{MemDecl, MemId, MemKind};
use crate::program::{Bound, CtrlId, CtrlKind, Program};
use crate::value::{DType, Elem};
use std::collections::{HashMap, VecDeque};

/// Dynamic statistics gathered by one interpreter run.
#[derive(Debug, Clone, Default)]
pub struct InterpStats {
    /// Innermost-iteration (firing) count per hyperblock.
    pub hb_execs: HashMap<CtrlId, u64>,
    /// Activation count per controller.
    pub activations: HashMap<CtrlId, u64>,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Integer/bool operations executed.
    pub int_ops: u64,
    /// Loads executed (any memory).
    pub loads: u64,
    /// Stores executed (any memory; predicated-off stores do not count).
    pub stores: u64,
    /// Bytes read from DRAM tensors.
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM tensors.
    pub dram_write_bytes: u64,
}

impl InterpStats {
    /// Total off-chip traffic in bytes.
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Total arithmetic operations.
    pub fn total_ops(&self) -> u64 {
        self.flops + self.int_ops
    }
}

/// Result of an interpreter run: final memory images plus statistics.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Final contents of every memory, indexed by [`MemId`]. FIFO images
    /// contain the *remaining* (unpopped) elements front-first, padded with
    /// zeros to capacity.
    pub mem: Vec<Vec<Elem>>,
    /// Dynamic statistics.
    pub stats: InterpStats,
}

impl RunOutcome {
    /// Final contents of a memory as `f64`s (convenience for assertions).
    pub fn mem_f64(&self, id: MemId) -> Vec<f64> {
        self.mem[id.index()].iter().map(|e| e.as_f64()).collect()
    }

    /// Final contents of a memory as `i64`s.
    pub fn mem_i64(&self, id: MemId) -> Vec<i64> {
        self.mem[id.index()].iter().map(|e| e.as_i64()).collect()
    }
}

/// Per-loop dynamic iteration state used to answer `Idx`/`IsFirst`/`IsLast`.
#[derive(Debug, Clone, Copy)]
struct LoopState {
    idx: i64,
    min: i64,
    max: i64,
    step: i64,
}

impl LoopState {
    fn is_first(&self) -> bool {
        self.idx == self.min
    }
    fn is_last(&self) -> bool {
        if self.step > 0 {
            self.idx + self.step >= self.max
        } else {
            self.idx + self.step <= self.max
        }
    }
}

/// The sequential interpreter. Create with [`Interp::new`], optionally bound
/// with [`Interp::with_fuel`], then [`Interp::run`].
#[derive(Debug)]
pub struct Interp<'p> {
    p: &'p Program,
    mem: Vec<Vec<Elem>>,
    /// FIFO queues, indexed by [`MemId`] (empty for other memories).
    fifos: Vec<VecDeque<Elem>>,
    /// State of each counted loop while it is active, by [`CtrlId`].
    loops: Vec<Option<LoopState>>,
    /// Iteration of each do-while while it is active (also serves `Idx`
    /// over do-while), by [`CtrlId`].
    dw_iter: Vec<Option<i64>>,
    /// Activation count per controller, by [`CtrlId`].
    activations: Vec<u64>,
    /// Firing count per hyperblock, by [`CtrlId`].
    hb_execs: Vec<u64>,
    /// Firings of all hyperblocks so far (what the fuel bounds).
    firings: u64,
    /// First slot of each hyperblock's expressions in `reduce`, by
    /// [`CtrlId`].
    reduce_base: Vec<usize>,
    /// Accumulator of each `Reduce` at `reduce_base[hb] + slot`: the
    /// activation of `over` it belongs to and its running value; `None`
    /// before the first evaluation.
    reduce: Vec<Option<(u64, Elem)>>,
    /// Expression values of the current firing; the buffer is reused.
    vals: Vec<Elem>,
    stats: InterpStats,
    fuel: Option<u64>,
}

impl<'p> Interp<'p> {
    /// Create an interpreter over a validated program.
    pub fn new(p: &'p Program) -> Self {
        let mem = p.mems.iter().map(|m| m.init.materialize(m.size(), m.dtype)).collect();
        let n = p.ctrls.len();
        let mut reduce_base = vec![0; n];
        let mut slots = 0;
        for (base, c) in reduce_base.iter_mut().zip(&p.ctrls) {
            if let Some(h) = c.hyperblock() {
                *base = slots;
                slots += h.len();
            }
        }
        Interp {
            p,
            mem,
            // FIFO queues start empty, whatever their initial images:
            // FIFOs are transient streams.
            fifos: vec![VecDeque::new(); p.mems.len()],
            loops: vec![None; n],
            dw_iter: vec![None; n],
            activations: vec![0; n],
            hb_execs: vec![0; n],
            firings: 0,
            reduce_base,
            reduce: vec![None; slots],
            vals: Vec::new(),
            stats: InterpStats::default(),
            fuel: None,
        }
    }

    /// Bound the total number of hyperblock firings; exceeding it returns
    /// [`IrError::DoWhileDiverged`] on the root. Useful when interpreting
    /// randomly generated programs in property tests.
    pub fn with_fuel(mut self, fuel: u64) -> Self {
        self.fuel = Some(fuel);
        self
    }

    /// Run the program to completion.
    ///
    /// # Errors
    ///
    /// Out-of-bounds accesses, diverging do-while loops and fuel exhaustion
    /// are reported as errors.
    pub fn run(mut self) -> Result<RunOutcome, IrError> {
        let p = self.p;
        self.exec(p.root())?;
        // Fold remaining FIFO contents back into the memory image so
        // differential tests can compare them.
        for (i, m) in p.mems.iter().enumerate() {
            if m.kind != MemKind::Fifo {
                continue;
            }
            let img = &mut self.mem[i];
            img.iter_mut().for_each(|e| *e = m.dtype.zero());
            for (e, v) in img.iter_mut().zip(&self.fifos[i]) {
                *e = *v;
            }
        }
        let nonzero = |counts: &[u64]| {
            let ids = (0u32..).map(CtrlId);
            ids.zip(counts.iter().copied()).filter(|&(_, n)| n > 0).collect()
        };
        self.stats.hb_execs = nonzero(&self.hb_execs);
        self.stats.activations = nonzero(&self.activations);
        Ok(RunOutcome { mem: self.mem, stats: self.stats })
    }

    fn read_scalar_reg(&self, m: MemId) -> Elem {
        self.mem[m.index()][0]
    }

    fn resolve_bound(&self, b: Bound) -> i64 {
        match b {
            Bound::Const(v) => v,
            Bound::Reg(m) => self.read_scalar_reg(m).as_i64(),
        }
    }

    fn exec(&mut self, c: CtrlId) -> Result<(), IrError> {
        self.activations[c.index()] += 1;
        let ctrl = self.p.ctrl(c);
        match &ctrl.kind {
            CtrlKind::Root => {
                for &ch in &ctrl.children {
                    self.exec(ch)?;
                }
            }
            CtrlKind::Loop(spec) => {
                let min = self.resolve_bound(spec.min);
                let max = self.resolve_bound(spec.max);
                let step = spec.step;
                let mut i = min;
                while (step > 0 && i < max) || (step < 0 && i > max) {
                    self.loops[c.index()] = Some(LoopState { idx: i, min, max, step });
                    for &ch in &ctrl.children {
                        self.exec(ch)?;
                    }
                    i += step;
                }
                self.loops[c.index()] = None;
            }
            CtrlKind::Branch { cond } => {
                let taken = self.read_scalar_reg(*cond).as_bool();
                if taken {
                    self.exec(ctrl.children[0])?;
                } else if ctrl.children.len() > 1 {
                    self.exec(ctrl.children[1])?;
                }
            }
            CtrlKind::DoWhile { cond, max_iter } => {
                let mut k: i64 = 0;
                loop {
                    self.dw_iter[c.index()] = Some(k);
                    for &ch in &ctrl.children {
                        self.exec(ch)?;
                    }
                    if !self.read_scalar_reg(*cond).as_bool() {
                        break;
                    }
                    k += 1;
                    if k as u64 >= *max_iter {
                        return Err(IrError::DoWhileDiverged(c));
                    }
                }
                self.dw_iter[c.index()] = None;
            }
            CtrlKind::Leaf(h) => {
                self.exec_hyperblock(c, h)?;
            }
        }
        Ok(())
    }

    fn exec_hyperblock(&mut self, hb: CtrlId, h: &Hyperblock) -> Result<(), IrError> {
        self.hb_execs[hb.index()] += 1;
        self.firings += 1;
        if self.fuel.is_some_and(|fuel| self.firings > fuel) {
            return Err(IrError::DoWhileDiverged(self.p.root()));
        }
        let base = self.reduce_base[hb.index()];
        let mut vals = std::mem::take(&mut self.vals);
        vals.clear();
        for (eid, e) in h.iter() {
            let v = match e {
                Expr::Const(v) => *v,
                Expr::Idx(c) => {
                    if let Some(ls) = self.loops[c.index()] {
                        Elem::I64(ls.idx)
                    } else if let Some(k) = self.dw_iter[c.index()] {
                        Elem::I64(k)
                    } else {
                        // Referencing a loop that is not currently active is
                        // a validation bug; treat as zero defensively.
                        Elem::I64(0)
                    }
                }
                Expr::IsFirst(c) => {
                    if let Some(ls) = self.loops[c.index()] {
                        Elem::from_bool(ls.is_first())
                    } else if let Some(k) = self.dw_iter[c.index()] {
                        Elem::from_bool(k == 0)
                    } else {
                        Elem::TRUE
                    }
                }
                Expr::IsLast(c) => {
                    let ls = self.loops[c.index()];
                    Elem::from_bool(ls.map(|l| l.is_last()).unwrap_or(true))
                }
                Expr::Un(op, a) => {
                    let v = op.eval(vals[a.index()]);
                    self.count_op(v.dtype());
                    v
                }
                Expr::Bin(op, a, b) => {
                    let v = op.eval(vals[a.index()], vals[b.index()]);
                    self.count_op(v.dtype());
                    v
                }
                Expr::Mux { c, t, f } => {
                    if vals[c.index()].as_bool() {
                        vals[t.index()]
                    } else {
                        vals[f.index()]
                    }
                }
                Expr::Load { mem, addr } => self.do_load(*mem, addr, &vals)?,
                Expr::Store { mem, addr, value, cond } => {
                    let enabled = cond.map(|c| vals[c.index()].as_bool()).unwrap_or(true);
                    if enabled {
                        self.do_store(*mem, addr, vals[value.index()], &vals)?;
                    }
                    vals[value.index()]
                }
                Expr::Reduce { op, value, init, over } => {
                    // The accumulator restarts from `init` on each new
                    // activation of `over`.
                    let over_act = self.activations[over.index()];
                    let slot = &mut self.reduce[base + eid.index()];
                    let prev = match *slot {
                        Some((act, acc)) if act == over_act => acc,
                        _ => *init,
                    };
                    let acc = op.eval(prev, vals[value.index()]);
                    *slot = Some((over_act, acc));
                    self.count_op(acc.dtype());
                    acc
                }
            };
            vals.push(v);
        }
        self.vals = vals;
        Ok(())
    }

    fn count_op(&mut self, dtype: DType) {
        match dtype {
            DType::F64 => self.stats.flops += 1,
            DType::I64 => self.stats.int_ops += 1,
        }
    }

    fn do_load(&mut self, mem: MemId, addr: &[ExprId], vals: &[Elem]) -> Result<Elem, IrError> {
        self.stats.loads += 1;
        let decl = self.p.mem(mem);
        if decl.kind == MemKind::Fifo {
            let q = &mut self.fifos[mem.index()];
            return Ok(q.pop_front().unwrap_or_else(|| decl.dtype.zero()));
        }
        let flat = flat_index(mem, decl, addr, vals)?;
        if decl.kind == MemKind::Dram {
            self.stats.dram_read_bytes += decl.dtype.dram_bytes() as u64;
        }
        Ok(self.mem[mem.index()][flat])
    }

    fn do_store(
        &mut self,
        mem: MemId,
        addr: &[ExprId],
        v: Elem,
        vals: &[Elem],
    ) -> Result<(), IrError> {
        self.stats.stores += 1;
        let decl = self.p.mem(mem);
        if decl.kind == MemKind::Fifo {
            self.fifos[mem.index()].push_back(v);
            return Ok(());
        }
        let flat = flat_index(mem, decl, addr, vals)?;
        if decl.kind == MemKind::Dram {
            self.stats.dram_write_bytes += decl.dtype.dram_bytes() as u64;
        }
        self.mem[mem.index()][flat] = v;
        Ok(())
    }
}

/// Flat index of `mem[addr]`. Out of range, the error names the first
/// coordinate (-1 for an empty address) and the flat size.
fn flat_index(
    mem: MemId,
    decl: &MemDecl,
    addr: &[ExprId],
    vals: &[Elem],
) -> Result<usize, IrError> {
    let coord = |a: &ExprId| vals[a.index()].as_i64();
    let flat = decl.flatten(addr.iter().map(coord)).ok_or_else(|| IrError::Oob {
        mem,
        addr: addr.first().map_or(-1, coord),
        size: decl.size(),
    })?;
    Ok(flat as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::BinOp;
    use crate::mem::MemInit;
    use crate::program::LoopSpec;

    #[test]
    fn nested_loop_matmul_like() {
        // out[i] = sum_j a[i*4+j]
        let mut p = Program::new("t");
        let root = p.root();
        let a = p.dram("a", &[8], DType::F64, MemInit::LinSpace { start: 0.0, step: 1.0 });
        let out = p.dram("out", &[2], DType::F64, MemInit::Zero);
        let li = p.add_loop(root, "i", LoopSpec::new(0, 2, 1)).unwrap();
        let lj = p.add_loop(li, "j", LoopSpec::new(0, 4, 1)).unwrap();
        let hb = p.add_leaf(lj, "b").unwrap();
        let i = p.idx(hb, li).unwrap();
        let j = p.idx(hb, lj).unwrap();
        let four = p.c_i64(hb, 4).unwrap();
        let base = p.bin(hb, BinOp::Mul, i, four).unwrap();
        let addr = p.bin(hb, BinOp::Add, base, j).unwrap();
        let x = p.load(hb, a, &[addr]).unwrap();
        let acc = p.reduce(hb, BinOp::Add, x, Elem::F64(0.0), lj).unwrap();
        let last = p.is_last(hb, lj).unwrap();
        p.store_if(hb, out, &[i], acc, last).unwrap();
        p.validate().unwrap();
        let o = Interp::new(&p).run().unwrap();
        assert_eq!(o.mem_f64(out), vec![0.0 + 1.0 + 2.0 + 3.0, 4.0 + 5.0 + 6.0 + 7.0]);
        // reduce resets per activation of lj (per iteration of li)
        assert_eq!(o.stats.hb_execs[&hb], 8);
    }

    #[test]
    fn branch_on_parity() {
        // for i in 0..4 { c = i%2==0; if c { m[i]=1 } else { m[i]=2 } }
        let mut p = Program::new("t");
        let root = p.root();
        let m = p.dram("m", &[4], DType::I64, MemInit::Zero);
        let cond = p.reg("cond", DType::I64);
        let li = p.add_loop(root, "i", LoopSpec::new(0, 4, 1)).unwrap();
        let chb = p.add_leaf(li, "cond").unwrap();
        let i = p.idx(chb, li).unwrap();
        let two = p.c_i64(chb, 2).unwrap();
        let rem = p.bin(chb, BinOp::Mod, i, two).unwrap();
        let zero = p.c_i64(chb, 0).unwrap();
        let is_even = p.bin(chb, BinOp::Eq, rem, zero).unwrap();
        let z2 = p.c_i64(chb, 0).unwrap();
        p.store(chb, cond, &[z2], is_even).unwrap();
        let br = p.add_branch(li, "br", cond).unwrap();
        let t = p.add_leaf(br, "then").unwrap();
        let it = p.idx(t, li).unwrap();
        let one = p.c_i64(t, 1).unwrap();
        p.store(t, m, &[it], one).unwrap();
        let e = p.add_leaf(br, "else").unwrap();
        let ie = p.idx(e, li).unwrap();
        let twoe = p.c_i64(e, 2).unwrap();
        p.store(e, m, &[ie], twoe).unwrap();
        p.validate().unwrap();
        let o = Interp::new(&p).run().unwrap();
        assert_eq!(o.mem_i64(m), vec![1, 2, 1, 2]);
        assert_eq!(o.stats.hb_execs[&t], 2);
        assert_eq!(o.stats.hb_execs[&e], 2);
    }

    #[test]
    fn do_while_counts_to_threshold() {
        // k = 0; do { k += 1; cond = k < 5 } while cond;  result: k == 5
        let mut p = Program::new("t");
        let root = p.root();
        let k = p.reg("k", DType::I64);
        let cond = p.reg("cond", DType::I64);
        let dw = p.add_do_while(root, "dw", cond, 100).unwrap();
        let hb = p.add_leaf(dw, "body").unwrap();
        let z = p.c_i64(hb, 0).unwrap();
        let kv = p.load(hb, k, &[z]).unwrap();
        let one = p.c_i64(hb, 1).unwrap();
        let k1 = p.bin(hb, BinOp::Add, kv, one).unwrap();
        p.store(hb, k, &[z], k1).unwrap();
        let five = p.c_i64(hb, 5).unwrap();
        let c = p.bin(hb, BinOp::Lt, k1, five).unwrap();
        p.store(hb, cond, &[z], c).unwrap();
        p.validate().unwrap();
        let o = Interp::new(&p).run().unwrap();
        assert_eq!(o.mem_i64(k), vec![5]);
    }

    #[test]
    fn do_while_divergence_detected() {
        let mut p = Program::new("t");
        let root = p.root();
        let cond = p.reg_init("cond", Elem::I64(1));
        let dw = p.add_do_while(root, "dw", cond, 4).unwrap();
        let hb = p.add_leaf(dw, "body").unwrap();
        let z = p.c_i64(hb, 0).unwrap();
        let one = p.c_i64(hb, 1).unwrap();
        p.store(hb, cond, &[z], one).unwrap();
        p.validate().unwrap();
        assert!(matches!(Interp::new(&p).run(), Err(IrError::DoWhileDiverged(_))));
    }

    #[test]
    fn dynamic_bounds_from_register() {
        // n = 6; for i in 0..n { m[i] = i }
        let mut p = Program::new("t");
        let root = p.root();
        let n = p.reg("n", DType::I64);
        let m = p.dram("m", &[8], DType::I64, MemInit::Zero);
        let setup = p.add_leaf(root, "setup").unwrap();
        let six = p.c_i64(setup, 6).unwrap();
        let z = p.c_i64(setup, 0).unwrap();
        p.store(setup, n, &[z], six).unwrap();
        let li = p.add_loop(root, "i", LoopSpec::new(0, Bound::Reg(n), 1)).unwrap();
        let hb = p.add_leaf(li, "b").unwrap();
        let i = p.idx(hb, li).unwrap();
        p.store(hb, m, &[i], i).unwrap();
        p.validate().unwrap();
        let o = Interp::new(&p).run().unwrap();
        assert_eq!(o.mem_i64(m), vec![0, 1, 2, 3, 4, 5, 0, 0]);
    }

    #[test]
    fn oob_detected() {
        let mut p = Program::new("t");
        let root = p.root();
        let m = p.sram("m", &[2], DType::I64);
        let hb = p.add_leaf(root, "b").unwrap();
        let five = p.c_i64(hb, 5).unwrap();
        p.load(hb, m, &[five]).unwrap();
        p.validate().unwrap();
        assert!(matches!(Interp::new(&p).run(), Err(IrError::Oob { .. })));
    }

    #[test]
    fn fifo_queue_semantics() {
        // push 0..4 into fifo in one loop, pop into dram in another
        let mut p = Program::new("t");
        let root = p.root();
        let f = p.fifo("f", 8, DType::I64);
        let out = p.dram("out", &[4], DType::I64, MemInit::Zero);
        let l1 = p.add_loop(root, "w", LoopSpec::new(0, 4, 1)).unwrap();
        let h1 = p.add_leaf(l1, "wb").unwrap();
        let i1 = p.idx(h1, l1).unwrap();
        let z1 = p.c_i64(h1, 0).unwrap();
        p.store(h1, f, &[z1], i1).unwrap();
        let l2 = p.add_loop(root, "r", LoopSpec::new(0, 4, 1)).unwrap();
        let h2 = p.add_leaf(l2, "rb").unwrap();
        let z2 = p.c_i64(h2, 0).unwrap();
        let v = p.load(h2, f, &[z2]).unwrap();
        let i2 = p.idx(h2, l2).unwrap();
        p.store(h2, out, &[i2], v).unwrap();
        p.validate().unwrap();
        let o = Interp::new(&p).run().unwrap();
        assert_eq!(o.mem_i64(out), vec![0, 1, 2, 3]);
    }

    #[test]
    fn stats_count_dram_traffic() {
        let mut p = Program::new("t");
        let root = p.root();
        let a = p.dram("a", &[4], DType::F64, MemInit::Zero);
        let l = p.add_loop(root, "i", LoopSpec::new(0, 4, 1)).unwrap();
        let hb = p.add_leaf(l, "b").unwrap();
        let i = p.idx(hb, l).unwrap();
        let x = p.load(hb, a, &[i]).unwrap();
        p.store(hb, a, &[i], x).unwrap();
        p.validate().unwrap();
        let o = Interp::new(&p).run().unwrap();
        assert_eq!(o.stats.dram_read_bytes, 16);
        assert_eq!(o.stats.dram_write_bytes, 16);
        assert_eq!(o.stats.loads, 4);
        assert_eq!(o.stats.stores, 4);
    }
}
