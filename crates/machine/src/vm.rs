//! Register VM for the compiled execution engine.
//!
//! Executes [`crate::bytecode::Exe`] while charging the exact cost,
//! cache, OpenMP and vectorizer model of the tree interpreter: every
//! fuel tick, cycle charge, cache access and flop increment happens in
//! the same order with the same values, so `Measurement`s are
//! bit-identical across both engines (the f64 `cycles`
//! accumulator is sensitive to addition order, so charges are never
//! merged — only pre-divided by the lexical vector discount at
//! lowering, which removes the `vector_depth` branch from this loop
//! entirely). `tests/vm_equivalence.rs` holds the engines to the
//! contract, with the tree interpreter as the oracle.

use locus_srcir::ast::{BinOp, OmpSchedule};

use crate::bytecode::{
    advance_base, array_init_data, ArrayCell, Builtin, CastKind, Exe, HotLoopDesc, NavDesc, Opnd,
    RInsn, RTail, SubIdx, ThrowKind,
};
use crate::cache::CacheHierarchy;
use crate::cost::OmpModel;
use crate::interp::{apply_bin, num_binop, Measurement, RuntimeError, Value};
use crate::MachineConfig;

/// One `omp parallel for` region in flight. Inactive contexts model
/// pragma'd loops nested inside an already-parallel region, which the
/// tree serializes.
struct ParCtx {
    active: bool,
    schedule: Option<OmpSchedule>,
    iter_start: f64,
    iter_costs: Vec<f64>,
}

/// Executes a lowered program. The caller supplies the (already
/// validated) cache hierarchy so configuration errors surface before
/// compilation, in the same order as `Interp::new`.
pub(crate) fn run(
    exe: &Exe,
    config: &MachineConfig,
    cache: CacheHierarchy,
) -> Result<Measurement, RuntimeError> {
    let mut regs = vec![Value::Int(0); exe.n_regs];
    regs[..exe.global_values.len()].copy_from_slice(&exe.global_values);
    let mut vm = Vm {
        exe,
        config,
        regs,
        arrays: exe.arrays.clone(),
        next_base: exe.next_base,
        cache,
        cycles: 0.0,
        ops: 0,
        flops: 0,
        in_parallel: false,
        par_stack: Vec::new(),
    };
    vm.exec()?;
    Ok(vm.measurement())
}

struct Vm<'a> {
    exe: &'a Exe,
    config: &'a MachineConfig,
    regs: Vec<Value>,
    arrays: Vec<Option<ArrayCell>>,
    next_base: u64,
    cache: CacheHierarchy,
    cycles: f64,
    ops: u64,
    flops: u64,
    in_parallel: bool,
    par_stack: Vec<ParCtx>,
}

/// Fast path for the error-free binary ops that dominate hot loops:
/// integer compares and wrapping integer add/sub (loop conditions and
/// induction steps), and double add/sub/mul (stencil arithmetic).
/// Returns `None` for everything else — including mixed-type operands
/// and any op that can fail — which falls back to [`apply_bin`].
/// Results are identical to `apply_bin`'s for every covered case.
#[inline(always)]
fn bin_fast(op: BinOp, l: Value, r: Value) -> Option<Value> {
    use Value::{Double, Int};
    match (l, r) {
        (Int(a), Int(b)) => Some(match op {
            BinOp::Add => Int(a.wrapping_add(b)),
            BinOp::Sub => Int(a.wrapping_sub(b)),
            BinOp::Mul => Int(a.wrapping_mul(b)),
            BinOp::Lt => Int(i64::from(a < b)),
            BinOp::Le => Int(i64::from(a <= b)),
            BinOp::Gt => Int(i64::from(a > b)),
            BinOp::Ge => Int(i64::from(a >= b)),
            BinOp::Eq => Int(i64::from(a == b)),
            BinOp::Ne => Int(i64::from(a != b)),
            _ => return None,
        }),
        (Double(a), Double(b)) => Some(match op {
            BinOp::Add => Double(a + b),
            BinOp::Sub => Double(a - b),
            BinOp::Mul => Double(a * b),
            BinOp::Div => Double(a / b),
            BinOp::Lt => Int(i64::from(a < b)),
            BinOp::Le => Int(i64::from(a <= b)),
            BinOp::Gt => Int(i64::from(a > b)),
            BinOp::Ge => Int(i64::from(a >= b)),
            BinOp::Eq => Int(i64::from(a == b)),
            BinOp::Ne => Int(i64::from(a != b)),
            _ => return None,
        }),
        _ => None,
    }
}

/// [`bin_fast`] with the [`apply_bin`] fallback folded in.
#[inline(always)]
fn bin_any(op: BinOp, l: Value, r: Value) -> Result<Value, RuntimeError> {
    match bin_fast(op, l, r) {
        Some(v) => Ok(v),
        None => apply_bin(op, l, r),
    }
}

impl Vm<'_> {
    #[inline]
    fn val(&self, o: Opnd) -> Value {
        match o {
            Opnd::Reg(r) => self.regs[r as usize],
            Opnd::ImmI(v) => Value::Int(v),
            Opnd::ImmF(v) => Value::Double(v),
        }
    }

    #[inline]
    fn fuel(&mut self, n: u32) -> Result<(), RuntimeError> {
        self.ops += u64::from(n);
        if self.ops > self.config.max_ops {
            return Err(RuntimeError::FuelExhausted);
        }
        Ok(())
    }

    // ---- shared instruction bodies --------------------------------------
    // Used verbatim by both the main dispatcher and the fused hot-loop
    // runner, so the two paths cannot drift apart.

    #[inline(always)]
    fn do_bin(
        &mut self,
        op: BinOp,
        cost: f64,
        dst: u32,
        a: Opnd,
        b: Opnd,
    ) -> Result<(), RuntimeError> {
        let l = self.val(a);
        let r = self.val(b);
        self.cycles += cost;
        if matches!(l, Value::Double(_)) || matches!(r, Value::Double(_)) {
            self.flops += 1;
        }
        self.regs[dst as usize] = bin_any(op, l, r)?;
        Ok(())
    }

    #[inline(always)]
    fn do_compound_set(
        &mut self,
        op: BinOp,
        cost: f64,
        slot: u32,
        rhs: Opnd,
    ) -> Result<(), RuntimeError> {
        let old = self.regs[slot as usize];
        let r = self.val(rhs);
        self.cycles += cost;
        if matches!(old, Value::Double(_)) {
            self.flops += 1;
        }
        let v = bin_any(op, old, r)?;
        self.write_slot(slot as usize, v);
        Ok(())
    }

    #[inline(always)]
    fn do_compound_set_val(
        &mut self,
        op: BinOp,
        cost: f64,
        slot: u32,
        rhs: Opnd,
        dst: u32,
    ) -> Result<(), RuntimeError> {
        let old = self.regs[slot as usize];
        let r = self.val(rhs);
        self.cycles += cost;
        if matches!(old, Value::Double(_)) {
            self.flops += 1;
        }
        let v = bin_any(op, old, r)?;
        self.regs[dst as usize] = v;
        self.write_slot(slot as usize, v);
        Ok(())
    }

    #[inline(always)]
    fn do_compound_tmp(
        &mut self,
        op: BinOp,
        cost: f64,
        dst: u32,
        old: Opnd,
        rhs: Opnd,
    ) -> Result<(), RuntimeError> {
        let o = self.val(old);
        let r = self.val(rhs);
        self.cycles += cost;
        if matches!(o, Value::Double(_)) {
            self.flops += 1;
        }
        self.regs[dst as usize] = bin_any(op, o, r)?;
        Ok(())
    }

    #[inline(always)]
    fn do_neg(&mut self, cost: f64, dst: u32, src: Opnd) {
        let v = self.val(src);
        self.cycles += cost;
        if matches!(v, Value::Double(_)) {
            self.flops += 1;
        }
        self.regs[dst as usize] = match v {
            Value::Int(x) => Value::Int(-x),
            Value::Double(x) => Value::Double(-x),
        };
    }

    #[inline(always)]
    fn do_not(&mut self, cost: f64, dst: u32, src: Opnd) {
        let v = self.val(src);
        self.cycles += cost;
        self.regs[dst as usize] = Value::Int(i64::from(!v.truthy()));
    }

    #[inline(always)]
    fn do_cast(&mut self, kind: CastKind, cost: f64, dst: u32, src: Opnd) {
        let v = self.val(src);
        self.cycles += cost;
        self.regs[dst as usize] = match kind {
            CastKind::ToFloat => Value::Double(v.as_f64()),
            CastKind::ToInt => Value::Int(v.as_i64()),
            CastKind::Keep => v,
        };
    }

    #[inline(always)]
    fn do_decl_slot(&mut self, slot: u32, kind: CastKind, src: Opnd) {
        let v = self.val(src);
        self.regs[slot as usize] = match kind {
            CastKind::ToFloat => Value::Double(v.as_f64()),
            CastKind::ToInt => Value::Int(v.as_i64()),
            CastKind::Keep => v,
        };
    }

    #[inline(always)]
    fn do_call1(&mut self, f: Builtin, cost: f64, div_cost: f64, dst: u32, a: Opnd) {
        self.cycles += cost;
        let a = self.val(a);
        self.regs[dst as usize] = match f {
            Builtin::Abs => match a {
                Value::Int(v) => Value::Int(v.abs()),
                Value::Double(v) => Value::Double(v.abs()),
            },
            Builtin::Sqrt => {
                self.flops += 1;
                self.cycles += div_cost;
                Value::Double(a.as_f64().sqrt())
            }
            Builtin::Floor => Value::Double(a.as_f64().floor()),
            Builtin::Ceil => Value::Double(a.as_f64().ceil()),
            Builtin::Min | Builtin::Max => {
                unreachable!("two-argument builtins lower to Call2")
            }
        };
    }

    #[inline(always)]
    fn do_call2(&mut self, f: Builtin, cost: f64, dst: u32, a: Opnd, b: Opnd) {
        self.cycles += cost;
        let a = self.val(a);
        let b = self.val(b);
        self.regs[dst as usize] = match f {
            Builtin::Min => num_binop(a, b, i64::min, f64::min),
            Builtin::Max => num_binop(a, b, i64::max, f64::max),
            _ => unreachable!("one-argument builtins lower to Call1"),
        };
    }

    #[inline(always)]
    fn do_array_check(&mut self, id: u32, subs: u32) -> Result<(), RuntimeError> {
        let name = &self.exe.array_names[id as usize];
        let Some(cell) = &self.arrays[id as usize] else {
            return Err(RuntimeError::UndefinedVariable(name.clone()));
        };
        let ndims = cell.dims.len();
        if subs as usize != ndims {
            return Err(RuntimeError::Unsupported(format!(
                "array `{name}` used with {subs} subscripts but declared with {ndims}"
            )));
        }
        Ok(())
    }

    #[inline(always)]
    fn do_idx_dim(
        &mut self,
        id: u32,
        dim: u32,
        first: bool,
        cost: f64,
        idx: Opnd,
        acc: u32,
    ) -> Result<(), RuntimeError> {
        let idx = self.val(idx).as_i64();
        let cell = self.arrays[id as usize]
            .as_ref()
            .expect("ArrayCheck precedes IdxDim");
        let extent = cell.dims[dim as usize];
        if idx < 0 || idx >= extent as i64 {
            return Err(RuntimeError::OutOfBounds {
                array: self.exe.array_names[id as usize].clone(),
                index: idx,
                len: cell.data.len(),
            });
        }
        let flat = if first {
            idx
        } else {
            self.regs[acc as usize].as_i64() * extent as i64 + idx
        };
        self.regs[acc as usize] = Value::Int(flat);
        self.cycles += cost;
        Ok(())
    }

    fn exec(&mut self) -> Result<(), RuntimeError> {
        // `exe` is a plain `&'a Exe` — reading code through the copy
        // keeps the borrow independent of `&mut self` in the arms.
        let exe = self.exe;
        let mut pc = 0usize;
        loop {
            // Match through the place so each arm loads only the
            // fields it names instead of copying the whole `RInsn`.
            let insn = &exe.code[pc];
            pc += 1;
            match *insn {
                RInsn::Fuel(n) => self.fuel(n)?,
                RInsn::Jump(t) => pc = t as usize,
                RInsn::BrFalsy { src, t } => {
                    if !self.val(src).truthy() {
                        pc = t as usize;
                    }
                }
                RInsn::CmpBr {
                    fuel,
                    op,
                    cost,
                    a,
                    b,
                    post,
                    t,
                    pcost,
                } => {
                    if fuel > 0 {
                        self.fuel(fuel)?;
                    }
                    let l = self.val(a);
                    let r = self.val(b);
                    self.cycles += cost;
                    if matches!(l, Value::Double(_)) || matches!(r, Value::Double(_)) {
                        self.flops += 1;
                    }
                    let v = bin_any(op, l, r)?;
                    if post != 0.0 {
                        self.cycles += post;
                    }
                    if !v.truthy() {
                        pc = t as usize;
                    } else if pcost != 0.0 {
                        self.cycles += pcost;
                    }
                }
                RInsn::StepJump {
                    fuel,
                    op,
                    cost,
                    slot,
                    rhs,
                    t,
                } => {
                    if fuel > 0 {
                        self.fuel(fuel)?;
                    }
                    let old = self.regs[slot as usize];
                    let r = self.val(rhs);
                    self.cycles += cost;
                    if matches!(old, Value::Double(_)) {
                        self.flops += 1;
                    }
                    let v = bin_any(op, old, r)?;
                    self.write_slot(slot as usize, v);
                    pc = t as usize;
                }
                RInsn::Mov { dst, src } => self.regs[dst as usize] = self.val(src),
                RInsn::SetSlot { slot, src } => {
                    let v = self.val(src);
                    self.write_slot(slot as usize, v);
                }
                RInsn::LoadChain { chain, dst } => {
                    let slot = self.resolve_chain(chain)?;
                    self.regs[dst as usize] = self.regs[slot];
                }
                RInsn::StoreChain { chain, src } => {
                    let slot = self.resolve_chain(chain)?;
                    let v = self.val(src);
                    self.write_slot(slot, v);
                }
                RInsn::DeclSlot { slot, kind, src } => self.do_decl_slot(slot, kind, src),
                RInsn::DeclDefault { slot, is_float } => {
                    self.regs[slot as usize] = if is_float {
                        Value::Double(0.0)
                    } else {
                        Value::Int(0)
                    };
                }
                RInsn::Charge(c) => self.cycles += c,
                RInsn::Neg { cost, dst, src } => self.do_neg(cost, dst, src),
                RInsn::Not { cost, dst, src } => self.do_not(cost, dst, src),
                RInsn::Bin {
                    op,
                    cost,
                    dst,
                    a,
                    b,
                } => self.do_bin(op, cost, dst, a, b)?,
                RInsn::CompoundSet {
                    op,
                    cost,
                    slot,
                    rhs,
                } => self.do_compound_set(op, cost, slot, rhs)?,
                RInsn::CompoundSetVal {
                    op,
                    cost,
                    slot,
                    rhs,
                    dst,
                } => self.do_compound_set_val(op, cost, slot, rhs, dst)?,
                RInsn::CompoundTmp {
                    op,
                    cost,
                    dst,
                    old,
                    rhs,
                } => self.do_compound_tmp(op, cost, dst, old, rhs)?,
                RInsn::Truthy { dst, src } => {
                    let v = self.val(src);
                    self.regs[dst as usize] = Value::Int(i64::from(v.truthy()));
                }
                RInsn::AndSC { src, dst, t } => {
                    if !self.val(src).truthy() {
                        self.regs[dst as usize] = Value::Int(0);
                        pc = t as usize;
                    }
                }
                RInsn::OrSC { src, dst, t } => {
                    if self.val(src).truthy() {
                        self.regs[dst as usize] = Value::Int(1);
                        pc = t as usize;
                    }
                }
                RInsn::Cast {
                    kind,
                    cost,
                    dst,
                    src,
                } => self.do_cast(kind, cost, dst, src),
                RInsn::Call1 {
                    f,
                    cost,
                    div_cost,
                    dst,
                    a,
                } => self.do_call1(f, cost, div_cost, dst, a),
                RInsn::Call2 { f, cost, dst, a, b } => self.do_call2(f, cost, dst, a, b),
                RInsn::ArrayCheck { id, subs } => self.do_array_check(id, subs)?,
                RInsn::IdxDim {
                    id,
                    dim,
                    first,
                    cost,
                    idx,
                    acc,
                } => self.do_idx_dim(id, dim, first, cost, idx, acc)?,
                RInsn::Nav(n) => {
                    let d = &exe.navs[n as usize];
                    self.run_nav(d)?;
                }
                RInsn::HotLoop(h) => {
                    let d = &exe.hotloops[h as usize];
                    self.run_hot_loop(d)?;
                    pc = d.exit as usize;
                }
                RInsn::DimCheck { id, v } => {
                    if self.val(v).as_i64() <= 0 {
                        return Err(RuntimeError::BadArrayDim(
                            exe.array_names[id as usize].clone(),
                        ));
                    }
                }
                RInsn::AllocArray(a) => {
                    let desc = &exe.allocs[a as usize];
                    let dim_sizes: Vec<usize> = desc
                        .dims
                        .iter()
                        .map(|&o| self.val(o).as_i64() as usize)
                        .collect();
                    let len = crate::bytecode::checked_alloc_len(
                        &exe.array_names[desc.id as usize],
                        &dim_sizes,
                    )?;
                    let base = self.next_base;
                    self.next_base = advance_base(self.next_base, len);
                    self.arrays[desc.id as usize] = Some(ArrayCell {
                        is_float: desc.is_float,
                        data: array_init_data(len, desc.is_float),
                        base,
                        dims: dim_sizes,
                        local: true,
                    });
                }
                RInsn::LoadA { id, acc, dst } => {
                    let flat = self.regs[acc as usize].as_i64() as usize;
                    self.elem_load(id, flat, dst);
                }
                RInsn::StoreA { id, acc, val } => {
                    let flat = self.regs[acc as usize].as_i64() as usize;
                    let v = self.val(val);
                    self.elem_store(id, flat, v);
                }
                RInsn::RmwA {
                    op,
                    cost,
                    id,
                    acc,
                    rhs,
                    dst,
                } => {
                    let flat = self.regs[acc as usize].as_i64() as usize;
                    let r = self.val(rhs);
                    let v = self.elem_rmw(id, flat, op, cost, r)?;
                    self.regs[dst as usize] = v;
                }
                RInsn::LoadABin {
                    op,
                    cost,
                    id,
                    acc,
                    lhs,
                    dst,
                } => {
                    let flat = self.regs[acc as usize].as_i64() as usize;
                    let l = self.val(lhs);
                    let v = self.elem_load_bin(id, flat, op, cost, l)?;
                    self.regs[dst as usize] = v;
                }
                RInsn::ParEnter(schedule) => {
                    let active = !self.in_parallel;
                    if active {
                        self.in_parallel = true;
                    }
                    self.par_stack.push(ParCtx {
                        active,
                        schedule,
                        iter_start: 0.0,
                        iter_costs: Vec::new(),
                    });
                }
                RInsn::IterStart => {
                    let cycles = self.cycles;
                    if let Some(ctx) = self.par_stack.last_mut() {
                        if ctx.active {
                            ctx.iter_start = cycles;
                        }
                    }
                }
                RInsn::IterEnd => {
                    let cycles = self.cycles;
                    if let Some(ctx) = self.par_stack.last_mut() {
                        if ctx.active {
                            let cost = cycles - ctx.iter_start;
                            ctx.iter_costs.push(cost);
                        }
                    }
                }
                RInsn::ParExit => {
                    let ctx = self.par_stack.pop().expect("ParEnter precedes ParExit");
                    self.finish_parallel(ctx);
                }
                RInsn::Throw(kind, msg) => {
                    let msg = exe.messages[msg as usize].clone();
                    return Err(match kind {
                        ThrowKind::UndefinedVariable => RuntimeError::UndefinedVariable(msg),
                        ThrowKind::UndefinedFunction => RuntimeError::UndefinedFunction(msg),
                        ThrowKind::Unsupported => RuntimeError::Unsupported(msg),
                    });
                }
                RInsn::Halt => {
                    // Early return unwinds through open parallel loops
                    // innermost-first, exactly like the tree's
                    // recursive exec_for unwinding.
                    while let Some(ctx) = self.par_stack.pop() {
                        self.finish_parallel(ctx);
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Runs a whole fused innermost loop to completion: the guard (the
    /// original `CmpBr`), the straight-line body instructions scanned
    /// in place, and the step (the original `StepJump`) — exactly the
    /// instruction sequence the unfused loop dispatches, so cycles,
    /// fuel, flops, cache order and error points stay bit-identical;
    /// only the dispatcher round-trips disappear. On normal return the
    /// caller continues at `d.exit`.
    fn run_hot_loop(&mut self, d: &HotLoopDesc) -> Result<(), RuntimeError> {
        let exe = self.exe;
        let RInsn::StepJump {
            fuel: sfuel,
            op: sop,
            cost: scost,
            slot,
            rhs: srhs,
            ..
        } = exe.code[d.step as usize]
        else {
            unreachable!("HotLoop step slot holds the original StepJump")
        };
        let (body_start, body_end) = (d.body.0 as usize, d.body.1 as usize);
        loop {
            // Guard: the original CmpBr arm.
            if d.fuel > 0 {
                self.fuel(d.fuel)?;
            }
            let l = self.val(d.a);
            let r = self.val(d.b);
            self.cycles += d.cost;
            if matches!(l, Value::Double(_)) || matches!(r, Value::Double(_)) {
                self.flops += 1;
            }
            let v = bin_any(d.op, l, r)?;
            if d.post != 0.0 {
                self.cycles += d.post;
            }
            if !v.truthy() {
                return Ok(());
            }
            if d.pcost != 0.0 {
                self.cycles += d.pcost;
            }
            // Body: the whitelisted straight-line instructions, run
            // where they sit.
            for q in body_start..body_end {
                match exe.code[q] {
                    RInsn::Fuel(n) => self.fuel(n)?,
                    RInsn::Charge(c) => self.cycles += c,
                    RInsn::Nav(n) => self.run_nav(&exe.navs[n as usize])?,
                    RInsn::Mov { dst, src } => self.regs[dst as usize] = self.val(src),
                    RInsn::SetSlot { slot, src } => {
                        let v = self.val(src);
                        self.write_slot(slot as usize, v);
                    }
                    RInsn::DeclSlot { slot, kind, src } => self.do_decl_slot(slot, kind, src),
                    RInsn::DeclDefault { slot, is_float } => {
                        self.regs[slot as usize] = if is_float {
                            Value::Double(0.0)
                        } else {
                            Value::Int(0)
                        };
                    }
                    RInsn::Neg { cost, dst, src } => self.do_neg(cost, dst, src),
                    RInsn::Not { cost, dst, src } => self.do_not(cost, dst, src),
                    RInsn::Bin {
                        op,
                        cost,
                        dst,
                        a,
                        b,
                    } => self.do_bin(op, cost, dst, a, b)?,
                    RInsn::CompoundSet {
                        op,
                        cost,
                        slot,
                        rhs,
                    } => self.do_compound_set(op, cost, slot, rhs)?,
                    RInsn::CompoundSetVal {
                        op,
                        cost,
                        slot,
                        rhs,
                        dst,
                    } => self.do_compound_set_val(op, cost, slot, rhs, dst)?,
                    RInsn::CompoundTmp {
                        op,
                        cost,
                        dst,
                        old,
                        rhs,
                    } => self.do_compound_tmp(op, cost, dst, old, rhs)?,
                    RInsn::Truthy { dst, src } => {
                        let v = self.val(src);
                        self.regs[dst as usize] = Value::Int(i64::from(v.truthy()));
                    }
                    RInsn::Cast {
                        kind,
                        cost,
                        dst,
                        src,
                    } => self.do_cast(kind, cost, dst, src),
                    RInsn::Call1 {
                        f,
                        cost,
                        div_cost,
                        dst,
                        a,
                    } => self.do_call1(f, cost, div_cost, dst, a),
                    RInsn::Call2 { f, cost, dst, a, b } => self.do_call2(f, cost, dst, a, b),
                    RInsn::ArrayCheck { id, subs } => self.do_array_check(id, subs)?,
                    RInsn::IdxDim {
                        id,
                        dim,
                        first,
                        cost,
                        idx,
                        acc,
                    } => self.do_idx_dim(id, dim, first, cost, idx, acc)?,
                    RInsn::LoadA { id, acc, dst } => {
                        let flat = self.regs[acc as usize].as_i64() as usize;
                        self.elem_load(id, flat, dst);
                    }
                    RInsn::StoreA { id, acc, val } => {
                        let flat = self.regs[acc as usize].as_i64() as usize;
                        let v = self.val(val);
                        self.elem_store(id, flat, v);
                    }
                    RInsn::RmwA {
                        op,
                        cost,
                        id,
                        acc,
                        rhs,
                        dst,
                    } => {
                        let flat = self.regs[acc as usize].as_i64() as usize;
                        let r = self.val(rhs);
                        let v = self.elem_rmw(id, flat, op, cost, r)?;
                        self.regs[dst as usize] = v;
                    }
                    RInsn::LoadABin {
                        op,
                        cost,
                        id,
                        acc,
                        lhs,
                        dst,
                    } => {
                        let flat = self.regs[acc as usize].as_i64() as usize;
                        let l = self.val(lhs);
                        let v = self.elem_load_bin(id, flat, op, cost, l)?;
                        self.regs[dst as usize] = v;
                    }
                    _ => unreachable!("non-straight-line instruction in a fused hot loop"),
                }
            }
            // Step: the original StepJump arm, minus the jump.
            if sfuel > 0 {
                self.fuel(sfuel)?;
            }
            let old = self.regs[slot as usize];
            let r = self.val(srhs);
            self.cycles += scost;
            if matches!(old, Value::Double(_)) {
                self.flops += 1;
            }
            let v = bin_any(sop, old, r)?;
            self.write_slot(slot as usize, v);
        }
    }

    /// Runs one fused subscript chain + access: per dimension, tick the
    /// pending fuel, evaluate the subscript, bounds-check, fold into
    /// the flat index and charge — then the access tail.
    ///
    /// The whole chain works on one resolution of the array cell
    /// (nothing inside a nav can reallocate arrays) and on split field
    /// borrows, so the per-dimension work compiles down to the index
    /// arithmetic, the bounds test and the two accumulator adds.
    fn run_nav(&mut self, d: &NavDesc) -> Result<(), RuntimeError> {
        let id = d.id as usize;
        let Vm {
            exe,
            config,
            regs,
            arrays,
            cache,
            cycles,
            ops,
            flops,
            ..
        } = self;
        let cell = arrays[id].as_mut().expect("checked before Nav");
        let mut flat: i64 = 0;
        // Fast path: when the whole chain's fuel cannot exhaust the
        // budget, tick it at once (tick *order* is unobservable — only
        // totals and error points are). Under the guard FuelExhausted
        // cannot fire mid-chain in either engine, and every non-fuel
        // error point (bounds, subscript ops) is evaluated in the same
        // order with the same payloads, so per-step budget checks are
        // skipped without breaking the contract.
        let batched = *ops + u64::from(d.total_fuel) <= config.max_ops;
        if batched {
            *ops += u64::from(d.total_fuel);
        }
        for (dim, step) in d.steps[..d.n as usize].iter().enumerate() {
            if !batched && step.fuel > 0 {
                *ops += u64::from(step.fuel);
                if *ops > config.max_ops {
                    return Err(RuntimeError::FuelExhausted);
                }
            }
            let idx = match step.idx {
                SubIdx::Reg(r) => regs[r as usize].as_i64(),
                SubIdx::Imm(v) => v,
                SubIdx::RegOff { s, op, rhs, bcost } => {
                    let l = regs[s as usize];
                    *cycles += bcost;
                    if matches!(l, Value::Double(_)) {
                        *flops += 1;
                    }
                    bin_any(op, l, Value::Int(rhs))?.as_i64()
                }
                SubIdx::RegOff2 {
                    s,
                    op1,
                    r1,
                    bcost1,
                    op2,
                    r2,
                    bcost2,
                } => {
                    // Tree order: inner charge/flop/apply, then
                    // outer. `op1` is error-free by construction,
                    // but route through bin_any so the semantics
                    // stay the oracle's by inspection.
                    let l = regs[s as usize];
                    let r1 = match r1 {
                        Opnd::Reg(r) => regs[r as usize],
                        Opnd::ImmI(v) => Value::Int(v),
                        Opnd::ImmF(v) => Value::Double(v),
                    };
                    *cycles += bcost1;
                    if matches!(l, Value::Double(_)) || matches!(r1, Value::Double(_)) {
                        *flops += 1;
                    }
                    let m = bin_any(op1, l, r1)?;
                    let r2 = match r2 {
                        Opnd::Reg(r) => regs[r as usize],
                        Opnd::ImmI(v) => Value::Int(v),
                        Opnd::ImmF(v) => Value::Double(v),
                    };
                    *cycles += bcost2;
                    if matches!(m, Value::Double(_)) || matches!(r2, Value::Double(_)) {
                        *flops += 1;
                    }
                    bin_any(op2, m, r2)?.as_i64()
                }
            };
            let extent = cell.dims[dim];
            if idx < 0 || idx >= extent as i64 {
                return Err(RuntimeError::OutOfBounds {
                    array: exe.array_names[id].clone(),
                    index: idx,
                    len: cell.data.len(),
                });
            }
            flat = if dim == 0 {
                idx
            } else {
                flat * extent as i64 + idx
            };
            *cycles += step.cost;
        }
        let flat = flat as usize;
        let addr = cell.base + flat as u64 * 8;
        let is_float = cell.is_float;
        let from_raw = |raw: f64| {
            if is_float {
                Value::Double(raw)
            } else {
                Value::Int(raw as i64)
            }
        };
        match d.tail {
            RTail::Load { dst } => {
                let raw = cell.data[flat];
                let (_, latency) = cache.access(addr);
                *cycles += latency as f64;
                regs[dst as usize] = from_raw(raw);
            }
            RTail::LoadBin { op, cost, lhs, dst } => {
                let l = match lhs {
                    Opnd::Reg(r) => regs[r as usize],
                    Opnd::ImmI(v) => Value::Int(v),
                    Opnd::ImmF(v) => Value::Double(v),
                };
                let raw = cell.data[flat];
                let (_, latency) = cache.access(addr);
                *cycles += latency as f64;
                let r = from_raw(raw);
                *cycles += cost;
                if matches!(l, Value::Double(_)) || matches!(r, Value::Double(_)) {
                    *flops += 1;
                }
                regs[dst as usize] = bin_any(op, l, r)?;
            }
            RTail::Store { val } => {
                let v = match val {
                    Opnd::Reg(r) => regs[r as usize],
                    Opnd::ImmI(v) => Value::Int(v),
                    Opnd::ImmF(v) => Value::Double(v),
                };
                cell.data[flat] = if is_float {
                    v.as_f64()
                } else {
                    v.as_i64() as f64
                };
                let (_, latency) = cache.access(addr);
                *cycles += latency as f64;
            }
            RTail::Rmw { op, cost, rhs, dst } => {
                let r = match rhs {
                    Opnd::Reg(r) => regs[r as usize],
                    Opnd::ImmI(v) => Value::Int(v),
                    Opnd::ImmF(v) => Value::Double(v),
                };
                let raw = cell.data[flat];
                let (_, latency) = cache.access(addr);
                *cycles += latency as f64;
                let old = from_raw(raw);
                *cycles += cost;
                if matches!(old, Value::Double(_)) {
                    *flops += 1;
                }
                let new = bin_any(op, old, r)?;
                cell.data[flat] = if is_float {
                    new.as_f64()
                } else {
                    new.as_i64() as f64
                };
                let (_, latency) = cache.access(addr);
                *cycles += latency as f64;
                regs[dst as usize] = new;
            }
        }
        Ok(())
    }

    /// Read one element through the cache into a register.
    #[inline]
    fn elem_load(&mut self, id: u32, flat: usize, dst: u32) {
        let cell = self.arrays[id as usize]
            .as_ref()
            .expect("validated before array load");
        let addr = cell.base + flat as u64 * 8;
        let is_float = cell.is_float;
        let raw = cell.data[flat];
        let (_, latency) = self.cache.access(addr);
        self.cycles += latency as f64;
        self.regs[dst as usize] = if is_float {
            Value::Double(raw)
        } else {
            Value::Int(raw as i64)
        };
    }

    /// Read one element as the rhs of a binary op.
    #[inline]
    fn elem_load_bin(
        &mut self,
        id: u32,
        flat: usize,
        op: locus_srcir::ast::BinOp,
        cost: f64,
        l: Value,
    ) -> Result<Value, RuntimeError> {
        let cell = self.arrays[id as usize]
            .as_ref()
            .expect("validated before array load");
        let addr = cell.base + flat as u64 * 8;
        let is_float = cell.is_float;
        let raw = cell.data[flat];
        let (_, latency) = self.cache.access(addr);
        self.cycles += latency as f64;
        let r = if is_float {
            Value::Double(raw)
        } else {
            Value::Int(raw as i64)
        };
        self.cycles += cost;
        if matches!(l, Value::Double(_)) || matches!(r, Value::Double(_)) {
            self.flops += 1;
        }
        apply_bin(op, l, r)
    }

    /// Write one element through the cache (coerced to the element
    /// type).
    #[inline]
    fn elem_store(&mut self, id: u32, flat: usize, value: Value) {
        let cell = self.arrays[id as usize]
            .as_mut()
            .expect("validated before array store");
        let addr = cell.base + flat as u64 * 8;
        cell.data[flat] = if cell.is_float {
            value.as_f64()
        } else {
            value.as_i64() as f64
        };
        let (_, latency) = self.cache.access(addr);
        self.cycles += latency as f64;
    }

    /// Read-modify-write one element: two cache accesses, one address.
    #[inline]
    fn elem_rmw(
        &mut self,
        id: u32,
        flat: usize,
        op: locus_srcir::ast::BinOp,
        cost: f64,
        rhs: Value,
    ) -> Result<Value, RuntimeError> {
        let cell = self.arrays[id as usize]
            .as_ref()
            .expect("validated before array rmw");
        let addr = cell.base + flat as u64 * 8;
        let is_float = cell.is_float;
        let raw = cell.data[flat];
        let (_, latency) = self.cache.access(addr);
        self.cycles += latency as f64;
        let old = if is_float {
            Value::Double(raw)
        } else {
            Value::Int(raw as i64)
        };
        self.cycles += cost;
        if matches!(old, Value::Double(_)) {
            self.flops += 1;
        }
        let new = bin_any(op, old, rhs)?;
        let cell = self.arrays[id as usize].as_mut().expect("cell read above");
        cell.data[flat] = if is_float {
            new.as_f64()
        } else {
            new.as_i64() as f64
        };
        let (_, latency) = self.cache.access(addr);
        self.cycles += latency as f64;
        Ok(new)
    }

    /// Stores preserving the slot's current tag (the tree's
    /// `write_scalar`).
    fn write_slot(&mut self, slot: usize, value: Value) {
        let cell = &mut self.regs[slot];
        *cell = match cell {
            Value::Int(_) => Value::Int(value.as_i64()),
            Value::Double(_) => Value::Double(value.as_f64()),
        };
    }

    /// Walks a dynamic-resolution chain: first live conditional binding
    /// wins, then the static fallback, then `UndefinedVariable`.
    fn resolve_chain(&self, i: u32) -> Result<usize, RuntimeError> {
        let chain = &self.exe.chains[i as usize];
        for &(flag, slot) in &chain.guards {
            if self.regs[flag as usize].truthy() {
                return Ok(slot as usize);
            }
        }
        match chain.fallback {
            Some(slot) => Ok(slot as usize),
            None => Err(RuntimeError::UndefinedVariable(
                self.exe.messages[chain.msg as usize].clone(),
            )),
        }
    }

    /// Replaces the sequentially accumulated body time of a parallel
    /// loop with the scheduled makespan.
    fn finish_parallel(&mut self, ctx: ParCtx) {
        if !ctx.active {
            return;
        }
        let sequential: f64 = ctx.iter_costs.iter().sum();
        let model = OmpModel {
            cost: &self.config.cost,
            cores: self.config.cores,
        };
        let makespan = model.makespan(&ctx.iter_costs, ctx.schedule);
        self.cycles = self.cycles - sequential + makespan;
        self.in_parallel = false;
    }

    fn measurement(&self) -> Measurement {
        Measurement {
            cycles: self.cycles,
            time_ms: self.cycles / (self.config.ghz * 1e6),
            ops: self.ops,
            flops: self.flops,
            cache: self.cache.stats().clone(),
            checksum: self.checksum(),
        }
    }

    fn checksum(&self) -> u64 {
        // Identical to the tree interpreter: FNV over quantized array
        // contents, array *name* order fixed, local arrays skipped.
        let mut ids: Vec<usize> = (0..self.arrays.len())
            .filter(|&i| self.arrays[i].is_some())
            .collect();
        ids.sort_by(|&a, &b| self.exe.array_names[a].cmp(&self.exe.array_names[b]));
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for id in ids {
            let cell = self.arrays[id].as_ref().expect("filtered above");
            if cell.local {
                continue;
            }
            for b in self.exe.array_names[id].as_bytes() {
                hash = (hash ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
            }
            for v in &cell.data {
                let q = (v * 1024.0).round() as i64 as u64;
                hash = (hash ^ q).wrapping_mul(0x100_0000_01b3);
            }
        }
        hash
    }
}
