//! Interpreter for the mini-C source IR with attached performance
//! simulation.
//!
//! The interpreter executes programs *exactly* (so transformed variants
//! can be checked for semantic equivalence via [`Measurement::checksum`])
//! while charging every operation and memory access to a cycle counter:
//! arithmetic through the [`crate::cost::CostModel`], array accesses
//! through the [`crate::cache::CacheHierarchy`], `ivdep`/`vector always`
//! pragmas as arithmetic discounts, and `omp parallel for` pragmas
//! through the scheduling model of [`crate::cost::OmpModel`].

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use locus_srcir::ast::{BinOp, Expr, Item, Pragma, Program, Stmt, StmtKind, Type, UnOp};

use crate::cache::{CacheHierarchy, CacheStats};
use crate::cost::OmpModel;
use crate::MachineConfig;

/// Errors raised while interpreting a program.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// A name was read before being defined.
    UndefinedVariable(String),
    /// A function call target does not exist.
    UndefinedFunction(String),
    /// An array subscript fell outside the declared bounds.
    OutOfBounds {
        /// The array accessed.
        array: String,
        /// The offending (flattened) index.
        index: i64,
        /// The array's total length.
        len: usize,
    },
    /// Division or modulo by zero.
    DivisionByZero,
    /// A language construct the interpreter does not support.
    Unsupported(String),
    /// The configured operation budget was exhausted (runaway guard).
    FuelExhausted,
    /// An array was declared with a non-constant dimension.
    BadArrayDim(String),
    /// An array allocation's total element count overflowed the
    /// simulator's limit (`len *= dim` would wrap, or the product
    /// exceeds [`crate::MAX_ARRAY_ELEMS`]).
    ArrayTooLarge(String),
    /// The machine configuration itself is unusable (e.g. a cache level
    /// whose geometry does not yield a power-of-two set count). Machine
    /// descriptions arrive from user configuration, so this surfaces as
    /// an error instead of aborting the process.
    InvalidConfig(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UndefinedVariable(n) => write!(f, "undefined variable `{n}`"),
            RuntimeError::UndefinedFunction(n) => write!(f, "undefined function `{n}`"),
            RuntimeError::OutOfBounds { array, index, len } => {
                write!(f, "index {index} out of bounds for `{array}` (len {len})")
            }
            RuntimeError::DivisionByZero => write!(f, "division by zero"),
            RuntimeError::Unsupported(what) => write!(f, "unsupported construct: {what}"),
            RuntimeError::FuelExhausted => write!(f, "operation budget exhausted"),
            RuntimeError::BadArrayDim(n) => {
                write!(f, "array `{n}` has a non-constant dimension")
            }
            RuntimeError::ArrayTooLarge(n) => {
                write!(f, "array `{n}` allocation exceeds the simulator size limit")
            }
            RuntimeError::InvalidConfig(m) => {
                write!(f, "invalid machine configuration: {m}")
            }
        }
    }
}

impl Error for RuntimeError {}

/// A runtime value: the interpreter distinguishes integers from doubles
/// with C-like promotion rules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A C `int` (modeled as 64-bit).
    Int(i64),
    /// A C `double`.
    Double(f64),
}

impl Value {
    pub(crate) fn as_f64(self) -> f64 {
        match self {
            Value::Int(v) => v as f64,
            Value::Double(v) => v,
        }
    }

    pub(crate) fn as_i64(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Double(v) => v as i64,
        }
    }

    pub(crate) fn truthy(self) -> bool {
        match self {
            Value::Int(v) => v != 0,
            Value::Double(v) => v != 0.0,
        }
    }
}

/// The result of running a program on the simulated machine.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Estimated cycles (parallel regions contribute their makespan).
    pub cycles: f64,
    /// `cycles` converted to milliseconds at the configured frequency.
    pub time_ms: f64,
    /// Total interpreted operations.
    pub ops: u64,
    /// Floating-point operations executed.
    pub flops: u64,
    /// Cache statistics.
    pub cache: CacheStats,
    /// Order-sensitive digest of all array contents after execution;
    /// equal checksums mean semantically equivalent variants (on the
    /// deterministic initial data).
    pub checksum: u64,
}

/// One simulated array.
#[derive(Debug, Clone)]
struct ArrayCell {
    is_float: bool,
    data: Vec<f64>,
    base: u64,
    /// Dimension extents, outermost first.
    dims: Vec<usize>,
    /// Function-local scratch arrays do not contribute to the result
    /// checksum (they are not program outputs).
    local: bool,
}

/// The interpreter.
#[derive(Debug)]
pub struct Interp<'p> {
    program: &'p Program,
    config: &'p MachineConfig,
    arrays: HashMap<String, ArrayCell>,
    scopes: Vec<HashMap<String, Value>>,
    cache: CacheHierarchy,
    cycles: f64,
    ops: u64,
    flops: u64,
    /// Nesting depth of vectorized loops (>0 discounts arithmetic).
    vector_depth: usize,
    /// Inside a parallel region already (nested pragmas are serialized).
    in_parallel: bool,
    next_base: u64,
    /// Addresses of `for` statements the auto-vectorizer model proved
    /// safe (innermost + all dependences loop-independent).
    auto_vec: std::collections::HashSet<usize>,
}

enum Flow {
    Normal,
    Return(#[allow(dead_code)] Option<Value>),
}

impl<'p> Interp<'p> {
    /// Prepares an interpreter: allocates and deterministically
    /// initializes all global arrays and scalars.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError`] when a global declaration cannot be
    /// evaluated (non-constant dimensions, unsupported initializers).
    pub fn new(
        program: &'p Program,
        config: &'p MachineConfig,
    ) -> Result<Interp<'p>, RuntimeError> {
        let cache = CacheHierarchy::new(&config.cache)
            .map_err(|e| RuntimeError::InvalidConfig(e.to_string()))?;
        let mut interp = Interp {
            program,
            config,
            arrays: HashMap::new(),
            scopes: vec![HashMap::new()],
            cache,
            cycles: 0.0,
            ops: 0,
            flops: 0,
            vector_depth: 0,
            in_parallel: false,
            next_base: 4096,
            auto_vec: std::collections::HashSet::new(),
        };
        for item in &program.items {
            if let Item::Global(stmt) = item {
                interp.exec_global(stmt)?;
            }
        }
        if config.auto_vectorize {
            interp.auto_vec = collect_auto_vectorizable(program);
        }
        Ok(interp)
    }

    fn exec_global(&mut self, stmt: &Stmt) -> Result<(), RuntimeError> {
        let StmtKind::Decl {
            ty,
            name,
            dims,
            init,
        } = &stmt.kind
        else {
            return Err(RuntimeError::Unsupported(
                "non-declaration at global scope".into(),
            ));
        };
        if dims.is_empty() {
            let value = match init {
                Some(e) => self.eval_const(e)?,
                None => match ty {
                    Type::Double | Type::Float => Value::Double(0.0),
                    _ => Value::Int(0),
                },
            };
            self.scopes[0].insert(name.clone(), value);
        } else {
            let mut dim_sizes = Vec::new();
            for d in dims {
                let v = self.eval_const(d)?.as_i64();
                if v <= 0 {
                    return Err(RuntimeError::BadArrayDim(name.clone()));
                }
                dim_sizes.push(v as usize);
            }
            let len = crate::bytecode::checked_alloc_len(name, &dim_sizes)?;
            self.alloc_array(name, ty.is_float(), &dim_sizes, len, false);
        }
        Ok(())
    }

    fn alloc_array(&mut self, name: &str, is_float: bool, dims: &[usize], len: usize, local: bool) {
        // Deterministic, non-trivial initial contents so that semantic
        // differences between variants show up in the checksum.
        let data: Vec<f64> = (0..len)
            .map(|i| {
                let v = ((i * 7 + 3) % 101) as f64;
                if is_float {
                    v * 0.25
                } else {
                    (v % 13.0).floor()
                }
            })
            .collect();
        let base = self.next_base;
        // 4KB-align each array and leave a guard page.
        self.next_base += ((len as u64 * 8).div_ceil(4096) + 1) * 4096;
        self.arrays.insert(
            name.to_string(),
            ArrayCell {
                is_float,
                data,
                base,
                dims: dims.to_vec(),
                local,
            },
        );
    }

    /// Evaluates a compile-time-constant expression (global initializers
    /// and array dimensions).
    fn eval_const(&mut self, e: &Expr) -> Result<Value, RuntimeError> {
        match e {
            Expr::IntLit(v) => Ok(Value::Int(*v)),
            Expr::FloatLit(v) => Ok(Value::Double(*v)),
            Expr::Unary {
                op: UnOp::Neg,
                operand,
            } => Ok(match self.eval_const(operand)? {
                Value::Int(v) => Value::Int(-v),
                Value::Double(v) => Value::Double(-v),
            }),
            Expr::Binary { op, lhs, rhs } => {
                let l = self.eval_const(lhs)?;
                let r = self.eval_const(rhs)?;
                apply_bin(*op, l, r)
            }
            Expr::Ident(name) => self.scopes[0]
                .get(name)
                .copied()
                .ok_or_else(|| RuntimeError::UndefinedVariable(name.clone())),
            _ => Err(RuntimeError::Unsupported(
                "non-constant global initializer".into(),
            )),
        }
    }

    /// Runs a zero-argument function to completion and reports the
    /// measurement.
    ///
    /// # Errors
    ///
    /// See [`RuntimeError`].
    pub fn run(&mut self, entry: &str) -> Result<Measurement, RuntimeError> {
        let f = self
            .program
            .function(entry)
            .ok_or_else(|| RuntimeError::UndefinedFunction(entry.to_string()))?;
        if !f.params.is_empty() {
            return Err(RuntimeError::Unsupported(format!(
                "entry `{entry}` must take no parameters"
            )));
        }
        self.scopes.push(HashMap::new());
        for stmt in &f.body {
            if let Flow::Return(_) = self.exec(stmt)? {
                break;
            }
        }
        self.scopes.pop();
        Ok(self.measurement())
    }

    /// The measurement accumulated so far.
    pub fn measurement(&self) -> Measurement {
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
        // FNV over quantized array contents, array name order fixed.
        let mut names: Vec<&String> = self.arrays.keys().collect();
        names.sort();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for name in names {
            let cell = &self.arrays[name];
            if cell.local {
                continue;
            }
            for b in name.as_bytes() {
                hash = (hash ^ u64::from(*b)).wrapping_mul(0x100_0000_01b3);
            }
            for v in &cell.data {
                // Quantize to escape FP association noise from reordered
                // reductions: transformations that only reassociate sums
                // still compare equal.
                let q = (v * 1024.0).round() as i64 as u64;
                hash = (hash ^ q).wrapping_mul(0x100_0000_01b3);
            }
        }
        hash
    }

    fn charge(&mut self, cost: f64) {
        if self.vector_depth > 0 {
            let w = self
                .config
                .cost
                .vector_discount
                .min(self.config.vector_width as f64)
                .max(1.0);
            self.cycles += cost / w;
        } else {
            self.cycles += cost;
        }
    }

    fn fuel(&mut self) -> Result<(), RuntimeError> {
        self.ops += 1;
        if self.ops > self.config.max_ops {
            Err(RuntimeError::FuelExhausted)
        } else {
            Ok(())
        }
    }

    // ---- statements -----------------------------------------------------

    fn exec(&mut self, stmt: &Stmt) -> Result<Flow, RuntimeError> {
        self.fuel()?;
        match &stmt.kind {
            StmtKind::Empty => Ok(Flow::Normal),
            StmtKind::Expr(e) => {
                self.eval(e)?;
                Ok(Flow::Normal)
            }
            StmtKind::Decl {
                ty,
                name,
                dims,
                init,
            } => {
                if dims.is_empty() {
                    let value = match init {
                        Some(e) => {
                            let v = self.eval(e)?;
                            coerce(ty, v)
                        }
                        None => match ty {
                            Type::Double | Type::Float => Value::Double(0.0),
                            _ => Value::Int(0),
                        },
                    };
                    self.scopes
                        .last_mut()
                        .expect("scope stack is never empty")
                        .insert(name.clone(), value);
                } else {
                    let mut dim_sizes = Vec::new();
                    for d in dims {
                        let v = self.eval(d)?.as_i64();
                        if v <= 0 {
                            return Err(RuntimeError::BadArrayDim(name.clone()));
                        }
                        dim_sizes.push(v as usize);
                    }
                    let len = crate::bytecode::checked_alloc_len(name, &dim_sizes)?;
                    self.alloc_array(name, ty.is_float(), &dim_sizes, len, true);
                }
                Ok(Flow::Normal)
            }
            StmtKind::Block(stmts) => {
                self.scopes.push(HashMap::new());
                let mut flow = Flow::Normal;
                for s in stmts {
                    flow = self.exec(s)?;
                    if matches!(flow, Flow::Return(_)) {
                        break;
                    }
                }
                self.scopes.pop();
                Ok(flow)
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let c = self.eval(cond)?;
                self.charge(self.config.cost.add);
                if c.truthy() {
                    self.exec(then_branch)
                } else if let Some(e) = else_branch {
                    self.exec(e)
                } else {
                    Ok(Flow::Normal)
                }
            }
            StmtKind::While { cond, body } => {
                self.charge(self.config.cost.loop_entry);
                loop {
                    self.fuel()?;
                    let c = self.eval(cond)?;
                    if !c.truthy() {
                        break;
                    }
                    self.charge(self.config.cost.loop_iter);
                    if let Flow::Return(v) = self.exec(body)? {
                        return Ok(Flow::Return(v));
                    }
                }
                Ok(Flow::Normal)
            }
            StmtKind::For(_) => self.exec_for(stmt),
            StmtKind::Return(value) => {
                let v = match value {
                    Some(e) => Some(self.eval(e)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
        }
    }

    fn exec_for(&mut self, stmt: &Stmt) -> Result<Flow, RuntimeError> {
        let StmtKind::For(f) = &stmt.kind else {
            unreachable!("exec_for called on a for loop")
        };
        let omp = stmt.pragmas.iter().find_map(|p| match p {
            Pragma::OmpParallelFor { schedule, .. } => Some(*schedule),
            _ => None,
        });
        let vectorized = stmt
            .pragmas
            .iter()
            .any(|p| matches!(p, Pragma::Ivdep | Pragma::VectorAlways))
            || self.auto_vec.contains(&(stmt as *const Stmt as usize));

        let parallel = omp.is_some() && !self.in_parallel && self.config.cores > 1;
        let mut iter_costs: Vec<f64> = Vec::new();

        self.scopes.push(HashMap::new());
        self.charge(self.config.cost.loop_entry);
        if let Some(init) = &f.init {
            self.exec(init)?;
        }
        if vectorized {
            self.vector_depth += 1;
        }
        if parallel {
            self.in_parallel = true;
        }
        let result = (|| -> Result<Flow, RuntimeError> {
            loop {
                self.fuel()?;
                if let Some(cond) = &f.cond {
                    let c = self.eval(cond)?;
                    if !c.truthy() {
                        break;
                    }
                }
                let iter_start = self.cycles;
                self.charge(self.config.cost.loop_iter);
                if let Flow::Return(v) = self.exec(&f.body)? {
                    return Ok(Flow::Return(v));
                }
                if let Some(step) = &f.step {
                    self.eval(step)?;
                }
                if parallel {
                    iter_costs.push(self.cycles - iter_start);
                }
            }
            Ok(Flow::Normal)
        })();
        if parallel {
            self.in_parallel = false;
        }
        if vectorized {
            self.vector_depth -= 1;
        }
        self.scopes.pop();
        let flow = result?;

        if parallel {
            // Replace the sequentially accumulated body time with the
            // scheduled makespan.
            let sequential: f64 = iter_costs.iter().sum();
            let model = OmpModel {
                cost: &self.config.cost,
                cores: self.config.cores,
            };
            let makespan = model.makespan(&iter_costs, omp.flatten());
            self.cycles = self.cycles - sequential + makespan;
        }
        Ok(flow)
    }

    // ---- expressions -----------------------------------------------------

    fn eval(&mut self, e: &Expr) -> Result<Value, RuntimeError> {
        self.fuel()?;
        match e {
            Expr::IntLit(v) => Ok(Value::Int(*v)),
            Expr::FloatLit(v) => Ok(Value::Double(*v)),
            Expr::StrLit(_) => Ok(Value::Int(0)),
            Expr::Ident(name) => self.read_scalar(name),
            Expr::Index { .. } => {
                let (name, flat, _) = self.locate(e)?;
                let cell = self
                    .arrays
                    .get(&name)
                    .ok_or_else(|| RuntimeError::UndefinedVariable(name.clone()))?;
                let addr = cell.base + flat as u64 * 8;
                let is_float = cell.is_float;
                let raw = cell.data[flat];
                let (_, latency) = self.cache.access(addr);
                self.cycles += latency as f64;
                Ok(if is_float {
                    Value::Double(raw)
                } else {
                    Value::Int(raw as i64)
                })
            }
            Expr::Unary { op, operand } => {
                let v = self.eval(operand)?;
                match op {
                    UnOp::Neg => {
                        self.charge(self.config.cost.add);
                        if matches!(v, Value::Double(_)) {
                            self.flops += 1;
                        }
                        Ok(match v {
                            Value::Int(x) => Value::Int(-x),
                            Value::Double(x) => Value::Double(-x),
                        })
                    }
                    UnOp::Not => {
                        self.charge(self.config.cost.add);
                        Ok(Value::Int(i64::from(!v.truthy())))
                    }
                    UnOp::Deref | UnOp::Addr => {
                        Err(RuntimeError::Unsupported("pointer operations".into()))
                    }
                }
            }
            Expr::Binary { op, lhs, rhs } => {
                // Short-circuit logicals.
                match op {
                    BinOp::And => {
                        let l = self.eval(lhs)?;
                        self.charge(self.config.cost.add);
                        if !l.truthy() {
                            return Ok(Value::Int(0));
                        }
                        let r = self.eval(rhs)?;
                        return Ok(Value::Int(i64::from(r.truthy())));
                    }
                    BinOp::Or => {
                        let l = self.eval(lhs)?;
                        self.charge(self.config.cost.add);
                        if l.truthy() {
                            return Ok(Value::Int(1));
                        }
                        let r = self.eval(rhs)?;
                        return Ok(Value::Int(i64::from(r.truthy())));
                    }
                    _ => {}
                }
                let l = self.eval(lhs)?;
                let r = self.eval(rhs)?;
                let cost = match op {
                    BinOp::Mul => self.config.cost.mul,
                    BinOp::Div | BinOp::Rem => self.config.cost.div,
                    _ => self.config.cost.add,
                };
                self.charge(cost);
                if matches!(l, Value::Double(_)) || matches!(r, Value::Double(_)) {
                    self.flops += 1;
                }
                apply_bin(*op, l, r)
            }
            Expr::Assign { op, lhs, rhs } => {
                let rhs_val = self.eval(rhs)?;
                let Some(bin) = op.to_bin_op() else {
                    self.write(lhs, rhs_val)?;
                    return Ok(rhs_val);
                };
                let cost = match bin {
                    BinOp::Mul => self.config.cost.mul,
                    BinOp::Div => self.config.cost.div,
                    _ => self.config.cost.add,
                };
                if matches!(lhs.as_ref(), Expr::Index { .. }) {
                    // Compound assignment to an array element is a
                    // read-modify-write of ONE address: the subscript
                    // chain is located once and its address reused, so
                    // side-effecting indices run once and subscript
                    // arithmetic is charged once.
                    self.fuel()?;
                    let (name, flat, _) = self.locate(lhs)?;
                    let cell = self
                        .arrays
                        .get(&name)
                        .ok_or_else(|| RuntimeError::UndefinedVariable(name.clone()))?;
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
                    self.charge(cost);
                    if matches!(old, Value::Double(_)) {
                        self.flops += 1;
                    }
                    let new = apply_bin(bin, old, rhs_val)?;
                    let cell = self.arrays.get_mut(&name).expect("cell looked up above");
                    cell.data[flat] = if is_float {
                        new.as_f64()
                    } else {
                        new.as_i64() as f64
                    };
                    let (_, latency) = self.cache.access(addr);
                    self.cycles += latency as f64;
                    return Ok(new);
                }
                let old = self.eval(lhs)?;
                self.charge(cost);
                if matches!(old, Value::Double(_)) {
                    self.flops += 1;
                }
                let new = apply_bin(bin, old, rhs_val)?;
                self.write(lhs, new)?;
                Ok(new)
            }
            Expr::Call { callee, args } => self.call(callee, args),
            Expr::Cast { ty, expr } => {
                let v = self.eval(expr)?;
                self.charge(self.config.cost.add);
                Ok(coerce(ty, v))
            }
        }
    }

    fn call(&mut self, callee: &str, args: &[Expr]) -> Result<Value, RuntimeError> {
        let mut values = Vec::with_capacity(args.len());
        for a in args {
            values.push(self.eval(a)?);
        }
        self.charge(self.config.cost.add * 2.0);
        match (callee, values.as_slice()) {
            ("min", [a, b]) => Ok(num_binop(*a, *b, i64::min, f64::min)),
            ("max", [a, b]) => Ok(num_binop(*a, *b, i64::max, f64::max)),
            ("abs" | "fabs", [a]) => Ok(match a {
                Value::Int(v) => Value::Int(v.abs()),
                Value::Double(v) => Value::Double(v.abs()),
            }),
            ("sqrt", [a]) => {
                self.flops += 1;
                self.charge(self.config.cost.div);
                Ok(Value::Double(a.as_f64().sqrt()))
            }
            ("floor", [a]) => Ok(Value::Double(a.as_f64().floor())),
            ("ceil", [a]) => Ok(Value::Double(a.as_f64().ceil())),
            _ => Err(RuntimeError::UndefinedFunction(callee.to_string())),
        }
    }

    fn read_scalar(&self, name: &str) -> Result<Value, RuntimeError> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Ok(*v);
            }
        }
        Err(RuntimeError::UndefinedVariable(name.to_string()))
    }

    fn write_scalar(&mut self, name: &str, value: Value) -> Result<(), RuntimeError> {
        for scope in self.scopes.iter_mut().rev() {
            if let Some(slot) = scope.get_mut(name) {
                // Preserve the declared type of the slot.
                *slot = match slot {
                    Value::Int(_) => Value::Int(value.as_i64()),
                    Value::Double(_) => Value::Double(value.as_f64()),
                };
                return Ok(());
            }
        }
        // C-style: assignment to an undeclared name at function scope is
        // rejected.
        Err(RuntimeError::UndefinedVariable(name.to_string()))
    }

    fn write(&mut self, lhs: &Expr, value: Value) -> Result<(), RuntimeError> {
        match lhs {
            Expr::Ident(name) => self.write_scalar(name, value),
            Expr::Index { .. } => {
                let (name, flat, _) = self.locate(lhs)?;
                let cell = self
                    .arrays
                    .get_mut(&name)
                    .ok_or_else(|| RuntimeError::UndefinedVariable(name.clone()))?;
                let addr = cell.base + flat as u64 * 8;
                cell.data[flat] = if cell.is_float {
                    value.as_f64()
                } else {
                    value.as_i64() as f64
                };
                let (_, latency) = self.cache.access(addr);
                self.cycles += latency as f64;
                Ok(())
            }
            other => Err(RuntimeError::Unsupported(format!(
                "assignment target {other:?}"
            ))),
        }
    }

    /// Resolves an index chain to (array name, flat index, ndims),
    /// charging subscript arithmetic.
    fn locate(&mut self, e: &Expr) -> Result<(String, usize, usize), RuntimeError> {
        let mut indices = Vec::new();
        let mut cur = e;
        while let Expr::Index { base, index } = cur {
            indices.push(index.as_ref());
            cur = base;
        }
        indices.reverse();
        let Expr::Ident(name) = cur else {
            return Err(RuntimeError::Unsupported(
                "indexing a non-identifier".into(),
            ));
        };
        let dims = match self.arrays.get(name) {
            Some(cell) => cell.dims.clone(),
            None => return Err(RuntimeError::UndefinedVariable(name.clone())),
        };
        let ndims = dims.len();
        if indices.len() != ndims {
            return Err(RuntimeError::Unsupported(format!(
                "array `{name}` used with {} subscripts but declared with {ndims}",
                indices.len()
            )));
        }
        let name = name.clone();
        let mut flat: i64 = 0;
        for (idx_expr, &dim) in indices.iter().zip(&dims) {
            let idx = self.eval(idx_expr)?.as_i64();
            if idx < 0 || idx >= dim as i64 {
                let len = self.arrays.get(&name).map_or(0, |c| c.data.len());
                return Err(RuntimeError::OutOfBounds {
                    array: name,
                    index: idx,
                    len,
                });
            }
            flat = flat * dim as i64 + idx;
            // Address arithmetic cost.
            self.charge(self.config.cost.add);
        }
        Ok((name, flat as usize, ndims))
    }

    /// Immutable view of an array's contents (for tests and harnesses).
    pub fn array(&self, name: &str) -> Option<&[f64]> {
        self.arrays.get(name).map(|c| c.data.as_slice())
    }
}

/// The auto-vectorizer model: collects innermost loops whose dependence
/// analysis proves every dependence loop-independent. Shared by the
/// tree interpreter and the register compiler so both engines discount
/// exactly the same loops.
pub(crate) fn collect_auto_vectorizable(program: &Program) -> std::collections::HashSet<usize> {
    use locus_srcir::visit::walk_stmts;
    let mut out = std::collections::HashSet::new();
    for f in program.functions() {
        for stmt in &f.body {
            walk_stmts(stmt, &mut |s| {
                if !s.is_for() {
                    return;
                }
                let innermost = !s
                    .as_for()
                    .map(|fl| {
                        let mut has_loop = false;
                        walk_stmts(&fl.body, &mut |inner| has_loop |= inner.is_for());
                        has_loop
                    })
                    .unwrap_or(false);
                if innermost && locus_analysis::deps::analyze_region(s).vectorizable() {
                    out.insert(s as *const Stmt as usize);
                }
            });
        }
    }
    out
}

pub(crate) fn coerce(ty: &Type, v: Value) -> Value {
    match ty {
        Type::Double | Type::Float => Value::Double(v.as_f64()),
        Type::Int | Type::Char => Value::Int(v.as_i64()),
        _ => v,
    }
}

#[inline]
pub(crate) fn num_binop(
    a: Value,
    b: Value,
    fi: fn(i64, i64) -> i64,
    ff: fn(f64, f64) -> f64,
) -> Value {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Value::Int(fi(x, y)),
        _ => Value::Double(ff(a.as_f64(), b.as_f64())),
    }
}

#[inline]
pub(crate) fn apply_bin(op: BinOp, l: Value, r: Value) -> Result<Value, RuntimeError> {
    use Value::{Double, Int};
    let both_int = matches!((l, r), (Int(_), Int(_)));
    Ok(match op {
        BinOp::Add => {
            if both_int {
                Int(l.as_i64().wrapping_add(r.as_i64()))
            } else {
                Double(l.as_f64() + r.as_f64())
            }
        }
        BinOp::Sub => {
            if both_int {
                Int(l.as_i64().wrapping_sub(r.as_i64()))
            } else {
                Double(l.as_f64() - r.as_f64())
            }
        }
        BinOp::Mul => {
            if both_int {
                Int(l.as_i64().wrapping_mul(r.as_i64()))
            } else {
                Double(l.as_f64() * r.as_f64())
            }
        }
        BinOp::Div => {
            if both_int {
                let d = r.as_i64();
                if d == 0 {
                    return Err(RuntimeError::DivisionByZero);
                }
                Int(l.as_i64().wrapping_div(d))
            } else {
                Double(l.as_f64() / r.as_f64())
            }
        }
        BinOp::Rem => {
            let d = r.as_i64();
            if d == 0 {
                return Err(RuntimeError::DivisionByZero);
            }
            Int(l.as_i64().wrapping_rem(d))
        }
        // Integer operands compare as integers: converting to f64 first
        // loses precision for |v| >= 2^53 and misorders such values.
        BinOp::Lt if both_int => Int(i64::from(l.as_i64() < r.as_i64())),
        BinOp::Le if both_int => Int(i64::from(l.as_i64() <= r.as_i64())),
        BinOp::Gt if both_int => Int(i64::from(l.as_i64() > r.as_i64())),
        BinOp::Ge if both_int => Int(i64::from(l.as_i64() >= r.as_i64())),
        BinOp::Eq if both_int => Int(i64::from(l.as_i64() == r.as_i64())),
        BinOp::Ne if both_int => Int(i64::from(l.as_i64() != r.as_i64())),
        BinOp::Lt => Int(i64::from(l.as_f64() < r.as_f64())),
        BinOp::Le => Int(i64::from(l.as_f64() <= r.as_f64())),
        BinOp::Gt => Int(i64::from(l.as_f64() > r.as_f64())),
        BinOp::Ge => Int(i64::from(l.as_f64() >= r.as_f64())),
        BinOp::Eq => Int(i64::from(l.as_f64() == r.as_f64())),
        BinOp::Ne => Int(i64::from(l.as_f64() != r.as_f64())),
        BinOp::And => Int(i64::from(l.truthy() && r.truthy())),
        BinOp::Or => Int(i64::from(l.truthy() || r.truthy())),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Machine;

    fn run(src: &str) -> Measurement {
        let program = locus_srcir::parse_program(src).unwrap();
        Machine::new(MachineConfig::scaled_small())
            .run(&program, "kernel")
            .unwrap()
    }

    fn run_err(src: &str) -> RuntimeError {
        let program = locus_srcir::parse_program(src).unwrap();
        Machine::new(MachineConfig::scaled_small())
            .run(&program, "kernel")
            .unwrap_err()
    }

    #[test]
    fn computes_and_checksums() {
        let a = run("double A[16];\nvoid kernel() { for (int i = 0; i < 16; i++) A[i] = 1.0; }");
        let b = run("double A[16];\nvoid kernel() { for (int i = 0; i < 16; i++) A[i] = 1.0; }");
        let c = run("double A[16];\nvoid kernel() { for (int i = 0; i < 16; i++) A[i] = 2.0; }");
        assert_eq!(a.checksum, b.checksum);
        assert_ne!(a.checksum, c.checksum);
    }

    #[test]
    fn loop_reversal_of_independent_writes_is_equivalent() {
        let a =
            run("double A[16];\nvoid kernel() { for (int i = 0; i < 16; i++) A[i] = (double)i; }");
        let b = run(
            "double A[16];\nvoid kernel() { int i; for (i = 15; i >= 0; i--) A[i] = (double)i; }",
        );
        assert_eq!(a.checksum, b.checksum);
    }

    #[test]
    fn arithmetic_semantics() {
        let m = run(r#"double A[4];
            void kernel() {
                A[0] = (double)(7 / 2);
                A[1] = (double)(7 % 2);
                A[2] = 7.0 / 2.0;
                A[3] = (double)(1 < 2) + (double)(2 <= 2) + (double)(3 > 4);
            }"#);
        // Verified through the checksum of a second, literal program.
        let expect = run(r#"double A[4];
            void kernel() {
                A[0] = 3.0;
                A[1] = 1.0;
                A[2] = 3.5;
                A[3] = 2.0;
            }"#);
        assert_eq!(m.checksum, expect.checksum);
    }

    #[test]
    fn out_of_bounds_is_caught() {
        let err = run_err("double A[4];\nvoid kernel() { A[4] = 1.0; }");
        assert!(matches!(err, RuntimeError::OutOfBounds { .. }));
    }

    #[test]
    fn undefined_variable_is_caught() {
        let err = run_err("void kernel() { x = 1; }");
        assert!(matches!(err, RuntimeError::UndefinedVariable(_)));
    }

    #[test]
    fn division_by_zero_is_caught() {
        let err = run_err("double A[4]; int z;\nvoid kernel() { A[0] = (double)(4 / z); }");
        assert!(matches!(err, RuntimeError::DivisionByZero));
    }

    #[test]
    fn fuel_guard_stops_runaway_loops() {
        let program =
            locus_srcir::parse_program("void kernel() { while (1 > 0) { int x; } }").unwrap();
        let mut cfg = MachineConfig::scaled_small();
        cfg.max_ops = 10_000;
        let err = Machine::new(cfg).run(&program, "kernel").unwrap_err();
        assert_eq!(err, RuntimeError::FuelExhausted);
    }

    #[test]
    fn tiled_access_has_fewer_misses_than_column_scan() {
        // Column-major scan of a row-major array thrashes; row scan does
        // not. The cache must reflect that.
        let row = run(r#"double A[128][128];
            void kernel() {
                for (int i = 0; i < 128; i++)
                    for (int j = 0; j < 128; j++)
                        A[i][j] = A[i][j] + 1.0;
            }"#);
        let col = run(r#"double A[128][128];
            void kernel() {
                for (int j = 0; j < 128; j++)
                    for (int i = 0; i < 128; i++)
                        A[i][j] = A[i][j] + 1.0;
            }"#);
        assert_eq!(row.checksum, col.checksum, "same semantics");
        // Both pay the same cold misses, but the row scan hits L1 almost
        // always while the column scan's per-column working set exceeds
        // L1 and is served by L2 — visibly slower.
        assert!(
            row.cache.hits[0] * 2 > col.cache.hits[0] * 3,
            "L1 hits: row {} vs col {}",
            row.cache.hits[0],
            col.cache.hits[0]
        );
        assert!(row.cycles < col.cycles, "{} vs {}", row.cycles, col.cycles);
    }

    #[test]
    fn omp_parallel_for_reduces_cycles() {
        let src = r#"double A[64][64];
        #pragma @Locus loop=k
        void kernel() {
            #pragma omp parallel for
            for (int i = 0; i < 64; i++)
                for (int j = 0; j < 64; j++)
                    A[i][j] = A[i][j] * 2.0 + 1.0;
        }"#;
        // Strip the misplaced pragma (globals don't take region pragmas
        // in this test source).
        let src = src.replace("#pragma @Locus loop=k\n", "");
        let program = locus_srcir::parse_program(&src).unwrap();
        let seq = Machine::new(MachineConfig::scaled_small().with_cores(1))
            .run(&program, "kernel")
            .unwrap();
        let par = Machine::new(MachineConfig::scaled_small().with_cores(8))
            .run(&program, "kernel")
            .unwrap();
        assert_eq!(seq.checksum, par.checksum);
        let speedup = seq.cycles / par.cycles;
        assert!(speedup > 3.0, "speedup {speedup}");
    }

    #[test]
    fn vector_pragma_discounts_arithmetic() {
        // A[i % 7] accumulation: non-affine, so the auto-vectorizer
        // refuses; the pragma forces the discount, exactly like icc with
        // `#pragma ivdep`.
        let plain = run(r#"double A[256], B[256];
            void kernel() {
                for (int i = 0; i < 256; i++)
                    A[i % 7] = A[i % 7] + B[i] * 3.0 + 1.0;
            }"#);
        let vectorized = run(r#"double A[256], B[256];
            void kernel() {
                #pragma ivdep
                #pragma vector always
                for (int i = 0; i < 256; i++)
                    A[i % 7] = A[i % 7] + B[i] * 3.0 + 1.0;
            }"#);
        assert_eq!(plain.checksum, vectorized.checksum);
        assert!(vectorized.cycles < plain.cycles);
    }

    #[test]
    fn auto_vectorizer_discounts_provably_safe_loops() {
        // Independent updates auto-vectorize (icc -O3 behaviour)...
        let auto = run(r#"double A[256], B[256];
            void kernel() {
                for (int i = 0; i < 256; i++)
                    A[i] = B[i] * 3.0 + 1.0;
            }"#);
        // ...while a carried recurrence of the same length does not.
        let recurrence = run(r#"double A[257], B[256];
            void kernel() {
                for (int i = 0; i < 256; i++)
                    A[i + 1] = A[i] * 3.0 + B[i];
            }"#);
        assert!(
            auto.cycles < recurrence.cycles,
            "auto {} vs recurrence {}",
            auto.cycles,
            recurrence.cycles
        );

        // Turning the model off removes the discount.
        let program = locus_srcir::parse_program(
            "double A[256], B[256];\nvoid kernel() { for (int i = 0; i < 256; i++) A[i] = B[i] * 3.0 + 1.0; }",
        )
        .unwrap();
        let mut cfg = MachineConfig::scaled_small();
        cfg.auto_vectorize = false;
        let scalar = Machine::new(cfg).run(&program, "kernel").unwrap();
        assert!(auto.cycles < scalar.cycles);
    }

    #[test]
    fn min_max_calls_work() {
        let m = run(r#"double A[2];
            void kernel() {
                A[0] = (double)min(3, 5);
                A[1] = max(2.5, 7.5);
            }"#);
        let expect = run("double A[2];\nvoid kernel() { A[0] = 3.0; A[1] = 7.5; }");
        assert_eq!(m.checksum, expect.checksum);
    }

    #[test]
    fn local_arrays_are_supported() {
        let m = run(r#"double Out[4];
            void kernel() {
                double tmp[4];
                for (int i = 0; i < 4; i++) tmp[i] = (double)i;
                for (int i = 0; i < 4; i++) Out[i] = tmp[i] * 2.0;
            }"#);
        assert!(m.cycles > 0.0);
    }

    #[test]
    fn global_scalar_initializers() {
        let m = run(r#"double alpha = 1.5; double beta = 2.0; double A[2];
            void kernel() { A[0] = alpha * beta; }"#);
        let expect = run("double A[2];\nvoid kernel() { A[0] = 3.0; }");
        assert_eq!(m.checksum, expect.checksum);
    }

    #[test]
    fn measurement_reports_flops_and_time() {
        let m =
            run("double A[64];\nvoid kernel() { for (int i = 0; i < 64; i++) A[i] = A[i] * 2.0; }");
        assert!(m.flops >= 64);
        assert!(m.time_ms > 0.0);
        assert!(m.cache.accesses >= 128);
    }

    #[test]
    fn int_comparisons_above_2_53_are_exact() {
        // 2^53 + 1 and 2^53 are equal as f64; as i64 they are not. The
        // old float-routed comparisons got all of these wrong.
        let m = run(r#"double A[3];
            void kernel() {
                A[0] = (double)(9007199254740993 > 9007199254740992);
                A[1] = (double)(9007199254740993 == 9007199254740992);
                A[2] = (double)(9007199254740993 != 9007199254740992);
            }"#);
        let expect = run("double A[3];\nvoid kernel() { A[0] = 1.0; A[1] = 0.0; A[2] = 1.0; }");
        assert_eq!(m.checksum, expect.checksum);
        // Mixed int/double comparisons still promote to f64.
        let mixed = run("double A[1];\nvoid kernel() { A[0] = (double)(1 < 1.5); }");
        let mixed_expect = run("double A[1];\nvoid kernel() { A[0] = 1.0; }");
        assert_eq!(mixed.checksum, mixed_expect.checksum);
    }

    #[test]
    fn compound_assign_runs_side_effecting_index_once() {
        // The old read-modify-write evaluated the subscript chain twice
        // (once to read, once to write): `i` ended up at 2 and the sum
        // landed in A[2] while A[1] held the stale value.
        let m = run(r#"double A[8];
            void kernel() {
                int i = 0;
                A[(i = i + 1)] += 2.0;
                A[0] = (double)i;
            }"#);
        let expect = run(r#"double A[8];
            void kernel() {
                A[1] = A[1] + 2.0;
                A[0] = 1.0;
            }"#);
        assert_eq!(m.checksum, expect.checksum);
    }

    #[test]
    fn compound_assign_charges_subscripts_once() {
        let compound = run("double A[8];\nvoid kernel() { A[5] += 1.0; }");
        let expanded = run("double A[8];\nvoid kernel() { A[5] = A[5] + 1.0; }");
        assert_eq!(compound.checksum, expanded.checksum, "same semantics");
        // One located address, one subscript evaluation: strictly fewer
        // interpreted ops and cycles than the expanded spelling, but
        // still both cache accesses of a read-modify-write.
        assert!(
            compound.ops < expanded.ops,
            "ops {} vs {}",
            compound.ops,
            expanded.ops
        );
        assert!(compound.cycles < expanded.cycles);
        assert_eq!(compound.cache.accesses, expanded.cache.accesses);
    }

    #[test]
    fn invalid_cache_geometry_is_an_error_not_a_panic() {
        let program =
            locus_srcir::parse_program("double A[4];\nvoid kernel() { A[0] = 1.0; }").unwrap();
        let mut cfg = MachineConfig::scaled_small();
        // 48 KB / 64 B / 8 ways = 96 sets: not a power of two.
        cfg.cache.levels[0].capacity = 48 * 1024;
        let err = Machine::new(cfg).run(&program, "kernel").unwrap_err();
        assert!(matches!(err, RuntimeError::InvalidConfig(_)), "{err:?}");
    }

    #[test]
    fn while_loops_execute() {
        let m = run(r#"double A[8];
            void kernel() {
                int i = 0;
                while (i < 8) {
                    A[i] = 1.0;
                    i += 1;
                }
            }"#);
        let expect = run("double A[8];\nvoid kernel() { for (int i = 0; i < 8; i++) A[i] = 1.0; }");
        assert_eq!(m.checksum, expect.checksum);
    }
}
