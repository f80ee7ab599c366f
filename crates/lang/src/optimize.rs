//! Optimizations applied to Locus programs (Sec. IV-C of the paper).
//!
//! Before a program's space is converted for a search module, the system
//! applies:
//!
//! 1. **Query pre-evaluation** — `Query` operations used by search
//!    constructs must be known before the search starts, so they are
//!    executed once against the region and their results replace the
//!    calls. The system does this (`locus_core::subst`), since only it
//!    holds the region; it inlines results with [`value_to_expr_pub`];
//! 2. **Constant propagation, constant folding and dead-code
//!    elimination** ([`optimize`]) — with query results inlined, entire
//!    conditional arms become statically dead (e.g. everything guarded
//!    by `depth > 1` for a depth-1 nest in Fig. 13), removing their
//!    search constructs from the space and thereby shrinking the search.

use std::collections::HashMap;

use crate::ast::*;
use crate::interp::binary_values;
use crate::value::Value;

/// Statistics of one optimizer run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OptStats {
    /// Expressions replaced by constants.
    pub folded: usize,
    /// Conditional branches removed as dead.
    pub branches_removed: usize,
}

/// Applies constant propagation, folding and dead-code elimination.
/// Iterates to a fixpoint.
pub fn optimize(program: &mut LocusProgram) -> OptStats {
    let mut total = OptStats::default();
    for _ in 0..8 {
        let mut stats = OptStats::default();
        let mut items = std::mem::take(&mut program.items);
        for item in &mut items {
            match item {
                LItem::Stmt(stmt) => {
                    let mut env = HashMap::new();
                    opt_stmt(stmt, &mut env, &mut stats);
                }
                LItem::CodeReg { body, .. }
                | LItem::OptSeq { body, .. }
                | LItem::Query { body, .. }
                | LItem::ModuleDecl { body, .. }
                | LItem::Def { body, .. }
                | LItem::SearchBlock(body) => {
                    let mut env = HashMap::new();
                    opt_block(body, &mut env, &mut stats);
                }
                _ => {}
            }
        }
        program.items = items;
        let changed = stats != OptStats::default();
        total.folded += stats.folded;
        total.branches_removed += stats.branches_removed;
        if !changed {
            break;
        }
    }
    total
}

type Env = HashMap<String, LExpr>;

fn opt_block(block: &mut LBlock, env: &mut Env, stats: &mut OptStats) {
    if block.alternatives.len() == 1 {
        opt_stmts(&mut block.alternatives[0], env, stats);
        return;
    }
    // OR block: each alternative sees the same incoming env; afterwards
    // anything assigned anywhere becomes unknown.
    let before = env.clone();
    let mut assigned = Vec::new();
    for alt in &mut block.alternatives {
        let mut branch_env = before.clone();
        opt_stmts(alt, &mut branch_env, stats);
        for k in branch_env.keys() {
            if before.get(k) != branch_env.get(k) {
                assigned.push(k.clone());
            }
        }
        for (k, _) in before.iter() {
            if !branch_env.contains_key(k) {
                assigned.push(k.clone());
            }
        }
    }
    for k in assigned {
        env.remove(&k);
    }
}

fn opt_stmts(stmts: &mut Vec<LStmt>, env: &mut Env, stats: &mut OptStats) {
    let mut i = 0;
    while i < stmts.len() {
        // If-statements with constant conditions get flattened into the
        // surrounding statement list.
        if let LStmt::If { .. } = &stmts[i] {
            if let Some(replacement) = try_flatten_if(&mut stmts[i], env, stats) {
                let removed = stmts.remove(i);
                drop(removed);
                let n = replacement.len();
                for (k, s) in replacement.into_iter().enumerate() {
                    stmts.insert(i + k, s);
                }
                stats.branches_removed += 1;
                // Re-process the spliced statements.
                let _ = n;
                continue;
            }
        }
        opt_stmt(&mut stmts[i], env, stats);
        i += 1;
    }
}

/// When the if's condition (after folding) is a constant, returns the
/// statements of the branch that will run.
fn try_flatten_if(stmt: &mut LStmt, env: &mut Env, stats: &mut OptStats) -> Option<Vec<LStmt>> {
    let LStmt::If {
        cond,
        then,
        elifs,
        els,
    } = stmt
    else {
        return None;
    };
    fold_expr(cond, env, stats);
    let c = expr_to_value(cond)?;
    if c.truthy() {
        if then.alternatives.len() == 1 && then.serial.is_none() {
            return Some(then.alternatives[0].clone());
        }
        return Some(vec![LStmt::Block(then.clone())]);
    }
    // Condition false: the if reduces to its elif chain / else.
    if let Some(((c2, b2), rest)) = elifs.split_first() {
        let reduced = LStmt::If {
            cond: c2.clone(),
            then: b2.clone(),
            elifs: rest.to_vec(),
            els: els.clone(),
        };
        return Some(vec![reduced]);
    }
    if let Some(b) = els {
        if b.alternatives.len() == 1 && b.serial.is_none() {
            return Some(b.alternatives[0].clone());
        }
        return Some(vec![LStmt::Block(b.clone())]);
    }
    Some(Vec::new())
}

fn opt_stmt(stmt: &mut LStmt, env: &mut Env, stats: &mut OptStats) {
    match stmt {
        LStmt::Expr(e) | LStmt::Print(e) | LStmt::Return(Some(e)) => fold_expr(e, env, stats),
        LStmt::Assign { targets, value } => {
            fold_expr(value, env, stats);
            match targets.as_slice() {
                [LExpr::Ident(name)] => {
                    if is_literal(value) {
                        env.insert(name.clone(), value.clone());
                    } else {
                        env.remove(name);
                    }
                }
                _ => {
                    for t in targets.iter() {
                        if let LExpr::Ident(name) = t {
                            env.remove(name);
                        }
                    }
                }
            }
        }
        LStmt::Optional { stmt, .. } => opt_stmt(stmt, env, stats),
        LStmt::Block(b) => opt_block(b, env, stats),
        LStmt::If {
            cond,
            then,
            elifs,
            els,
        } => {
            fold_expr(cond, env, stats);
            let before = env.clone();
            let mut branch_envs = Vec::new();
            {
                let mut e = before.clone();
                opt_block(then, &mut e, stats);
                branch_envs.push(e);
            }
            for (c, b) in elifs {
                fold_expr(c, &mut before.clone(), stats);
                let mut e = before.clone();
                opt_block(b, &mut e, stats);
                branch_envs.push(e);
            }
            if let Some(b) = els {
                let mut e = before.clone();
                opt_block(b, &mut e, stats);
                branch_envs.push(e);
            }
            // Keep only facts that hold on every path (including the
            // fall-through when no else exists).
            env.retain(|k, v| {
                branch_envs.iter().all(|be| be.get(k) == Some(v))
                    && (els.is_some() || before.get(k) == Some(v))
            });
        }
        LStmt::For {
            init,
            cond,
            step,
            body,
        } => {
            opt_stmt(init, env, stats);
            // Loop bodies run an unknown number of times: drop facts
            // about anything they assign.
            let mut body_env = Env::new();
            fold_expr(cond, &mut body_env, stats);
            opt_block(body, &mut body_env, stats);
            opt_stmt(step, &mut body_env, stats);
            invalidate_assigned(stmt_assigned(body), env);
            if let LStmt::Assign { targets, .. } = init.as_ref() {
                for t in targets {
                    if let LExpr::Ident(n) = t {
                        env.remove(n);
                    }
                }
            }
        }
        LStmt::While { cond, body } => {
            let mut body_env = Env::new();
            fold_expr(cond, &mut body_env, stats);
            opt_block(body, &mut body_env, stats);
            invalidate_assigned(stmt_assigned(body), env);
        }
        LStmt::Return(None) | LStmt::Pass => {}
    }
}

fn stmt_assigned(block: &LBlock) -> Vec<String> {
    let mut out = Vec::new();
    fn rec_stmt(s: &LStmt, out: &mut Vec<String>) {
        match s {
            LStmt::Assign { targets, .. } => {
                for t in targets {
                    if let LExpr::Ident(n) = t {
                        out.push(n.clone());
                    }
                }
            }
            LStmt::Optional { stmt, .. } => rec_stmt(stmt, out),
            LStmt::Block(b) => rec_block(b, out),
            LStmt::If {
                then, elifs, els, ..
            } => {
                rec_block(then, out);
                for (_, b) in elifs {
                    rec_block(b, out);
                }
                if let Some(b) = els {
                    rec_block(b, out);
                }
            }
            LStmt::For {
                init, step, body, ..
            } => {
                rec_stmt(init, out);
                rec_stmt(step, out);
                rec_block(body, out);
            }
            LStmt::While { body, .. } => rec_block(body, out),
            _ => {}
        }
    }
    fn rec_block(b: &LBlock, out: &mut Vec<String>) {
        for alt in &b.alternatives {
            for s in alt {
                rec_stmt(s, out);
            }
        }
    }
    rec_block(block, &mut out);
    out
}

fn invalidate_assigned(names: Vec<String>, env: &mut Env) {
    for n in names {
        env.remove(&n);
    }
}

fn fold_expr(e: &mut LExpr, env: &mut Env, stats: &mut OptStats) {
    match e {
        LExpr::Ident(name) => {
            if let Some(lit) = env.get(name) {
                *e = lit.clone();
                stats.folded += 1;
            }
        }
        LExpr::List(items) | LExpr::Tuple(items) => {
            for i in items {
                fold_expr(i, env, stats);
            }
        }
        LExpr::Dict(entries) => {
            for (_, v) in entries {
                fold_expr(v, env, stats);
            }
        }
        LExpr::Attr { base, .. } if !matches!(base.as_ref(), LExpr::Ident(_)) => {
            fold_expr(base, env, stats);
        }
        LExpr::Index { base, index } => {
            fold_expr(base, env, stats);
            fold_expr(index, env, stats);
            // Constant list indexing folds.
            if let (LExpr::List(items), LExpr::Int(i)) = (base.as_ref(), index.as_ref()) {
                let idx = if *i < 0 { items.len() as i64 + i } else { *i };
                if idx >= 0 && (idx as usize) < items.len() && is_literal(&items[idx as usize]) {
                    *e = items[idx as usize].clone();
                    stats.folded += 1;
                }
            }
        }
        LExpr::Range { lo, hi, step } => {
            fold_expr(lo, env, stats);
            fold_expr(hi, env, stats);
            if let Some(s) = step {
                fold_expr(s, env, stats);
            }
        }
        LExpr::Neg(inner) => {
            fold_expr(inner, env, stats);
            match inner.as_ref() {
                LExpr::Int(v) => {
                    *e = LExpr::Int(-v);
                    stats.folded += 1;
                }
                LExpr::Float(v) => {
                    *e = LExpr::Float(-v);
                    stats.folded += 1;
                }
                _ => {}
            }
        }
        LExpr::Not(inner) => {
            fold_expr(inner, env, stats);
            if let Some(v) = expr_to_value(inner) {
                *e = LExpr::Int(i64::from(!v.truthy()));
                stats.folded += 1;
            }
        }
        LExpr::Binary { op, lhs, rhs } => {
            fold_expr(lhs, env, stats);
            fold_expr(rhs, env, stats);
            let (op, l, r) = (*op, expr_to_value(lhs), expr_to_value(rhs));
            // Short-circuit folds.
            if op == LBinOp::And {
                if let Some(l) = &l {
                    if !l.truthy() {
                        *e = LExpr::Int(0);
                        stats.folded += 1;
                        return;
                    } else if let Some(r) = &r {
                        *e = LExpr::Int(i64::from(r.truthy()));
                        stats.folded += 1;
                        return;
                    }
                }
                return;
            }
            if op == LBinOp::Or {
                if let Some(l) = &l {
                    if l.truthy() {
                        *e = LExpr::Int(1);
                        stats.folded += 1;
                        return;
                    } else if let Some(r) = &r {
                        *e = LExpr::Int(i64::from(r.truthy()));
                        stats.folded += 1;
                        return;
                    }
                }
                return;
            }
            if let (Some(l), Some(r)) = (l, r) {
                if let Ok(v) = binary_values(op, l, r) {
                    *e = value_to_expr(&v);
                    stats.folded += 1;
                }
            }
        }
        LExpr::Search { args, .. } => {
            for a in args {
                fold_expr(a, env, stats);
            }
        }
        LExpr::OrExpr { options, .. } => {
            for o in options {
                fold_expr(o, env, stats);
            }
        }
        LExpr::Call { callee, args } => {
            for a in args.iter_mut() {
                fold_expr(&mut a.value, env, stats);
            }
            // seq over constants folds to a list literal.
            if let LExpr::Ident(name) = callee.as_ref() {
                if name == "seq" && args.len() == 2 {
                    if let (Some(LExpr::Int(lo)), Some(LExpr::Int(hi))) = (
                        args.first().map(|a| &a.value),
                        args.get(1).map(|a| &a.value),
                    ) {
                        *e = LExpr::List((*lo..*hi).map(LExpr::Int).collect());
                        stats.folded += 1;
                    }
                }
            }
        }
        _ => {}
    }
}

/// `true` for literal expressions (safe to propagate).
fn is_literal(e: &LExpr) -> bool {
    match e {
        LExpr::Int(_) | LExpr::Float(_) | LExpr::Str(_) | LExpr::None => true,
        LExpr::List(items) | LExpr::Tuple(items) => items.iter().all(is_literal),
        _ => false,
    }
}

/// Converts a literal expression to a runtime value.
pub(crate) fn expr_to_value(e: &LExpr) -> Option<Value> {
    match e {
        LExpr::Int(v) => Some(Value::Int(*v)),
        LExpr::Float(v) => Some(Value::Float(*v)),
        LExpr::Str(s) => Some(Value::Str(s.clone())),
        LExpr::None => Some(Value::None),
        LExpr::List(items) => items
            .iter()
            .map(expr_to_value)
            .collect::<Option<Vec<_>>>()
            .map(Value::List),
        LExpr::Tuple(items) => items
            .iter()
            .map(expr_to_value)
            .collect::<Option<Vec<_>>>()
            .map(Value::Tuple),
        _ => None,
    }
}

/// Converts a runtime value back to a literal expression.
pub fn value_to_expr_pub(v: &Value) -> LExpr {
    value_to_expr(v)
}

pub(crate) fn value_to_expr(v: &Value) -> LExpr {
    match v {
        Value::None => LExpr::None,
        Value::Int(x) => LExpr::Int(*x),
        Value::Float(x) => LExpr::Float(*x),
        Value::Str(s) => LExpr::Str(s.clone()),
        Value::List(items) => LExpr::List(items.iter().map(value_to_expr).collect()),
        Value::Tuple(items) => LExpr::Tuple(items.iter().map(value_to_expr).collect()),
        Value::Dict(map) => LExpr::Dict(
            map.iter()
                .map(|(k, v)| (k.clone(), value_to_expr(v)))
                .collect(),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_space;
    use crate::parser::parse;

    #[test]
    fn folds_constants_and_removes_dead_branches() {
        let src = r#"
        CodeReg r {
            depth = 1;
            if (depth > 1) {
                t = poweroftwo(2..32);
                A.Tile(factor=t);
            }
            A.Unroll(factor=2 * 2);
        }
        "#;
        let mut program = parse(src).unwrap();
        let stats = optimize(&mut program);
        assert!(stats.branches_removed >= 1);
        assert!(stats.folded >= 1);
        // The dead branch's search construct is gone from the space.
        let info = extract_space(&program).unwrap();
        assert!(info.space.is_empty(), "{:?}", info.space);
    }

    #[test]
    fn keeps_live_branches() {
        let src = r#"
        CodeReg r {
            depth = 3;
            if (depth > 1) {
                t = poweroftwo(2..32);
                A.Tile(factor=t);
            }
        }
        "#;
        let mut program = parse(src).unwrap();
        optimize(&mut program);
        let info = extract_space(&program).unwrap();
        assert_eq!(info.space.len(), 1);
    }

    #[test]
    fn elif_chains_reduce_stepwise() {
        let src = r#"
        CodeReg r {
            x = "b";
            if (x == "a") {
                A.One();
            } elif (x == "b") {
                t = integer(1..4);
                A.Two(t=t);
            } else {
                A.Three();
            }
        }
        "#;
        let mut program = parse(src).unwrap();
        optimize(&mut program);
        let info = extract_space(&program).unwrap();
        assert_eq!(info.space.len(), 1, "only the elif branch survives");
    }

    #[test]
    fn string_concat_folds() {
        let src = r#"
        CodeReg r {
            layout = "DGZ";
            path = "scatter_" + layout + ".txt";
            BuiltIn.Altdesc(source=path);
        }
        "#;
        let mut program = parse(src).unwrap();
        optimize(&mut program);
        let body = program.codereg("r").unwrap();
        let LStmt::Expr(LExpr::Call { args, .. }) = &body.alternatives[0][2] else {
            panic!("expected call");
        };
        assert_eq!(args[0].value, LExpr::Str("scatter_DGZ.txt".into()));
    }

    #[test]
    fn fig13_depth1_space_shrinks() {
        // The paper's Sec. IV-C example: for depth-1 nests all constructs
        // conditional on depth > 1 drop out.
        let template = |depth: i64, perfect: i64| {
            format!(
                r#"
        CodeReg scop {{
            perfect = {perfect};
            depth = {depth};
            if (1) {{
                if (perfect && depth > 1) {{
                    permorder = permutation(seq(0, depth));
                    RoseLocus.Interchange(order=permorder);
                }}
                {{
                    if (perfect) {{
                        indexT1 = integer(1..depth);
                        T1fac = poweroftwo(2..32);
                        RoseLocus.Tiling(loop=indexT1, factor=T1fac);
                    }}
                }} OR {{
                    if (depth > 1) {{
                        indexUAJ = integer(1..depth-1);
                        UAJfac = poweroftwo(2..4);
                        RoseLocus.UnrollAndJam(loop=indexUAJ, factor=UAJfac);
                    }}
                }} OR {{
                    None;
                }}
                *RoseLocus.Distribute(loop=[1]);
            }}
            RoseLocus.Unroll(loop=[1], factor=poweroftwo(2..8));
        }}
        "#
            )
        };
        let mut deep = parse(&template(3, 1)).unwrap();
        optimize(&mut deep);
        let deep_info = extract_space(&deep).unwrap();

        let mut shallow = parse(&template(1, 1)).unwrap();
        optimize(&mut shallow);
        let shallow_info = extract_space(&shallow).unwrap();

        assert!(
            shallow_info.space.size() < deep_info.space.size(),
            "shallow {} vs deep {}",
            shallow_info.space.size(),
            deep_info.space.size()
        );
        // The interchange permutation must be gone for depth 1.
        assert!(shallow_info.space.param("permorder").is_none());
    }
}
