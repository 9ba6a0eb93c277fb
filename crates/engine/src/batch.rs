//! The vectorized execution plan: compiling scan expressions to batch
//! kernels, and evaluating them over columnar batches.
//!
//! Every `FROM` scan — SELECT projections, aggregates, `GROUP BY`, and the
//! match phase of UPDATE/DELETE — runs a [`BatchPlan`]; [`plan_select`] is
//! total. Each filter, projection item, group key and aggregate argument
//! compiles either entirely to the kernel set — column references of
//! scalar type, numeric/boolean literals and session variables,
//! arithmetic, comparisons, `AND`/`OR`/`NOT`, unary minus — or entirely to
//! one escape node, [`BExpr::Row`], which runs the row interpreter
//! ([`crate::expr::eval`]) once per selected row, in row order, reading
//! the row's columns from the batch lanes. UDF calls (and the
//! `Subarray`/`Item` LOB pushdown behind them), UDA arguments, string,
//! bytes and NULL literals, missing variables, blobs inside expressions
//! and `-(bool)` escape. Because the escape is whole-expression, an escaped
//! item keeps the row interpreter's per-row short-circuit and error
//! semantics exactly.
//!
//! Compiled kernels reproduce the row interpreter's semantics exactly:
//!
//! * integer × integer arithmetic wraps in `i64` and yields `BIGINT`;
//!   any float or boolean operand switches the operator to `f64`;
//! * comparisons coerce both sides to `f64`; a NaN operand raises the
//!   same typed error;
//! * `AND`/`OR` short-circuit *per row* via selection splitting: the right
//!   operand is evaluated only over rows the left operand did not decide,
//!   so an error in the right operand surfaces for exactly the rows the
//!   row interpreter would have evaluated it on;
//! * projections and aggregate arguments are evaluated only over rows
//!   that passed the filter;
//! * unary minus preserves the operand's type, like the interpreter.

use crate::expr::{AggFunc, BinOp, EvalEnv, Expr, RowCtx};
use crate::tsql::SelectItem;
use crate::value::{EngineError, Result, Value};
use sqlarray_core::batch as b;
use sqlarray_core::batch::{ArithOp, Batch, CmpOp, ColVec};
use sqlarray_storage::{ColType, Schema};
use std::collections::HashMap;

/// Static type of a compiled batch expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum VKind {
    I64,
    I32,
    F64,
    F32,
    Bool,
    /// Whatever the row interpreter returns (the escape node).
    Dyn,
}

impl VKind {
    fn is_int(self) -> bool {
        matches!(self, VKind::I64 | VKind::I32)
    }
}

/// A compiled scalar expression over batch columns.
#[derive(Debug, Clone)]
pub(crate) enum BExpr {
    /// Batch column `pos` (a position in [`BatchPlan::cols`], not a schema
    /// index) of the given scalar kind.
    Col {
        pos: usize,
        kind: VKind,
    },
    LitI64(i64),
    LitI32(i32),
    LitF64(f64),
    LitF32(f32),
    LitBool(bool),
    Neg(Box<BExpr>),
    Not(Box<BExpr>),
    And(Box<BExpr>, Box<BExpr>),
    Or(Box<BExpr>, Box<BExpr>),
    Cmp {
        op: CmpOp,
        l: Box<BExpr>,
        r: Box<BExpr>,
    },
    /// Both operands integral: wrapping `i64` arithmetic yielding `BIGINT`.
    IntArith {
        op: ArithOp,
        l: Box<BExpr>,
        r: Box<BExpr>,
    },
    /// At least one non-integral operand: `f64` arithmetic yielding `FLOAT`.
    FloatArith {
        op: ArithOp,
        l: Box<BExpr>,
        r: Box<BExpr>,
    },
    /// The escape node: a whole expression without a kernel, evaluated by
    /// the row interpreter once per selected row. Only ever the root of a
    /// filter, item, group key or aggregate argument.
    Row(Expr),
}

impl BExpr {
    pub(crate) fn kind(&self) -> VKind {
        match self {
            BExpr::Col { kind, .. } => *kind,
            BExpr::LitI64(_) => VKind::I64,
            BExpr::LitI32(_) => VKind::I32,
            BExpr::LitF64(_) => VKind::F64,
            BExpr::LitF32(_) => VKind::F32,
            BExpr::LitBool(_) => VKind::Bool,
            BExpr::Neg(e) => e.kind(),
            BExpr::Not(_) | BExpr::And(..) | BExpr::Or(..) | BExpr::Cmp { .. } => VKind::Bool,
            BExpr::IntArith { .. } => VKind::I64,
            BExpr::FloatArith { .. } => VKind::F64,
            BExpr::Row(_) => VKind::Dyn,
        }
    }
}

/// The argument of a compiled built-in aggregate.
#[derive(Debug, Clone)]
pub(crate) enum BAggArg {
    /// A scalar expression (or an escape node).
    Scalar(BExpr),
    /// `COUNT(blob_col)`: the argument is a bare blob column — only
    /// null-ness matters and stored columns are never null, so the column
    /// is not even decoded.
    Blob,
}

/// One compiled select-list item.
#[derive(Debug, Clone)]
pub(crate) enum BItem {
    /// Scalar projection.
    Proj(BExpr),
    /// Bare blob-column projection: materialized per selected row at the
    /// projection boundary (inline bytes copied, LOB references resolved
    /// through the worker's reader in row order).
    ProjBlob(usize),
    /// Built-in aggregate.
    Agg { func: AggFunc, arg: Option<BAggArg> },
    /// User-defined aggregate: its per-row arguments.
    Uda(Vec<BExpr>),
    /// Non-aggregate item inside an aggregate query: evaluated once per
    /// group, at the group's first filter-passing row (the row
    /// interpreter's semantics).
    Plain(BExpr),
}

/// A compiled vectorized scan: which schema columns to decode, the filter,
/// the group keys and the select-list items, all in terms of batch column
/// positions.
#[derive(Debug, Clone)]
pub(crate) struct BatchPlan {
    /// Schema column indices to decode, in batch-column order.
    pub cols: Vec<usize>,
    /// Compiled WHERE predicate.
    pub filter: Option<BExpr>,
    /// Compiled GROUP BY keys (empty: one global group).
    pub group_by: Vec<BExpr>,
    /// Compiled select-list items (aggregates iff the query aggregates).
    pub items: Vec<BItem>,
    /// Flush batches at every leaf boundary. Set when the plan touches a
    /// blob column or holds an escape node, so per-batch LOB reads
    /// interleave with leaf reads (leaf, then that leaf's LOB pages)
    /// identically at every DOP — the IoStats/seek DOP-invariance
    /// machinery depends on it.
    pub leaf_aligned: bool,
}

/// Builds a [`BatchPlan`]: registers the columns each compiled expression
/// reads and records whether any expression escaped.
pub(crate) struct Compiler<'a> {
    schema: &'a Schema,
    vars: &'a HashMap<String, Value>,
    cols: Vec<usize>,
    escaped: bool,
}

impl<'a> Compiler<'a> {
    pub(crate) fn new(schema: &'a Schema, vars: &'a HashMap<String, Value>) -> Compiler<'a> {
        Compiler {
            schema,
            vars,
            cols: Vec::new(),
            escaped: false,
        }
    }

    /// Batch column position for a schema index, registering it on first
    /// use. Linear scan: plans touch a handful of columns.
    pub(crate) fn col_pos(&mut self, idx: usize) -> usize {
        match self.cols.iter().position(|&c| c == idx) {
            Some(p) => p,
            None => {
                self.cols.push(idx);
                self.cols.len() - 1
            }
        }
    }

    fn lit(&self, v: &Value) -> Option<BExpr> {
        match v {
            Value::I64(x) => Some(BExpr::LitI64(*x)),
            Value::I32(x) => Some(BExpr::LitI32(*x)),
            Value::F64(x) => Some(BExpr::LitF64(*x)),
            Value::F32(x) => Some(BExpr::LitF32(*x)),
            Value::Bool(x) => Some(BExpr::LitBool(*x)),
            // Null, strings, bytes, and LOB references keep the row
            // interpreter's semantics (string compares, null propagation)
            // through the escape node.
            _ => None,
        }
    }

    /// Compiles `e` to a kernel tree, or `None` when some node has no
    /// kernel.
    fn compile(&mut self, e: &Expr) -> Option<BExpr> {
        match e {
            Expr::Lit(v) => self.lit(v),
            // A missing variable is a per-row error in the interpreter
            // (FROM-scans only raise it when a row is selected), so it
            // escapes to error identically.
            Expr::Var(name) => {
                let v = crate::expr::lookup_var(self.vars, name)?;
                self.lit(v)
            }
            Expr::Col(name) => {
                let idx = self.schema.col_index(name)?;
                let kind = match self.schema.columns[idx].ctype {
                    ColType::I64 => VKind::I64,
                    ColType::I32 => VKind::I32,
                    ColType::F64 => VKind::F64,
                    ColType::F32 => VKind::F32,
                    // Blob columns inside computed expressions (equality,
                    // truthiness, …) keep row semantics by escaping.
                    ColType::Blob => return None,
                };
                Some(BExpr::Col {
                    pos: self.col_pos(idx),
                    kind,
                })
            }
            Expr::Neg(inner) => {
                let c = self.compile(inner)?;
                if c.kind() == VKind::Bool {
                    // `-(bool)` is a typed error in the interpreter; the
                    // escape node raises it with the exact message.
                    return None;
                }
                Some(BExpr::Neg(Box::new(c)))
            }
            Expr::Not(inner) => Some(BExpr::Not(Box::new(self.compile(inner)?))),
            Expr::Bin { op, left, right } => {
                let l = Box::new(self.compile(left)?);
                let r = Box::new(self.compile(right)?);
                Some(match op {
                    BinOp::And => BExpr::And(l, r),
                    BinOp::Or => BExpr::Or(l, r),
                    BinOp::Eq => BExpr::Cmp {
                        op: CmpOp::Eq,
                        l,
                        r,
                    },
                    BinOp::Ne => BExpr::Cmp {
                        op: CmpOp::Ne,
                        l,
                        r,
                    },
                    BinOp::Lt => BExpr::Cmp {
                        op: CmpOp::Lt,
                        l,
                        r,
                    },
                    BinOp::Le => BExpr::Cmp {
                        op: CmpOp::Le,
                        l,
                        r,
                    },
                    BinOp::Gt => BExpr::Cmp {
                        op: CmpOp::Gt,
                        l,
                        r,
                    },
                    BinOp::Ge => BExpr::Cmp {
                        op: CmpOp::Ge,
                        l,
                        r,
                    },
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                        let op = match op {
                            BinOp::Add => ArithOp::Add,
                            BinOp::Sub => ArithOp::Sub,
                            BinOp::Mul => ArithOp::Mul,
                            BinOp::Div => ArithOp::Div,
                            _ => ArithOp::Mod,
                        };
                        if l.kind().is_int() && r.kind().is_int() {
                            BExpr::IntArith { op, l, r }
                        } else {
                            BExpr::FloatArith { op, l, r }
                        }
                    }
                })
            }
            // UDFs (and the LOB pushdown behind them), UDAs, and nested
            // aggregates have no kernel.
            Expr::Func { .. } | Expr::UdaCall { .. } | Expr::Agg { .. } => None,
        }
    }

    /// Compiles `e` entirely to kernels, or — when any node has no
    /// kernel — entirely to one escape node.
    pub(crate) fn expr(&mut self, e: &Expr) -> BExpr {
        let mark = self.cols.len();
        if let Some(k) = self.compile(e) {
            return k;
        }
        // Drop the columns the abandoned kernel attempt registered, then
        // register every column the interpreter may read.
        self.cols.truncate(mark);
        self.register_cols(e);
        self.escaped = true;
        BExpr::Row(e.clone())
    }

    fn register_cols(&mut self, e: &Expr) {
        match e {
            Expr::Col(name) => {
                // An unknown column is the interpreter's per-row error.
                if let Some(idx) = self.schema.col_index(name) {
                    self.col_pos(idx);
                }
            }
            Expr::Func { args, .. } | Expr::UdaCall { args, .. } => {
                args.iter().for_each(|a| self.register_cols(a))
            }
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    self.register_cols(a);
                }
            }
            Expr::Neg(inner) | Expr::Not(inner) => self.register_cols(inner),
            Expr::Bin { left, right, .. } => {
                self.register_cols(left);
                self.register_cols(right);
            }
            Expr::Lit(_) | Expr::Var(_) => {}
        }
    }

    /// The schema index of a bare blob-column reference.
    fn blob_idx(&self, e: &Expr) -> Option<usize> {
        let Expr::Col(name) = e else { return None };
        let idx = self.schema.col_index(name)?;
        (self.schema.columns[idx].ctype == ColType::Blob).then_some(idx)
    }

    pub(crate) fn finish(
        self,
        filter: Option<BExpr>,
        group_by: Vec<BExpr>,
        items: Vec<BItem>,
    ) -> BatchPlan {
        let leaf_aligned = self.escaped
            || self
                .cols
                .iter()
                .any(|&i| self.schema.columns[i].ctype == ColType::Blob);
        BatchPlan {
            cols: self.cols,
            filter,
            group_by,
            items,
            leaf_aligned,
        }
    }
}

/// Compiles a SELECT scan to its [`BatchPlan`] — see the module docs for
/// what compiles to kernels and what escapes.
pub(crate) fn plan_select(
    schema: &Schema,
    items: &[SelectItem],
    where_clause: Option<&Expr>,
    group_by: &[Expr],
    has_aggregate: bool,
    vars: &HashMap<String, Value>,
) -> BatchPlan {
    let mut c = Compiler::new(schema, vars);
    let filter = where_clause.map(|w| c.expr(w));
    let group_by = group_by.iter().map(|g| c.expr(g)).collect();
    let mut plan_items = Vec::with_capacity(items.len());
    for it in items {
        let item = if has_aggregate {
            match &it.expr {
                Expr::Agg { func, arg } => {
                    let arg = match (func, arg) {
                        (AggFunc::CountStar, _) | (_, None) => None,
                        (AggFunc::Count, Some(e)) if c.blob_idx(e).is_some() => Some(BAggArg::Blob),
                        (_, Some(e)) => Some(BAggArg::Scalar(c.expr(e))),
                    };
                    BItem::Agg { func: *func, arg }
                }
                Expr::UdaCall { args, .. } => BItem::Uda(args.iter().map(|a| c.expr(a)).collect()),
                other => BItem::Plain(c.expr(other)),
            }
        } else {
            match c.blob_idx(&it.expr) {
                Some(idx) => BItem::ProjBlob(c.col_pos(idx)),
                None => BItem::Proj(c.expr(&it.expr)),
            }
        };
        plan_items.push(item);
    }
    c.finish(filter, group_by, plan_items)
}

/// A batch expression result: one value per *selected* row, dense.
#[derive(Debug, Clone)]
pub(crate) enum BVal {
    I64(Vec<i64>),
    I32(Vec<i32>),
    F64(Vec<f64>),
    F32(Vec<f32>),
    Bool(Vec<bool>),
    /// The escape node's per-row results.
    Values(Vec<Value>),
}

impl BVal {
    pub(crate) fn len(&self) -> usize {
        match self {
            BVal::I64(v) => v.len(),
            BVal::I32(v) => v.len(),
            BVal::F64(v) => v.len(),
            BVal::F32(v) => v.len(),
            BVal::Bool(v) => v.len(),
            BVal::Values(v) => v.len(),
        }
    }

    /// Moves the `i`-th value out as an engine [`Value`], preserving the
    /// lane type (an `INT` column stays `Value::I32`, like the row
    /// interpreter). Each dynamic value can be taken once; a second take
    /// yields `NULL`.
    pub(crate) fn take(&mut self, i: usize) -> Value {
        match self {
            BVal::I64(v) => Value::I64(v[i]),
            BVal::I32(v) => Value::I32(v[i]),
            BVal::F64(v) => Value::F64(v[i]),
            BVal::F32(v) => Value::F32(v[i]),
            BVal::Bool(v) => Value::Bool(v[i]),
            BVal::Values(v) => std::mem::replace(&mut v[i], Value::Null),
        }
    }

    /// Integral lanes widened to `i64` (only called on int-kind results).
    fn into_i64(self) -> Result<Vec<i64>> {
        match self {
            BVal::I64(v) => Ok(v),
            BVal::I32(v) => {
                let mut out = Vec::new();
                b::widen_i32(&v, &mut out);
                Ok(out)
            }
            other => Err(EngineError::Type(format!(
                "batch plan error: expected integral lanes, got {other:?}"
            ))),
        }
    }

    /// Lanes coerced to `f64` with the interpreter's `as_f64` semantics
    /// (`BIT` → 0/1).
    pub(crate) fn into_f64(self) -> Result<Vec<f64>> {
        let mut out = Vec::new();
        match self {
            BVal::F64(v) => return Ok(v),
            BVal::I64(v) => b::f64_from_i64(&v, &mut out),
            BVal::I32(v) => b::f64_from_i32(&v, &mut out),
            BVal::F32(v) => b::f64_from_f32(&v, &mut out),
            BVal::Bool(v) => b::f64_from_bool(&v, &mut out),
            BVal::Values(v) => return v.iter().map(Value::as_f64).collect(),
        }
        Ok(out)
    }

    /// Lanes as row-path truthiness (nonzero → true).
    fn into_truthy(self) -> Vec<bool> {
        let mut out = Vec::new();
        match self {
            BVal::Bool(v) => return v,
            BVal::I64(v) => b::truthy_i64(&v, &mut out),
            BVal::I32(v) => b::truthy_i32(&v, &mut out),
            BVal::F64(v) => b::truthy_f64(&v, &mut out),
            BVal::F32(v) => b::truthy_f32(&v, &mut out),
            BVal::Values(v) => return v.iter().map(Value::is_true).collect(),
        }
        out
    }

    /// Lanes as a strict DML predicate: anything but a boolean is the
    /// typed error of [`crate::exec::strict_bool`], raised at the first
    /// row that produced it.
    fn into_strict(self, kind: &str) -> Result<Vec<bool>> {
        match self {
            BVal::Bool(v) => Ok(v),
            BVal::Values(v) => v
                .into_iter()
                .map(|x| crate::exec::strict_bool(x, kind))
                .collect(),
            mut other => {
                if other.len() > 0 {
                    crate::exec::strict_bool(other.take(0), kind)?;
                }
                Ok(Vec::new())
            }
        }
    }
}

/// What evaluating a compiled expression reads: the batch, the plan's
/// column map (for the escape node's [`RowCtx`]), and the evaluation
/// environment (UDFs, hosting, variables, the worker's LOB reader).
pub(crate) struct Cx<'c, 'e> {
    pub schema: &'c Schema,
    pub cols: &'c [usize],
    pub batch: &'c Batch,
    pub env: &'c mut EvalEnv<'e>,
}

/// Evaluates a filter over the current selection, refining `sel` in place
/// (`scratch` is the swap buffer, reused across batches). `strict` names
/// the DML statement kind whose WHERE clause must be boolean; `None`
/// applies SELECT's truthiness.
pub(crate) fn apply_filter(
    f: &BExpr,
    cx: &mut Cx<'_, '_>,
    sel: &mut Vec<u32>,
    scratch: &mut Vec<u32>,
    strict: Option<&str>,
) -> Result<()> {
    let vals = eval(f, cx, sel)?;
    let flags = match strict {
        Some(kind) => vals.into_strict(kind)?,
        None => vals.into_truthy(),
    };
    b::refine_selection(&flags, sel, scratch);
    std::mem::swap(sel, scratch);
    Ok(())
}

/// Evaluates a compiled expression over the selected rows of a batch,
/// returning one dense value per selected row.
pub(crate) fn eval(e: &BExpr, cx: &mut Cx<'_, '_>, sel: &[u32]) -> Result<BVal> {
    match e {
        BExpr::Col { pos, .. } => match &cx.batch.cols[*pos] {
            ColVec::I64(src) => {
                let mut out = Vec::new();
                b::gather_i64(src, sel, &mut out);
                Ok(BVal::I64(out))
            }
            ColVec::I32(src) => {
                let mut out = Vec::new();
                b::gather_i32(src, sel, &mut out);
                Ok(BVal::I32(out))
            }
            ColVec::F64(src) => {
                let mut out = Vec::new();
                b::gather_f64(src, sel, &mut out);
                Ok(BVal::F64(out))
            }
            ColVec::F32(src) => {
                let mut out = Vec::new();
                b::gather_f32(src, sel, &mut out);
                Ok(BVal::F32(out))
            }
            ColVec::Bool(src) => {
                let mut out = Vec::new();
                b::gather_bool(src, sel, &mut out);
                Ok(BVal::Bool(out))
            }
            ColVec::Blob { .. } => Err(EngineError::Type(
                "batch plan error: blob column in scalar expression".into(),
            )),
        },
        BExpr::LitI64(x) => {
            let mut out = Vec::new();
            b::splat(*x, sel.len(), &mut out);
            Ok(BVal::I64(out))
        }
        BExpr::LitI32(x) => {
            let mut out = Vec::new();
            b::splat(*x, sel.len(), &mut out);
            Ok(BVal::I32(out))
        }
        BExpr::LitF64(x) => {
            let mut out = Vec::new();
            b::splat(*x, sel.len(), &mut out);
            Ok(BVal::F64(out))
        }
        BExpr::LitF32(x) => {
            let mut out = Vec::new();
            b::splat(*x, sel.len(), &mut out);
            Ok(BVal::F32(out))
        }
        BExpr::LitBool(x) => {
            let mut out = Vec::new();
            b::splat(*x, sel.len(), &mut out);
            Ok(BVal::Bool(out))
        }
        BExpr::Neg(inner) => match eval(inner, cx, sel)? {
            BVal::I64(v) => {
                let mut out = Vec::new();
                b::neg_i64(&v, &mut out);
                Ok(BVal::I64(out))
            }
            BVal::I32(v) => {
                let mut out = Vec::new();
                b::neg_i32(&v, &mut out);
                Ok(BVal::I32(out))
            }
            BVal::F64(v) => {
                let mut out = Vec::new();
                b::neg_f64(&v, &mut out);
                Ok(BVal::F64(out))
            }
            BVal::F32(v) => {
                let mut out = Vec::new();
                b::neg_f32(&v, &mut out);
                Ok(BVal::F32(out))
            }
            other => Err(EngineError::Type(format!(
                "batch plan error: negation of {other:?}"
            ))),
        },
        BExpr::Not(inner) => {
            let t = eval(inner, cx, sel)?.into_truthy();
            let mut out = Vec::new();
            b::not_bool(&t, &mut out);
            Ok(BVal::Bool(out))
        }
        BExpr::And(l, r) => {
            // Per-row short-circuit via selection splitting: the right
            // side sees only rows where the left side was truthy, so its
            // errors (and only its errors) match the row interpreter.
            let lt = eval(l, cx, sel)?.into_truthy();
            let mut rhs_sel = Vec::new();
            b::refine_selection(&lt, sel, &mut rhs_sel);
            let rt = eval(r, cx, &rhs_sel)?.into_truthy();
            let mut out = Vec::with_capacity(lt.len());
            let mut j = 0usize;
            for &t in lt.iter() {
                if t {
                    out.push(rt[j]);
                    j += 1;
                } else {
                    out.push(false);
                }
            }
            Ok(BVal::Bool(out))
        }
        BExpr::Or(l, r) => {
            let lt = eval(l, cx, sel)?.into_truthy();
            let mut not_lt = Vec::new();
            b::not_bool(&lt, &mut not_lt);
            let mut rhs_sel = Vec::new();
            b::refine_selection(&not_lt, sel, &mut rhs_sel);
            let rt = eval(r, cx, &rhs_sel)?.into_truthy();
            let mut out = Vec::with_capacity(lt.len());
            let mut j = 0usize;
            for &t in lt.iter() {
                if t {
                    out.push(true);
                } else {
                    out.push(rt[j]);
                    j += 1;
                }
            }
            Ok(BVal::Bool(out))
        }
        BExpr::Cmp { op, l, r } => {
            let a = eval(l, cx, sel)?.into_f64()?;
            let bv = eval(r, cx, sel)?.into_f64()?;
            let mut out = Vec::new();
            if !b::cmp_f64(*op, &a, &bv, &mut out) {
                return Err(EngineError::Type("NaN comparison".into()));
            }
            Ok(BVal::Bool(out))
        }
        BExpr::IntArith { op, l, r } => {
            let a = eval(l, cx, sel)?.into_i64()?;
            let bv = eval(r, cx, sel)?.into_i64()?;
            let mut out = Vec::new();
            if !b::arith_i64(*op, &a, &bv, &mut out) {
                return Err(EngineError::Type(match op {
                    ArithOp::Div => "integer division by zero".into(),
                    ArithOp::Mod => "modulo by zero".into(),
                    _ => unreachable!("only Div/Mod report zero divisors"),
                }));
            }
            Ok(BVal::I64(out))
        }
        BExpr::FloatArith { op, l, r } => {
            let a = eval(l, cx, sel)?.into_f64()?;
            let bv = eval(r, cx, sel)?.into_f64()?;
            let mut out = Vec::new();
            b::arith_f64(*op, &a, &bv, &mut out);
            Ok(BVal::F64(out))
        }
        BExpr::Row(e) => {
            let mut out = Vec::with_capacity(sel.len());
            for &r in sel {
                let row = RowCtx {
                    schema: cx.schema,
                    cols: cx.cols,
                    batch: cx.batch,
                    row: r as usize,
                };
                out.push(crate::expr::eval(e, Some(&row), cx.env)?);
            }
            Ok(BVal::Values(out))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlarray_core::batch::BytesVec;

    fn scalar_schema() -> Schema {
        Schema::new(&[
            ("id", ColType::I64),
            ("n", ColType::I32),
            ("x", ColType::F64),
            ("y", ColType::F32),
            ("v", ColType::Blob),
        ])
    }

    fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Bin {
            op,
            left: Box::new(l),
            right: Box::new(r),
        }
    }

    fn item(expr: Expr) -> SelectItem {
        SelectItem {
            expr,
            alias: None,
            assign: None,
        }
    }

    fn no_vars() -> HashMap<String, Value> {
        HashMap::new()
    }

    fn plan(items: &[SelectItem], where_clause: Option<&Expr>, has_aggregate: bool) -> BatchPlan {
        plan_select(
            &scalar_schema(),
            items,
            where_clause,
            &[],
            has_aggregate,
            &no_vars(),
        )
    }

    #[test]
    fn compiles_scalar_filter_and_projection() {
        // SELECT id, x * 2.0 FROM T WHERE n % 2 = 0 AND x > 1.5
        let wh = bin(
            BinOp::And,
            bin(
                BinOp::Eq,
                bin(BinOp::Mod, Expr::Col("n".into()), Expr::Lit(Value::I64(2))),
                Expr::Lit(Value::I64(0)),
            ),
            bin(BinOp::Gt, Expr::Col("x".into()), Expr::Lit(Value::F64(1.5))),
        );
        let items = [
            item(Expr::Col("id".into())),
            item(bin(
                BinOp::Mul,
                Expr::Col("x".into()),
                Expr::Lit(Value::F64(2.0)),
            )),
        ];
        let p = plan(&items, Some(&wh), false);
        // Columns registered in first-use order: n (filter), x, id.
        assert_eq!(p.cols, vec![1, 2, 0]);
        assert!(!p.leaf_aligned);
        assert!(p.filter.is_some());
        assert_eq!(p.items.len(), 2);
    }

    fn is_row(e: &BExpr) -> bool {
        matches!(e, BExpr::Row(_))
    }

    #[test]
    fn escape_cases() {
        // UDF call → one escape node, reading its argument's column.
        let udf = Expr::Func {
            name: "dbo.F".into(),
            args: vec![Expr::Col("x".into())],
        };
        let p = plan(&[item(udf.clone())], None, false);
        assert!(matches!(&p.items[0], BItem::Proj(e) if is_row(e)));
        assert_eq!(p.cols, vec![2]);
        assert!(p.leaf_aligned, "escape nodes keep LOB reads per leaf");
        // A UDF under AND escapes the whole filter; the kernel attempt's
        // columns are re-registered in interpreter order.
        let wh = bin(
            BinOp::And,
            bin(BinOp::Gt, Expr::Col("n".into()), Expr::Lit(Value::I64(0))),
            udf,
        );
        let p = plan(&[item(Expr::Col("id".into()))], Some(&wh), false);
        assert!(p.filter.as_ref().is_some_and(is_row));
        assert_eq!(p.cols, vec![1, 2, 0]);
        // GROUP BY compiles its keys like any other expression.
        let p = plan_select(
            &scalar_schema(),
            &[item(Expr::Agg {
                func: AggFunc::CountStar,
                arg: None,
            })],
            None,
            &[Expr::Col("n".into())],
            true,
            &no_vars(),
        );
        assert!(matches!(p.group_by[..], [BExpr::Col { pos: 0, .. }]));
        assert!(!p.leaf_aligned);
        // String literal comparison, missing session variable, NULL
        // literal, blob column inside an expression, `-(bool)`: escape.
        for wh in [
            bin(
                BinOp::Eq,
                Expr::Col("id".into()),
                Expr::Lit(Value::Str("x".into())),
            ),
            bin(BinOp::Gt, Expr::Col("x".into()), Expr::Var("gone".into())),
            bin(BinOp::Gt, Expr::Col("x".into()), Expr::Lit(Value::Null)),
            bin(BinOp::Eq, Expr::Col("v".into()), Expr::Col("v".into())),
            Expr::Neg(Box::new(bin(
                BinOp::Gt,
                Expr::Col("x".into()),
                Expr::Lit(Value::I64(0)),
            ))),
        ] {
            let p = plan(&[item(Expr::Col("id".into()))], Some(&wh), false);
            assert!(p.filter.as_ref().is_some_and(is_row), "{wh:?}");
        }
        // SUM over a blob column and UDA arguments escape per argument.
        let p = plan(
            &[
                item(Expr::Agg {
                    func: AggFunc::Sum,
                    arg: Some(Box::new(Expr::Col("v".into()))),
                }),
                item(Expr::UdaCall {
                    name: "dbo.U".into(),
                    args: vec![Expr::Col("v".into()), Expr::Col("n".into())],
                }),
            ],
            None,
            true,
        );
        assert!(matches!(
            &p.items[0],
            BItem::Agg { arg: Some(BAggArg::Scalar(e)), .. } if is_row(e)
        ));
        assert!(matches!(
            &p.items[1],
            BItem::Uda(args) if is_row(&args[0]) && !is_row(&args[1])
        ));
    }

    #[test]
    fn blob_projection_sets_leaf_aligned() {
        let p = plan(&[item(Expr::Col("v".into()))], None, false);
        assert!(p.leaf_aligned);
        assert!(matches!(p.items[0], BItem::ProjBlob(0)));
        // COUNT(v) needs null-ness only: the blob is not even decoded.
        let p = plan(
            &[item(Expr::Agg {
                func: AggFunc::Count,
                arg: Some(Box::new(Expr::Col("v".into()))),
            })],
            None,
            true,
        );
        assert!(p.cols.is_empty() && !p.leaf_aligned);
        assert!(matches!(
            p.items[0],
            BItem::Agg {
                func: AggFunc::Count,
                arg: Some(BAggArg::Blob),
            }
        ));
    }

    fn test_batch() -> Batch {
        // Columns (batch order): I64 [1,2,3,4], F64 [0.5,1.5,-2.0,0.0]
        Batch {
            keys: vec![10, 11, 12, 13],
            cols: vec![
                ColVec::I64(vec![1, 2, 3, 4]),
                ColVec::F64(vec![0.5, 1.5, -2.0, 0.0]),
            ],
        }
    }

    fn all(n: usize) -> Vec<u32> {
        (0..n as u32).collect()
    }

    /// Runs `f` with a context over `batch`, whose columns are schema
    /// columns `id` and `x`, and an empty environment.
    fn with_cx<T>(batch: &Batch, f: impl FnOnce(&mut Cx<'_, '_>) -> T) -> T {
        let schema = scalar_schema();
        let udfs = crate::udf::UdfRegistry::new();
        let mut hosting = crate::hosting::HostingModel::free();
        let vars = no_vars();
        let mut env = EvalEnv {
            udfs: &udfs,
            hosting: &mut hosting,
            vars: &vars,
            lobs: None,
        };
        f(&mut Cx {
            schema: &schema,
            cols: &[0, 2],
            batch,
            env: &mut env,
        })
    }

    fn eval_k(e: &BExpr, batch: &Batch, sel: &[u32]) -> Result<BVal> {
        with_cx(batch, |cx| eval(e, cx, sel))
    }

    #[test]
    fn eval_matches_row_semantics() {
        let batch = test_batch();
        let sel = all(4);
        let col0 = BExpr::Col {
            pos: 0,
            kind: VKind::I64,
        };
        let col1 = BExpr::Col {
            pos: 1,
            kind: VKind::F64,
        };
        // Int arithmetic stays integral and wraps.
        let e = BExpr::IntArith {
            op: ArithOp::Add,
            l: Box::new(col0.clone()),
            r: Box::new(BExpr::LitI64(i64::MAX)),
        };
        match eval_k(&e, &batch, &sel).unwrap() {
            BVal::I64(v) => assert_eq!(v, vec![i64::MIN, i64::MIN + 1, i64::MIN + 2, i64::MIN + 3]),
            other => panic!("expected I64, got {other:?}"),
        }
        // Mixed arithmetic is f64.
        let e = BExpr::FloatArith {
            op: ArithOp::Mul,
            l: Box::new(col0.clone()),
            r: Box::new(col1.clone()),
        };
        match eval_k(&e, &batch, &sel).unwrap() {
            BVal::F64(v) => assert_eq!(v, vec![0.5, 3.0, -6.0, 0.0]),
            other => panic!("expected F64, got {other:?}"),
        }
        // Comparison over a sub-selection gathers the right lanes.
        let e = BExpr::Cmp {
            op: CmpOp::Gt,
            l: Box::new(col1.clone()),
            r: Box::new(BExpr::LitF64(0.0)),
        };
        match eval_k(&e, &batch, &[1, 3]).unwrap() {
            BVal::Bool(v) => assert_eq!(v, vec![true, false]),
            other => panic!("expected Bool, got {other:?}"),
        }
        // Division by zero raises the interpreter's message.
        let e = BExpr::IntArith {
            op: ArithOp::Div,
            l: Box::new(col0.clone()),
            r: Box::new(BExpr::LitI64(0)),
        };
        let err = eval_k(&e, &batch, &sel).unwrap_err();
        assert!(err.to_string().contains("integer division by zero"));
    }

    #[test]
    fn and_or_short_circuit_skips_rhs_rows() {
        let batch = test_batch();
        let sel = all(4);
        let col0 = BExpr::Col {
            pos: 0,
            kind: VKind::I64,
        };
        // (c0 > 2) AND (1 / (c0 - 2) > 0): the rhs divides by zero at
        // lane 1 (value 2), but that lane fails the lhs — the interpreter
        // never evaluates it, so neither must the batch path.
        let lhs = BExpr::Cmp {
            op: CmpOp::Gt,
            l: Box::new(col0.clone()),
            r: Box::new(BExpr::LitI64(2)),
        };
        let rhs = BExpr::Cmp {
            op: CmpOp::Gt,
            l: Box::new(BExpr::IntArith {
                op: ArithOp::Div,
                l: Box::new(BExpr::LitI64(1)),
                r: Box::new(BExpr::IntArith {
                    op: ArithOp::Sub,
                    l: Box::new(col0.clone()),
                    r: Box::new(BExpr::LitI64(2)),
                }),
            }),
            r: Box::new(BExpr::LitI64(0)),
        };
        // Lanes passing lhs: values 3, 4 → rhs divisors 1, 2 → no error,
        // and 1/1 > 0 but 1/2 = 0 is not.
        let e = BExpr::And(Box::new(lhs.clone()), Box::new(rhs.clone()));
        match eval_k(&e, &batch, &sel).unwrap() {
            BVal::Bool(v) => assert_eq!(v, vec![false, false, true, false]),
            other => panic!("expected Bool, got {other:?}"),
        }
        // Flip to OR: now the rhs runs on lanes 1, 2 (divisors -1, 0) and
        // the zero divisor *is* evaluated → error, same as the interpreter.
        let e = BExpr::Or(Box::new(lhs), Box::new(rhs));
        assert!(eval_k(&e, &batch, &sel).is_err());
    }

    #[test]
    fn filter_refines_selection() {
        let batch = test_batch();
        let mut sel = all(4);
        let mut scratch = Vec::new();
        // x > 0.0 keeps lanes 0, 1.
        let f = BExpr::Cmp {
            op: CmpOp::Gt,
            l: Box::new(BExpr::Col {
                pos: 1,
                kind: VKind::F64,
            }),
            r: Box::new(BExpr::LitF64(0.0)),
        };
        with_cx(&batch, |cx| {
            apply_filter(&f, cx, &mut sel, &mut scratch, None)
        })
        .unwrap();
        assert_eq!(sel, vec![0, 1]);
        // A second filter composes over the refined selection.
        let f2 = BExpr::Cmp {
            op: CmpOp::Ge,
            l: Box::new(BExpr::Col {
                pos: 0,
                kind: VKind::I64,
            }),
            r: Box::new(BExpr::LitI64(2)),
        };
        with_cx(&batch, |cx| {
            apply_filter(&f2, cx, &mut sel, &mut scratch, None)
        })
        .unwrap();
        assert_eq!(sel, vec![1]);
    }

    #[test]
    fn take_preserves_lane_types() {
        assert_eq!(BVal::I32(vec![7]).take(0), Value::I32(7));
        assert_eq!(BVal::F32(vec![1.5]).take(0), Value::F32(1.5));
        assert_eq!(BVal::Bool(vec![true]).take(0), Value::Bool(true));
        let mut v = BVal::Values(vec![Value::Str("s".into())]);
        assert_eq!(v.take(0), Value::Str("s".into()));
        assert_eq!(v.take(0), Value::Null, "dynamic values move out once");
    }

    #[test]
    fn escape_node_reads_lanes_of_selected_rows() {
        let batch = test_batch();
        // id + x, evaluated by the interpreter over rows 1 and 2 only.
        let e = BExpr::Row(bin(
            BinOp::Add,
            Expr::Col("id".into()),
            Expr::Col("x".into()),
        ));
        match eval_k(&e, &batch, &[1, 2]).unwrap() {
            BVal::Values(v) => assert_eq!(v, vec![Value::F64(3.5), Value::F64(1.0)]),
            other => panic!("expected Values, got {other:?}"),
        }
        // A column the plan did not decode is an error, not a guess.
        let e = BExpr::Row(Expr::Col("n".into()));
        assert!(eval_k(&e, &batch, &[0]).is_err());
    }

    #[test]
    fn strict_filters_demand_booleans() {
        let batch = test_batch();
        let mut scratch = Vec::new();
        let col0 = BExpr::Col {
            pos: 0,
            kind: VKind::I64,
        };
        let mut sel = all(4);
        let err = with_cx(&batch, |cx| {
            apply_filter(&col0, cx, &mut sel, &mut scratch, Some("DELETE"))
        })
        .unwrap_err();
        assert!(err
            .to_string()
            .contains("must evaluate to a boolean, got BIGINT"));
        // Truthiness under SELECT semantics; an empty selection never errs.
        with_cx(&batch, |cx| {
            apply_filter(&col0, cx, &mut sel, &mut scratch, None)
        })
        .unwrap();
        assert_eq!(sel, all(4));
        sel.clear();
        with_cx(&batch, |cx| {
            apply_filter(&col0, cx, &mut sel, &mut scratch, Some("DELETE"))
        })
        .unwrap();
    }

    #[test]
    fn blob_columns_are_rejected_in_scalar_eval() {
        let batch = Batch {
            keys: vec![1],
            cols: vec![ColVec::Blob {
                bytes: {
                    let mut b = BytesVec::new();
                    b.push(b"xyz");
                    b
                },
                lob: vec![None],
            }],
        };
        let e = BExpr::Col {
            pos: 0,
            kind: VKind::I64,
        };
        assert!(eval_k(&e, &batch, &[0]).is_err());
    }
}
