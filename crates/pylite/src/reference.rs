//! The tree-walking reference evaluator, compiled only into test builds:
//! pylite's unit tests, and the workspace's integration tests through the
//! `reference` feature, which only a dev-dependency turns on.
//!
//! It walks the resolved IR ([`crate::resolved`]) one statement and one
//! expression node at a time, and it is the semantic reference the
//! bytecode VM ([`crate::bytecode`]) is pinned to: results, stdout,
//! exceptions, meter ticks, simulated allocations, steps, observed
//! accesses and inline-cache sites must match exactly. A test selects it
//! with [`Interpreter::reference`]; everything below statements and
//! expressions (imports, bindings, definitions, operators, attribute
//! lookup and calls) is shared with the VM.

use crate::ast::BoolOp;
use crate::interp::{unary_op, Env, Flow, Interpreter};
use crate::registry::Registry;
use crate::resolved::{RExpr, RStmt};
use crate::value::{py_str, ExcKind, PyErr, Value};
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;

impl Interpreter {
    /// A fresh interpreter that runs on the reference evaluator.
    pub fn reference(registry: Registry) -> Self {
        let mut it = Interpreter::new(registry);
        it.tree_walk = true;
        it
    }

    pub(crate) fn exec_block(&mut self, body: &[RStmt], env: &mut Env) -> Result<(), PyErr> {
        for stmt in body {
            match self.exec_stmt(stmt, env)? {
                Flow::Normal => {}
                _ => {
                    return Err(PyErr::new(
                        ExcKind::RuntimeError,
                        "return/break/continue outside of function or loop",
                    ))
                }
            }
        }
        Ok(())
    }

    pub(crate) fn exec_suite(&mut self, body: &[RStmt], env: &mut Env) -> Result<Flow, PyErr> {
        for stmt in body {
            match self.exec_stmt(stmt, env)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, stmt: &RStmt, env: &mut Env) -> Result<Flow, PyErr> {
        self.meter.steps += 1;
        if self.meter.steps > self.step_limit {
            return Err(PyErr::new(
                ExcKind::ResourceExhausted,
                format!("step limit of {} exceeded", self.step_limit),
            ));
        }
        self.meter.tick(self.cost.stmt_ns);
        match stmt {
            RStmt::Expr(e) => {
                self.eval(e, env)?;
                Ok(Flow::Normal)
            }
            RStmt::Assign { targets, value } => {
                let v = self.eval(value, env)?;
                if let [target] = targets.as_slice() {
                    self.assign_target(target, v, env)?;
                } else {
                    for t in targets {
                        self.assign_target(t, v.clone(), env)?;
                    }
                }
                Ok(Flow::Normal)
            }
            RStmt::AugAssign { target, op, value } => {
                let current = self.eval(target, env)?;
                let rhs = self.eval(value, env)?;
                let combined = self.binary_op(*op, current, rhs)?;
                self.assign_target(target, combined, env)?;
                Ok(Flow::Normal)
            }
            RStmt::If { branches, orelse } => {
                for (test, body) in branches {
                    if self.eval(test, env)?.truthy() {
                        return self.exec_suite(body, env);
                    }
                }
                self.exec_suite(orelse, env)
            }
            RStmt::While { test, body } => {
                while self.eval(test, env)?.truthy() {
                    match self.exec_suite(body, env)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                    self.meter.steps += 1;
                    if self.meter.steps > self.step_limit {
                        return Err(PyErr::new(
                            ExcKind::ResourceExhausted,
                            "step limit exceeded in while loop",
                        ));
                    }
                }
                Ok(Flow::Normal)
            }
            RStmt::For {
                targets,
                iter,
                body,
            } => {
                let iterable = self.eval(iter, env)?;
                let items = self.iter_values(&iterable)?;
                for item in items {
                    if let [target] = targets.as_slice() {
                        self.bind_name(*target, item, env);
                    } else {
                        let parts = self.iter_values(&item)?;
                        if parts.len() != targets.len() {
                            return Err(PyErr::new(
                                ExcKind::ValueError,
                                format!(
                                    "cannot unpack {} values into {} loop targets",
                                    parts.len(),
                                    targets.len()
                                ),
                            ));
                        }
                        for (t, v) in targets.iter().zip(parts) {
                            self.bind_name(*t, v, env);
                        }
                    }
                    match self.exec_suite(body, env)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        r @ Flow::Return(_) => return Ok(r),
                    }
                }
                Ok(Flow::Normal)
            }
            RStmt::FuncDef(f) => {
                let mut defaults = Vec::with_capacity(f.params.len());
                for p in &f.params {
                    defaults.push(match &p.default {
                        Some(d) => {
                            let mut env2 = Env {
                                globals: env.globals.clone(),
                                locals: env.locals.clone(),
                                global_decls: HashSet::default(),
                                module: env.module.clone(),
                            };
                            Some(self.eval(d, &mut env2)?)
                        }
                        None => None,
                    });
                }
                self.define_function(f, defaults, env);
                Ok(Flow::Normal)
            }
            RStmt::ClassDef(c) => {
                self.define_class(c, env, |it, class_env| it.exec_block(&c.body, class_env))?;
                Ok(Flow::Normal)
            }
            RStmt::Return(e) => {
                let v = match e {
                    Some(e) => self.eval(e, env)?,
                    None => Value::None,
                };
                Ok(Flow::Return(v))
            }
            RStmt::Pass => Ok(Flow::Normal),
            RStmt::Break => Ok(Flow::Break),
            RStmt::Continue => Ok(Flow::Continue),
            RStmt::Import { items } => {
                self.exec_import(items, env)?;
                Ok(Flow::Normal)
            }
            RStmt::FromImport { module, names } => {
                self.exec_from_import(module, names, env)?;
                Ok(Flow::Normal)
            }
            RStmt::Raise(e) => {
                let err = match e {
                    None => PyErr::new(ExcKind::RuntimeError, "re-raise outside except"),
                    Some(expr) => {
                        let v = self.eval(expr, env)?;
                        self.value_to_exception(v)?
                    }
                };
                Err(err)
            }
            RStmt::Try {
                body,
                handlers,
                orelse,
                finalbody,
            } => {
                let outcome = self.exec_suite(body, env);
                let result = match outcome {
                    Ok(flow) => {
                        if matches!(flow, Flow::Normal) && !orelse.is_empty() {
                            self.exec_suite(orelse, env)
                        } else {
                            Ok(flow)
                        }
                    }
                    Err(err) => {
                        // ResourceExhausted is not catchable: it models the
                        // platform killing the function.
                        if matches!(err.kind, ExcKind::ResourceExhausted) {
                            Err(err)
                        } else {
                            let mut handled = None;
                            for h in handlers {
                                let matches = match &h.exc_type {
                                    None => true,
                                    Some(class) => err.matches_handler(class),
                                };
                                if matches {
                                    if let Some(name) = h.name {
                                        self.bind_name(
                                            name,
                                            Value::ExcValue(Rc::new(err.clone())),
                                            env,
                                        );
                                    }
                                    handled = Some(self.exec_suite(&h.body, env));
                                    break;
                                }
                            }
                            handled.unwrap_or(Err(err))
                        }
                    }
                };
                if !finalbody.is_empty() {
                    // `finally` runs regardless; its own error wins.
                    match self.exec_suite(finalbody, env)? {
                        Flow::Normal => {}
                        flow => return Ok(flow),
                    }
                }
                result
            }
            RStmt::Global(names) => {
                for n in names {
                    env.global_decls.insert(*n);
                }
                Ok(Flow::Normal)
            }
            RStmt::Assert { test, msg } => {
                if !self.eval(test, env)?.truthy() {
                    let message = match msg {
                        Some(m) => py_str(&self.eval(m, env)?),
                        None => String::new(),
                    };
                    return Err(PyErr::new(ExcKind::AssertionError, message));
                }
                Ok(Flow::Normal)
            }
            RStmt::Del(target) => {
                match target {
                    RExpr::Name(n) => self.del_name(*n, env)?,
                    RExpr::Attribute { value, attr, .. } => {
                        let obj = self.eval(value, env)?;
                        self.del_attr(&obj, *attr)?;
                    }
                    RExpr::Subscript { value, index } => {
                        let obj = self.eval(value, env)?;
                        let idx = self.eval(index, env)?;
                        self.del_item(&obj, &idx)?;
                    }
                    _ => return Err(PyErr::type_error("unsupported del target")),
                }
                Ok(Flow::Normal)
            }
        }
    }

    fn assign_target(&mut self, target: &RExpr, value: Value, env: &mut Env) -> Result<(), PyErr> {
        match target {
            RExpr::Name(n) => {
                self.bind_name(*n, value, env);
                Ok(())
            }
            RExpr::Attribute {
                value: obj, attr, ..
            } => {
                let obj = self.eval(obj, env)?;
                self.set_attr(&obj, *attr, value)
            }
            RExpr::Subscript { value: obj, index } => {
                let obj = self.eval(obj, env)?;
                let idx = self.eval(index, env)?;
                self.set_item(&obj, idx, value)
            }
            RExpr::Tuple(targets) | RExpr::List(targets) => {
                let items = self.iter_values(&value)?;
                if items.len() != targets.len() {
                    return Err(PyErr::new(
                        ExcKind::ValueError,
                        format!(
                            "cannot unpack {} values into {} targets",
                            items.len(),
                            targets.len()
                        ),
                    ));
                }
                for (t, v) in targets.iter().zip(items) {
                    self.assign_target(t, v, env)?;
                }
                Ok(())
            }
            _ => Err(PyErr::type_error("invalid assignment target")),
        }
    }

    fn eval(&mut self, e: &RExpr, env: &mut Env) -> Result<Value, PyErr> {
        self.meter.tick(self.cost.expr_node_ns);
        match e {
            RExpr::None => Ok(Value::None),
            RExpr::True => Ok(Value::Bool(true)),
            RExpr::False => Ok(Value::Bool(false)),
            RExpr::Int(v) => Ok(Value::Int(*v)),
            RExpr::Float(v) => Ok(Value::Float(*v)),
            RExpr::Str(s) => {
                self.meter.alloc(self.cost.str_char_bytes * s.len() as u64);
                Ok(Value::Str(Arc::clone(s)))
            }
            RExpr::Name(n) => self.lookup_name(*n, env),
            RExpr::List(items) => {
                let mut out = Vec::with_capacity(items.len());
                for i in items {
                    out.push(self.eval(i, env)?);
                }
                self.meter
                    .alloc(self.cost.element_bytes * items.len() as u64);
                Ok(Value::list(out))
            }
            RExpr::Tuple(items) => {
                let mut out = Vec::with_capacity(items.len());
                for i in items {
                    out.push(self.eval(i, env)?);
                }
                self.meter
                    .alloc(self.cost.element_bytes * items.len() as u64);
                Ok(Value::tuple(out))
            }
            RExpr::Dict(pairs) => {
                let mut out = Vec::with_capacity(pairs.len());
                for (k, v) in pairs {
                    out.push((self.eval(k, env)?, self.eval(v, env)?));
                }
                self.meter
                    .alloc(self.cost.element_bytes * 2 * pairs.len() as u64);
                Ok(Value::dict(out))
            }
            RExpr::Attribute { value, attr, site } => {
                let obj = self.eval(value, env)?;
                self.attr_lookup(&obj, *attr, Some(*site))
            }
            RExpr::Subscript { value, index } => {
                let obj = self.eval(value, env)?;
                let idx = self.eval(index, env)?;
                self.get_item(&obj, &idx)
            }
            RExpr::Call { func, args, kwargs } => {
                let f = self.eval(func, env)?;
                let mut argv = Vec::with_capacity(args.len());
                for a in args {
                    argv.push(self.eval(a, env)?);
                }
                let mut kwv = Vec::with_capacity(kwargs.len());
                for (k, v) in kwargs {
                    kwv.push((*k, self.eval(v, env)?));
                }
                self.call_value(f, argv, kwv)
            }
            RExpr::Unary { op, operand } => {
                let v = self.eval(operand, env)?;
                unary_op(*op, v)
            }
            RExpr::Binary { left, op, right } => {
                let l = self.eval(left, env)?;
                let r = self.eval(right, env)?;
                self.binary_op(*op, l, r)
            }
            RExpr::Bool { op, values } => match op {
                BoolOp::And => {
                    let mut last = Value::Bool(true);
                    for v in values {
                        last = self.eval(v, env)?;
                        if !last.truthy() {
                            return Ok(last);
                        }
                    }
                    Ok(last)
                }
                BoolOp::Or => {
                    let mut last = Value::Bool(false);
                    for v in values {
                        last = self.eval(v, env)?;
                        if last.truthy() {
                            return Ok(last);
                        }
                    }
                    Ok(last)
                }
            },
            RExpr::Compare { left, ops } => {
                let mut lhs = self.eval(left, env)?;
                for (op, rhs_expr) in ops {
                    let rhs = self.eval(rhs_expr, env)?;
                    if !self.compare(*op, &lhs, &rhs)? {
                        return Ok(Value::Bool(false));
                    }
                    lhs = rhs;
                }
                Ok(Value::Bool(true))
            }
            RExpr::Conditional { test, body, orelse } => {
                if self.eval(test, env)?.truthy() {
                    self.eval(body, env)
                } else {
                    self.eval(orelse, env)
                }
            }
            RExpr::ListComp {
                element,
                targets,
                iter,
                cond,
            } => {
                let iterable = self.eval(iter, env)?;
                let items = self.iter_values(&iterable)?;
                let mut out = Vec::with_capacity(items.len());
                for item in items {
                    self.meter.steps += 1;
                    if self.meter.steps > self.step_limit {
                        return Err(PyErr::new(
                            ExcKind::ResourceExhausted,
                            "step limit exceeded in comprehension",
                        ));
                    }
                    if let [target] = targets.as_slice() {
                        self.bind_name(*target, item, env);
                    } else {
                        let parts = self.iter_values(&item)?;
                        if parts.len() != targets.len() {
                            return Err(PyErr::new(
                                ExcKind::ValueError,
                                "comprehension target unpack mismatch",
                            ));
                        }
                        for (t, v) in targets.iter().zip(parts) {
                            self.bind_name(*t, v, env);
                        }
                    }
                    if let Some(c) = cond {
                        if !self.eval(c, env)?.truthy() {
                            continue;
                        }
                    }
                    out.push(self.eval(element, env)?);
                }
                self.meter.alloc(self.cost.element_bytes * out.len() as u64);
                Ok(Value::list(out))
            }
            RExpr::Slice { value, start, stop } => {
                let v = self.eval(value, env)?;
                let start = match start {
                    Some(e) => Some(self.eval(e, env)?),
                    None => None,
                };
                let stop = match stop {
                    Some(e) => Some(self.eval(e, env)?),
                    None => None,
                };
                self.slice_value(&v, start.as_ref(), stop.as_ref())
            }
        }
    }
}
