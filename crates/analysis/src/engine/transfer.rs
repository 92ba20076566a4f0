//! The transfer functions: one shard's walk over its resolved IR.
//!
//! The walker runs in two modes sharing one traversal:
//!
//! * **state mode** (`out == None`) — joins origin sets into the shard's
//!   scopes, function returns and container sites, activates units, and
//!   buffers cross-shard [`Message`]s. It records *no* analysis outputs.
//! * **collect mode** (`out == Some`) — a single read-only pass over the
//!   converged state that records every output (accessed sets, lints,
//!   call-graph edges, imports). Because every transfer is monotone, the
//!   outputs are a pure function of the fixpoint, which is what makes
//!   per-shard output summaries cacheable across incremental runs.
//!
//! Cross-shard reads go through the frozen [`RoundView`] snapshots and are
//! recorded key by key in the reader's [`ReadSet`]s; cross-shard writes
//! become messages. All intra-shard effects are plain Gauss-Seidel joins.

use super::merge::ShardOutput;
use super::worklist::{
    FuncInfo, FuncPub, MapSite, Message, Published, ReadSet, RoundView, Scope, Shard, UnitRef,
    WalkResult,
};
use crate::callgraph::CgNode;
use crate::lints::{Lint, LintKind, Severity};
use crate::origin::{join_into, FuncKey, Origin, OriginSet, ShardName, SiteKey};
use pylite::resolved::{RClassDef, RExpr, RFromName, RStmt};
use pylite::Symbol;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Run one shard to a *local* fixpoint against the round's frozen
/// snapshots: re-walk its active units until nothing owned by the shard
/// changes. Cross-shard effects are returned for the barrier.
pub(crate) fn walk_round(shard: &mut Shard, view: &RoundView<'_>) -> WalkResult {
    let mut result = WalkResult::default();
    loop {
        let mut w = Walker {
            view,
            shard,
            out: None,
            msgs: Vec::new(),
            changed: false,
            pub_changed: false,
            str_env: BTreeMap::new(),
        };
        w.walk_units();
        let changed = w.changed;
        result.pub_changed |= w.pub_changed;
        let msgs = w.msgs;
        result.msgs.extend(msgs);
        if !changed {
            break;
        }
    }
    // The first walk always publishes: even a fixpoint with no origin-set
    // growth (e.g. a module binding only literals) must expose its top-level
    // names — pre-bound to empty sets — to star-import readers.
    if result.pub_changed || shard.published.version == 0 {
        result.pub_changed = true;
        shard.publish();
    }
    result
}

/// The read-only output pass over a converged shard.
pub(crate) fn collect_shard(shard: &mut Shard, view: &RoundView<'_>) -> ShardOutput {
    let mut out = ShardOutput::default();
    let mut w = Walker {
        view,
        shard,
        out: Some(&mut out),
        msgs: Vec::new(),
        changed: false,
        pub_changed: false,
        str_env: BTreeMap::new(),
    };
    w.walk_units();
    debug_assert!(!w.changed, "collect pass must not change state");
    // Function/body inventory (independent of the statement walk).
    for f in shard.funcs.values() {
        let qual = view.interner.resolve(f.qual);
        if f.active {
            out.reached.insert(shard.func_node(&qual).to_string());
        }
        if shard.is_app() {
            out.app_funcs.insert(qual.to_string());
        }
    }
    if let (Some(name), true) = (&shard.name_str, shard.active) {
        let keys: BTreeSet<String> = shard
            .scopes
            .first()
            .map(|s| {
                s.env
                    .keys()
                    .map(|k| view.interner.resolve(*k).to_string())
                    .collect()
            })
            .unwrap_or_default();
        out.module_bindings = Some((name.clone(), keys));
    }
    out
}

/// Per-unit walk context.
struct Ctx {
    /// Current scope index in the shard.
    scope: usize,
    /// The unit's function qualname (`None` = top level).
    unit: Option<Symbol>,
    /// Qualified-name prefix for nested definitions.
    qual: String,
    /// Container-literal encounter counter (deterministic per walk).
    counter: u32,
    /// Whether this unit runs at load time (top level).
    is_top: bool,
    /// Call-graph node of this unit (collect mode).
    node: CgNode,
    /// The unit's full body, for the branch-aware rebind flow scan
    /// (collect mode only; cheap `Arc` clone of the walked body).
    body: ProgramBody,
}

impl Ctx {
    fn next_site(&mut self, shard: &Shard) -> SiteKey {
        let site = SiteKey {
            shard: shard.name,
            unit: self.unit,
            n: self.counter,
        };
        self.counter += 1;
        site
    }
}

pub(crate) struct Walker<'a, 'b> {
    pub view: &'a RoundView<'b>,
    pub shard: &'a mut Shard,
    pub out: Option<&'a mut ShardOutput>,
    pub msgs: Vec<Message>,
    pub changed: bool,
    pub pub_changed: bool,
    /// Collect-mode only: the current unit's string-value environment.
    str_env: BTreeMap<Symbol, StrVal>,
}

impl Walker<'_, '_> {
    fn walk_units(&mut self) {
        let mut i = 0;
        while i < self.shard.units.len() {
            let unit = self.shard.units[i];
            self.walk_unit(unit);
            i += 1;
        }
    }

    fn walk_unit(&mut self, unit: UnitRef) {
        let (body, mut ctx) = match unit {
            UnitRef::Top => {
                let Some(program) = self.shard.program.clone() else {
                    return;
                };
                let node = match &self.shard.name_str {
                    None => CgNode::AppTop,
                    Some(m) => CgNode::ModuleTop(m.clone()),
                };
                let pb = ProgramBody::Program(program);
                (
                    pb.clone(),
                    Ctx {
                        scope: 0,
                        unit: None,
                        qual: String::new(),
                        counter: 0,
                        is_top: true,
                        node,
                        body: pb,
                    },
                )
            }
            UnitRef::Func(key) => {
                let f = &self.shard.funcs[&key];
                let qual = self.view.interner.resolve(f.qual).to_string();
                let node = self.shard.func_node(&qual);
                let scope = f.scope;
                let pb = ProgramBody::Func(Arc::clone(&f.body));
                (
                    pb.clone(),
                    Ctx {
                        scope,
                        unit: Some(key.qual),
                        qual,
                        counter: 0,
                        is_top: false,
                        node,
                        body: pb,
                    },
                )
            }
        };
        if self.is_collect() {
            // Per-unit string-value environment: a sound flow-insensitive
            // over-approximation of the string literals each local name can
            // hold, used to bound non-literal getattr attribute names.
            self.str_env = build_str_env(body.stmts());
        }
        for stmt in body.stmts() {
            self.walk_stmt(&mut ctx, stmt);
        }
    }

    // -- infrastructure ----------------------------------------------------

    fn is_collect(&self) -> bool {
        self.out.is_some()
    }

    fn bind(&mut self, scope: usize, name: Symbol, set: &OriginSet) {
        if self.is_collect() {
            return;
        }
        let slot = self.shard.scopes[scope].env.entry(name).or_default();
        if join_into(slot, set) {
            self.changed = true;
            if scope == 0 {
                self.pub_changed = true;
            }
        }
    }

    fn send(&mut self, msg: Message) {
        if self.is_collect() {
            return;
        }
        if self.shard.sent.insert(msg.clone()) {
            self.msgs.push(msg);
        }
    }

    fn lint(&mut self, severity: Severity, kind: LintKind) {
        if let Some(out) = self.out.as_deref_mut() {
            out.lints.insert(Lint { severity, kind });
        }
    }

    fn edge(&mut self, from: CgNode, to: CgNode) {
        if let Some(out) = self.out.as_deref_mut() {
            out.edges.insert((from, to));
        }
    }

    fn record_access(&mut self, ctx: &Ctx, module: &str, attr: &str) {
        let is_app = self.shard.is_app();
        let Some(out) = self.out.as_deref_mut() else {
            return;
        };
        out.accessed
            .entry(module.to_owned())
            .or_default()
            .insert(attr.to_owned());
        if is_app {
            out.used_by_app.insert(module.to_owned());
        }
        if ctx.is_top {
            out.load_time
                .entry(module.to_owned())
                .or_default()
                .insert(attr.to_owned());
        }
    }

    /// Registry existence probe, recorded for incremental invalidation.
    fn probe_contains(&mut self, name: &str) -> bool {
        if let Some(&v) = self.shard.probes.get(name) {
            return v;
        }
        let v = self.view.registry.contains(name);
        self.shard.probes.insert(name.to_owned(), v);
        v
    }

    /// Whether `m` is an analyzable registry module. Deliberately *static*
    /// (independent of whether `m` was imported yet): the decision between
    /// reading `m`'s environment and synthesizing an opaque `Attr` atom
    /// must be monotone for incremental reuse to be exact (DESIGN.md §9).
    fn analyzed(&mut self, m: &str) -> bool {
        if !self.view.interprocedural {
            return false;
        }
        if let Some(&v) = self.shard.analyzed_probes.get(m) {
            return v;
        }
        let v = self.view.registry.contains(m) && self.view.registry.resolve_module(m).is_ok();
        self.shard.analyzed_probes.insert(m.to_owned(), v);
        v
    }

    /// The read set this shard keeps for `dep` (created on first read).
    fn reads_of(&mut self, dep: ShardName) -> &mut ReadSet {
        self.shard.reads.entry(dep).or_default()
    }

    /// A module's top-level binding for `name`, through the frozen snapshot
    /// (or our own live env for self-reads).
    fn module_env_get(&mut self, module: Symbol, name: Symbol) -> Option<OriginSet> {
        if self.shard.name == Some(module) {
            return self
                .shard
                .scopes
                .first()
                .and_then(|s| s.env.get(&name))
                .cloned();
        }
        self.reads_of(Some(module)).names.insert(name);
        self.view
            .snapshot_of(module)
            .and_then(|p| p.top_env.get(&name))
            .cloned()
    }

    /// Another shard's published state (`None` addresses the application
    /// shard, which is always snapshot index 0).
    fn foreign_snapshot(&self, shard: ShardName) -> Option<&Published> {
        match shard {
            Some(m) => self.view.snapshot_of(m),
            None => Some(&self.view.snapshots[0]),
        }
    }

    /// A function of another shard, as that shard last published it.
    fn foreign_func(&mut self, key: FuncKey) -> Option<FuncPub> {
        self.reads_of(key.shard).funcs.insert(key);
        self.foreign_snapshot(key.shard)
            .and_then(|p| p.funcs.get(&key))
            .cloned()
    }

    fn seq_elems(&mut self, site: SiteKey) -> Option<Vec<OriginSet>> {
        if site.shard == self.shard.name {
            return self.shard.seq_sites.get(&site).cloned();
        }
        self.reads_of(site.shard).seq_sites.insert(site);
        self.foreign_snapshot(site.shard)
            .and_then(|p| p.seq_sites.get(&site).cloned())
    }

    fn map_entries(&mut self, site: SiteKey) -> Option<MapSite> {
        if site.shard == self.shard.name {
            return self.shard.map_sites.get(&site).cloned();
        }
        self.reads_of(site.shard).map_sites.insert(site);
        self.foreign_snapshot(site.shard)
            .and_then(|p| p.map_sites.get(&site).cloned())
    }

    /// `import a.b.c` pulls in (and runs the top-level of) a, a.b and a.b.c.
    /// A package importing its own submodule (`import pkg.core` inside
    /// `pkg`) is already running: that prefix gets no activation and no
    /// call-graph edge.
    fn record_import(&mut self, ctx: &Ctx, dotted: &str) {
        let mut prefix = String::new();
        for part in dotted.split('.') {
            if !prefix.is_empty() {
                prefix.push('.');
            }
            prefix.push_str(part);
            let present = self.shard.name_str.as_deref() != Some(prefix.as_str())
                && self.probe_contains(&prefix);
            if present && self.view.interprocedural {
                let sym = self.view.interner.intern(&prefix);
                self.send(Message::ActivateModule(sym));
            }
            if let Some(out) = self.out.as_deref_mut() {
                out.imported_modules.insert(prefix.clone());
                if present {
                    out.edges
                        .insert((ctx.node.clone(), CgNode::ModuleTop(prefix.clone())));
                }
            }
        }
        let is_app = self.shard.is_app();
        if let Some(out) = self.out.as_deref_mut() {
            if is_app {
                out.direct_imports.insert(dotted.to_owned());
            }
        }
    }

    /// Create a scope pre-bound with `names` (locally-assigned names bind
    /// to the empty set up front so lookups never fall through to an outer
    /// scope "early" — the shadowing decision is static, which keeps the
    /// transfer monotone).
    fn new_scope(&mut self, parent: Option<usize>, names: &BTreeSet<Symbol>) -> usize {
        let mut env = std::collections::BTreeMap::new();
        for &n in names {
            env.insert(n, OriginSet::new());
        }
        self.shard.scopes.push(Scope { parent, env });
        self.shard.scopes.len() - 1
    }

    // -- statements --------------------------------------------------------

    fn walk_block(&mut self, ctx: &mut Ctx, body: &[RStmt]) {
        for stmt in body {
            self.walk_stmt(ctx, stmt);
        }
    }

    fn walk_stmt(&mut self, ctx: &mut Ctx, stmt: &RStmt) {
        match stmt {
            RStmt::Import { items } => {
                for item in items {
                    self.record_import(ctx, &item.module);
                    let target: &str = item.top.as_deref().unwrap_or(&item.module);
                    let sym = self.view.interner.intern(target);
                    let set: OriginSet = [Origin::Module(sym)].into_iter().collect();
                    self.bind(ctx.scope, item.bind, &set);
                    if !self.is_collect() {
                        self.shard.import_bound.insert((ctx.scope, item.bind));
                    }
                }
            }
            RStmt::FromImport { module, names } => {
                self.record_import(ctx, module);
                let module_sym = self.view.interner.intern(module);
                for name in names {
                    let RFromName::Named { name, bind } = name else {
                        self.star_import(ctx, module, module_sym);
                        continue;
                    };
                    let name_str = self.view.interner.resolve(*name);
                    let submodule = format!("{module}.{name_str}");
                    let set: OriginSet = if self.probe_contains(&submodule) {
                        self.record_import(ctx, &submodule);
                        // Importing a submodule via `from` counts as access.
                        self.record_access(ctx, module, &name_str);
                        let sub_sym = self.view.interner.intern(&submodule);
                        [Origin::Module(sub_sym)].into_iter().collect()
                    } else {
                        let mut set: OriginSet =
                            [Origin::Attr(module_sym, *name)].into_iter().collect();
                        if self.analyzed(module) {
                            if let Some(b) = self.module_env_get(module_sym, *name) {
                                set.extend(b);
                            }
                        }
                        // Inside a library module the import itself executes
                        // on load, so the attribute is definitely read. App
                        // from-imports stay lazy (§6.2): an unused name must
                        // remain trimmable by DD.
                        if !self.shard.is_app() {
                            self.record_access(ctx, module, &name_str);
                        }
                        set
                    };
                    self.bind(ctx.scope, *bind, &set);
                    if !self.is_collect() {
                        self.shard.import_bound.insert((ctx.scope, *bind));
                    }
                }
            }
            RStmt::Assign { targets, value } => {
                let vset = self.resolve(ctx, value);
                for t in targets {
                    self.assign_target(ctx, t, &vset);
                }
            }
            RStmt::AugAssign { target, value, .. } => {
                self.resolve(ctx, target);
                self.resolve(ctx, value);
            }
            RStmt::Expr(e) | RStmt::Raise(Some(e)) => {
                self.resolve(ctx, e);
            }
            RStmt::Del(e) => {
                self.resolve(ctx, e);
                // `del name` on an import-bound name is a rebind hazard:
                // later accesses (e.g. a re-import and use in another
                // branch) are invisible to the flow-insensitive engine. The
                // implicated attributes are flow-refined to what the unit
                // syntactically touches through the name post-delete.
                if self.is_collect() {
                    if let RExpr::Name(n) = e {
                        if self.shard.import_bound.contains(&(ctx.scope, *n)) {
                            let old = self.shard.scopes[ctx.scope]
                                .env
                                .get(n)
                                .cloned()
                                .unwrap_or_default();
                            for atom in &old {
                                if let Origin::Module(m) = atom {
                                    let attrs = self.rebind_attrs(ctx.body.stmts(), *n);
                                    let name = self.view.interner.resolve(*n).to_string();
                                    let module = self.view.interner.resolve(*m).to_string();
                                    self.lint(
                                        Severity::Hazard,
                                        LintKind::ModuleRebinding {
                                            name,
                                            module,
                                            attrs,
                                        },
                                    );
                                }
                            }
                        }
                    }
                }
            }
            RStmt::Raise(None)
            | RStmt::Pass
            | RStmt::Break
            | RStmt::Continue
            | RStmt::Global(_) => {}
            RStmt::Return(e) => {
                let set = match e {
                    Some(e) => self.resolve(ctx, e),
                    None => OriginSet::new(),
                };
                if self.is_collect() {
                    return;
                }
                if let Some(qual) = ctx.unit {
                    let key = FuncKey {
                        shard: self.shard.name,
                        qual,
                    };
                    if let Some(f) = self.shard.funcs.get_mut(&key) {
                        if join_into(&mut f.ret, &set) {
                            self.changed = true;
                            self.pub_changed = true;
                        }
                    }
                }
            }
            RStmt::If { branches, orelse } => {
                for (test, body) in branches {
                    self.resolve(ctx, test);
                    self.walk_block(ctx, body);
                }
                self.walk_block(ctx, orelse);
            }
            RStmt::While { test, body } => {
                self.resolve(ctx, test);
                self.walk_block(ctx, body);
            }
            RStmt::For {
                targets,
                iter,
                body,
            } => {
                let iset = self.resolve(ctx, iter);
                let elems = self.element_union(&iset);
                if let [single] = targets.as_slice() {
                    self.bind(ctx.scope, *single, &elems);
                } else {
                    for t in targets {
                        self.bind(ctx.scope, *t, &OriginSet::new());
                    }
                }
                self.walk_block(ctx, body);
            }
            RStmt::FuncDef(f) => {
                let defaults: Vec<OriginSet> = f
                    .params
                    .iter()
                    .map(|p| match &p.default {
                        Some(d) => self.resolve(ctx, d),
                        None => OriginSet::new(),
                    })
                    .collect();
                let qual_str = if ctx.qual.is_empty() {
                    f.name.to_string()
                } else {
                    format!("{}.{}", ctx.qual, f.name)
                };
                let qual = self.view.interner.intern(&qual_str);
                let key = FuncKey {
                    shard: self.shard.name,
                    qual,
                };
                if !self.is_collect() && !self.shard.funcs.contains_key(&key) {
                    let mut names: BTreeSet<Symbol> = f.params.iter().map(|p| p.sym).collect();
                    assigned_names(&f.body, &mut names);
                    let scope = self.new_scope(Some(ctx.scope), &names);
                    let registered = self.shard.register_func(
                        key,
                        FuncInfo {
                            qual,
                            params: f.params.iter().map(|p| p.sym).collect(),
                            body: Arc::clone(&f.body),
                            scope,
                            ret: OriginSet::new(),
                            active: false,
                        },
                    );
                    if registered {
                        self.changed = true;
                        self.pub_changed = true;
                    }
                }
                if !self.is_collect() {
                    if let Some(fscope) = self.shard.funcs.get(&key).map(|i| i.scope) {
                        for (p, dset) in f.params.iter().zip(&defaults) {
                            self.bind(fscope, p.sym, dset);
                        }
                    }
                }
                let set: OriginSet = [Origin::Func(key)].into_iter().collect();
                self.bind(ctx.scope, f.sym, &set);
                // Every app-defined function is assumed reachable (handler
                // and helpers). Library functions wait for a call site.
                if !self.is_collect() && self.shard.is_app() && self.shard.activate_func(key) {
                    self.changed = true;
                    self.pub_changed = true;
                }
            }
            RStmt::ClassDef(c) => {
                self.walk_classdef(ctx, c);
            }
            RStmt::Try {
                body,
                handlers,
                orelse,
                finalbody,
            } => {
                self.walk_block(ctx, body);
                for h in handlers {
                    if let Some(n) = h.name {
                        self.bind(ctx.scope, n, &OriginSet::new());
                    }
                    self.walk_block(ctx, &h.body);
                }
                self.walk_block(ctx, orelse);
                self.walk_block(ctx, finalbody);
            }
            RStmt::Assert { test, msg } => {
                self.resolve(ctx, test);
                if let Some(m) = msg {
                    self.resolve(ctx, m);
                }
            }
        }
    }

    fn walk_classdef(&mut self, ctx: &mut Ctx, c: &RClassDef) {
        for base in &c.bases {
            self.resolve_dotted(ctx, base);
        }
        let class_key = (ctx.scope, c.sym);
        let class_scope = match self.shard.class_scopes.get(&class_key) {
            Some(&s) => s,
            None => {
                let mut names = BTreeSet::new();
                assigned_names(&c.body, &mut names);
                let s = self.new_scope(Some(ctx.scope), &names);
                self.shard.class_scopes.insert(class_key, s);
                s
            }
        };
        let saved_scope = ctx.scope;
        let saved_qual = std::mem::take(&mut ctx.qual);
        ctx.scope = class_scope;
        ctx.qual = if saved_qual.is_empty() {
            c.name.to_string()
        } else {
            format!("{saved_qual}.{}", c.name)
        };
        self.walk_block(ctx, &c.body);
        ctx.scope = saved_scope;
        let class_qual = std::mem::replace(&mut ctx.qual, saved_qual);
        // The class name binds to a Class atom keyed by its qualified name,
        // so constructor calls produce Instance origins and `obj.method()`
        // resolves to the registered `"Cls.method"` functions.
        let key = FuncKey {
            shard: self.shard.name,
            qual: self.view.interner.intern(&class_qual),
        };
        let set: OriginSet = [Origin::Class(key)].into_iter().collect();
        self.bind(ctx.scope, c.sym, &set);
    }

    fn assign_target(&mut self, ctx: &mut Ctx, target: &RExpr, vset: &OriginSet) {
        match target {
            RExpr::Name(n) => {
                // Rebinding an import-bound name hides later accesses. The
                // check runs against the converged environment (collect
                // pass), so it sees exactly the import bindings that
                // coexist with this assignment at the fixpoint.
                if self.is_collect() && self.shard.import_bound.contains(&(ctx.scope, *n)) {
                    let old = self.shard.scopes[ctx.scope]
                        .env
                        .get(n)
                        .cloned()
                        .unwrap_or_default();
                    for atom in &old {
                        if let Origin::Module(m) = atom {
                            if !vset.contains(atom) {
                                let attrs = self.rebind_attrs(ctx.body.stmts(), *n);
                                let name = self.view.interner.resolve(*n).to_string();
                                let module = self.view.interner.resolve(*m).to_string();
                                self.lint(
                                    Severity::Hazard,
                                    LintKind::ModuleRebinding {
                                        name,
                                        module,
                                        attrs,
                                    },
                                );
                            }
                        }
                    }
                }
                self.bind(ctx.scope, *n, vset);
            }
            RExpr::Tuple(ts) | RExpr::List(ts) => {
                // Element-wise unpacking when the value is a single literal
                // sequence of matching arity.
                let elems: Option<Vec<OriginSet>> = match vset.iter().collect::<Vec<_>>()[..] {
                    [Origin::Seq(site)] => self.seq_elems(*site).filter(|e| e.len() == ts.len()),
                    _ => None,
                };
                for (i, sub) in ts.iter().enumerate() {
                    let s = elems.as_ref().map(|e| e[i].clone()).unwrap_or_default();
                    self.assign_target(ctx, sub, &s);
                }
            }
            RExpr::Attribute { value, attr, .. } => {
                let base = self.resolve(ctx, value);
                let attr_str = self.view.interner.resolve(*attr);
                for atom in &base {
                    if let Origin::Module(m) = atom {
                        let m_str = self.view.interner.resolve(*m);
                        // A write both counts as an access (the binding must
                        // survive trimming) and defines the attribute.
                        self.record_access(ctx, &m_str, &attr_str);
                        if let Some(out) = self.out.as_deref_mut() {
                            out.written
                                .insert((m_str.to_string(), attr_str.to_string()));
                        }
                    }
                }
            }
            other => {
                self.resolve(ctx, other);
            }
        }
    }

    fn star_import(&mut self, ctx: &mut Ctx, module: &str, module_sym: Symbol) {
        self.lint(
            Severity::Hazard,
            LintKind::StarImport {
                module: module.to_owned(),
            },
        );
        let entries: Vec<(Symbol, OriginSet)> = if self.shard.name == Some(module_sym) {
            self.shard
                .scopes
                .first()
                .map(|s| s.env.iter().map(|(k, v)| (*k, v.clone())).collect())
                .unwrap_or_default()
        } else {
            self.reads_of(Some(module_sym)).all_names = true;
            self.view
                .snapshot_of(module_sym)
                .map(|p| p.top_env.iter().map(|(k, v)| (*k, v.clone())).collect())
                .unwrap_or_default()
        };
        for (name, mut set) in entries {
            let name_str = self.view.interner.resolve(name);
            if name_str.starts_with('_') {
                continue;
            }
            self.record_access(ctx, module, &name_str);
            set.insert(Origin::Attr(module_sym, name));
            self.bind(ctx.scope, name, &set);
        }
    }

    /// Resolve a pre-split dotted reference (`class Net(nn.Module)` must be
    /// resolved like the expression `nn.Module`).
    fn resolve_dotted(&mut self, ctx: &mut Ctx, parts: &[Symbol]) -> OriginSet {
        let Some((first, rest)) = parts.split_first() else {
            return OriginSet::new();
        };
        let mut set = self.resolve_name(ctx, *first);
        for attr in rest {
            set = self.attr_value(ctx, &set, *attr);
        }
        set
    }

    // -- expressions -------------------------------------------------------

    /// Union of a value's sequence elements (for-loop and unknown-index
    /// views). Iterating a dict yields string keys, so `Map` contributes
    /// nothing.
    fn element_union(&mut self, set: &OriginSet) -> OriginSet {
        let mut out = OriginSet::new();
        for atom in set {
            if let Origin::Seq(site) = atom {
                if let Some(elems) = self.seq_elems(*site) {
                    for e in elems {
                        out.extend(e);
                    }
                }
            }
        }
        out
    }

    fn resolve_name(&mut self, ctx: &Ctx, n: Symbol) -> OriginSet {
        let set = self.shard.lookup(ctx.scope, n).cloned().unwrap_or_default();
        if self.is_collect() {
            for atom in set.clone() {
                match atom {
                    Origin::Attr(m, a) => {
                        // Using a from-imported name is a definite access.
                        let m = self.view.interner.resolve(m).to_string();
                        let a = self.view.interner.resolve(a).to_string();
                        self.record_access(ctx, &m, &a);
                    }
                    Origin::Module(m) if self.shard.is_app() => {
                        let m = self.view.interner.resolve(m).to_string();
                        if let Some(out) = self.out.as_deref_mut() {
                            out.used_by_app.insert(m);
                        }
                    }
                    _ => {}
                }
            }
        }
        set
    }

    fn attr_value(&mut self, ctx: &Ctx, base: &OriginSet, attr: Symbol) -> OriginSet {
        let attr_str = self.view.interner.resolve(attr);
        let mut out = OriginSet::new();
        for atom in base {
            match atom {
                Origin::Module(m) => {
                    let m_str = self.view.interner.resolve(*m);
                    self.record_access(ctx, &m_str, &attr_str);
                    let sub = format!("{m_str}.{attr_str}");
                    if self.probe_contains(&sub) {
                        out.insert(Origin::Module(self.view.interner.intern(&sub)));
                    } else if self.analyzed(&m_str) {
                        if let Some(binding) = self.module_env_get(*m, attr) {
                            // Reading a re-exported name reads through to its
                            // source module as well.
                            if self.is_collect() {
                                for b in &binding {
                                    if let Origin::Attr(m2, a2) = b {
                                        let m2 = self.view.interner.resolve(*m2).to_string();
                                        let a2 = self.view.interner.resolve(*a2).to_string();
                                        self.record_access(ctx, &m2, &a2);
                                    }
                                }
                            }
                            out.extend(binding);
                        }
                    } else {
                        out.insert(Origin::Attr(*m, attr));
                    }
                }
                Origin::Instance(ck) => {
                    // `obj.method` resolves against the class's registered
                    // `"Cls.method"` functions (local or via snapshot) and
                    // binds `self` to the instance; unresolved attributes
                    // stay empty (data attributes carry no origin).
                    let class_qual = self.view.interner.resolve(ck.qual);
                    let mqual = format!("{class_qual}.{attr_str}");
                    let mkey = FuncKey {
                        shard: ck.shard,
                        qual: self.view.interner.intern(&mqual),
                    };
                    if mkey.shard == self.shard.name {
                        if let Some((fscope, p0)) = self
                            .shard
                            .funcs
                            .get(&mkey)
                            .map(|f| (f.scope, f.params.first().copied()))
                        {
                            if let Some(p0) = p0 {
                                let iset: OriginSet = [Origin::Instance(*ck)].into_iter().collect();
                                self.bind(fscope, p0, &iset);
                            }
                            out.insert(Origin::Method(mkey));
                        }
                    } else if let Some(fpub) = self.foreign_func(mkey) {
                        if let Some(&p0) = fpub.params.first() {
                            let iset: OriginSet = [Origin::Instance(*ck)].into_iter().collect();
                            self.send(Message::BindParam(mkey, p0, iset));
                        }
                        out.insert(Origin::Method(mkey));
                    }
                }
                _ => {}
            }
        }
        out
    }

    fn resolve_call(
        &mut self,
        ctx: &mut Ctx,
        func: &RExpr,
        args: &[RExpr],
        kwargs: &[(Symbol, RExpr)],
    ) -> OriginSet {
        if let RExpr::Name(fname) = func {
            if self.view.dynamic_builtins.contains(fname)
                && self.shard.lookup(ctx.scope, *fname).is_none()
            {
                return self.dynamic_access(ctx, args, kwargs);
            }
        }
        let fset = self.resolve(ctx, func);
        let argsets: Vec<OriginSet> = args.iter().map(|a| self.resolve(ctx, a)).collect();
        let kwsets: Vec<(Symbol, OriginSet)> = kwargs
            .iter()
            .map(|(k, v)| (*k, self.resolve(ctx, v)))
            .collect();
        let mut out = OriginSet::new();
        for atom in &fset {
            match atom {
                Origin::Func(key) => {
                    if self.is_collect() {
                        let callee = self.func_callee_node(key);
                        self.edge(ctx.node.clone(), callee);
                    }
                    self.call_known_func(*key, None, 0, &argsets, &kwsets, Some(&mut out));
                }
                Origin::Method(key) => {
                    // Bound-method call: `self` was bound at attribute
                    // resolution, so positional args start at parameter 1.
                    if self.is_collect() {
                        let callee = self.func_callee_node(key);
                        self.edge(ctx.node.clone(), callee);
                    }
                    self.call_known_func(*key, None, 1, &argsets, &kwsets, Some(&mut out));
                }
                Origin::Class(ck) => {
                    // Constructing a class yields an instance; `__init__`
                    // (when defined) is activated with `self` bound to it.
                    out.insert(Origin::Instance(*ck));
                    let init_qual = format!("{}.__init__", self.view.interner.resolve(ck.qual));
                    let ikey = FuncKey {
                        shard: ck.shard,
                        qual: self.view.interner.intern(&init_qual),
                    };
                    let exists = if ikey.shard == self.shard.name {
                        self.shard.funcs.contains_key(&ikey)
                    } else {
                        self.foreign_func(ikey).is_some()
                    };
                    if exists {
                        if self.is_collect() {
                            let callee = self.func_callee_node(&ikey);
                            self.edge(ctx.node.clone(), callee);
                        }
                        let iset: OriginSet = [Origin::Instance(*ck)].into_iter().collect();
                        self.call_known_func(ikey, Some(&iset), 1, &argsets, &kwsets, None);
                    }
                }
                Origin::Attr(m, a) if self.is_collect() => {
                    let m = self.view.interner.resolve(*m).to_string();
                    let a = self.view.interner.resolve(*a).to_string();
                    self.edge(ctx.node.clone(), CgNode::ModuleAttr(m, a));
                }
                _ => {}
            }
        }
        out
    }

    /// Call-graph node for a resolved function/method key.
    fn func_callee_node(&self, key: &FuncKey) -> CgNode {
        let qual = self.view.interner.resolve(key.qual).to_string();
        match key.shard {
            None => CgNode::AppFunc(qual),
            Some(m) => CgNode::LibFunc(self.view.interner.resolve(m).to_string(), qual),
        }
    }

    /// Activate a resolved callee and bind its parameters: `self_arg` (when
    /// given) binds to parameter 0, positional args bind from parameter
    /// `offset` on, keywords by name. Joins the callee's return set into
    /// `ret` when requested. Local callees bind directly; cross-shard
    /// callees go through barrier messages.
    fn call_known_func(
        &mut self,
        key: FuncKey,
        self_arg: Option<&OriginSet>,
        offset: usize,
        argsets: &[OriginSet],
        kwsets: &[(Symbol, OriginSet)],
        ret: Option<&mut OriginSet>,
    ) {
        if key.shard == self.shard.name {
            // Local call: activate and bind directly.
            if !self.is_collect() {
                if self.shard.activate_func(key) {
                    self.changed = true;
                    self.pub_changed = true;
                }
                if let Some(f) = self.shard.funcs.get(&key) {
                    let params = Arc::clone(&f.params);
                    let fscope = f.scope;
                    if let (Some(sset), Some(&p0)) = (self_arg, params.first()) {
                        self.bind(fscope, p0, sset);
                    }
                    for (i, aset) in argsets.iter().enumerate() {
                        if let Some(&p) = params.get(i + offset) {
                            self.bind(fscope, p, aset);
                        }
                    }
                    for (k, kset) in kwsets {
                        if params.contains(k) {
                            self.bind(fscope, *k, kset);
                        }
                    }
                }
            }
            if let Some(ret) = ret {
                if let Some(f) = self.shard.funcs.get(&key) {
                    ret.extend(f.ret.iter().copied());
                }
            }
        } else {
            // Cross-shard call (including an app-defined callback invoked
            // from library code): activate and bind through the barrier.
            let Some(fpub) = self.foreign_func(key) else {
                return;
            };
            self.send(Message::ActivateFunc(key));
            if let (Some(sset), Some(&p0)) = (self_arg, fpub.params.first()) {
                self.send(Message::BindParam(key, p0, sset.clone()));
            }
            for (i, aset) in argsets.iter().enumerate() {
                if let Some(&p) = fpub.params.get(i + offset) {
                    self.send(Message::BindParam(key, p, aset.clone()));
                }
            }
            for (k, kset) in kwsets {
                if fpub.params.contains(k) {
                    self.send(Message::BindParam(key, *k, kset.clone()));
                }
            }
            if let Some(ret) = ret {
                ret.extend(fpub.ret.iter().copied());
            }
        }
    }

    fn resolve(&mut self, ctx: &mut Ctx, e: &RExpr) -> OriginSet {
        match e {
            RExpr::Name(n) => self.resolve_name(ctx, *n),
            RExpr::Attribute { value, attr, .. } => {
                let base = self.resolve(ctx, value);
                self.attr_value(ctx, &base, *attr)
            }
            RExpr::Call { func, args, kwargs } => self.resolve_call(ctx, func, args, kwargs),
            RExpr::Subscript { value, index } => {
                let vset = self.resolve(ctx, value);
                self.resolve(ctx, index);
                let mut out = OriginSet::new();
                for atom in &vset {
                    match atom {
                        Origin::Seq(site) => {
                            if let Some(elems) = self.seq_elems(*site) {
                                match &**index {
                                    RExpr::Int(i) if *i >= 0 && (*i as usize) < elems.len() => {
                                        out.extend(elems[*i as usize].iter().copied());
                                    }
                                    _ => {
                                        for e in elems {
                                            out.extend(e);
                                        }
                                    }
                                }
                            }
                        }
                        Origin::Map(site) => {
                            if let Some((entries, unknown)) = self.map_entries(*site) {
                                match &**index {
                                    RExpr::Str(k) => {
                                        if let Some(s) = entries.get(&**k) {
                                            out.extend(s.iter().copied());
                                        }
                                        out.extend(unknown.iter().copied());
                                    }
                                    _ => {
                                        for s in entries.values() {
                                            out.extend(s.iter().copied());
                                        }
                                        out.extend(unknown.iter().copied());
                                    }
                                }
                            }
                        }
                        _ => {}
                    }
                }
                out
            }
            RExpr::List(items) | RExpr::Tuple(items) => {
                let site = ctx.next_site(self.shard);
                let sets: Vec<OriginSet> = items.iter().map(|i| self.resolve(ctx, i)).collect();
                if !self.is_collect() {
                    let slot = self
                        .shard
                        .seq_sites
                        .entry(site)
                        .or_insert_with(|| vec![OriginSet::new(); sets.len()]);
                    let mut grew = false;
                    for (s, existing) in sets.iter().zip(slot.iter_mut()) {
                        grew |= join_into(existing, s);
                    }
                    if grew {
                        self.changed = true;
                        self.pub_changed = true;
                    }
                }
                [Origin::Seq(site)].into_iter().collect()
            }
            RExpr::Dict(pairs) => {
                let site = ctx.next_site(self.shard);
                let mut resolved: Vec<(Option<Arc<str>>, OriginSet)> = Vec::new();
                for (k, v) in pairs {
                    self.resolve(ctx, k);
                    let key = match k {
                        RExpr::Str(s) => Some(Arc::clone(s)),
                        _ => None,
                    };
                    let vset = self.resolve(ctx, v);
                    resolved.push((key, vset));
                }
                if !self.is_collect() {
                    let slot = self.shard.map_sites.entry(site).or_default();
                    let mut grew = false;
                    for (key, vset) in resolved {
                        let target = match key {
                            Some(k) => slot.0.entry(k).or_default(),
                            None => &mut slot.1,
                        };
                        grew |= join_into(target, &vset);
                    }
                    if grew {
                        self.changed = true;
                        self.pub_changed = true;
                    }
                }
                [Origin::Map(site)].into_iter().collect()
            }
            RExpr::Unary { operand, .. } => {
                self.resolve(ctx, operand);
                OriginSet::new()
            }
            RExpr::Binary { left, right, .. } => {
                self.resolve(ctx, left);
                self.resolve(ctx, right);
                OriginSet::new()
            }
            RExpr::Bool { values, .. } => {
                // `a or b` / `a and b` evaluate to one of the operands.
                let mut out = OriginSet::new();
                for v in values {
                    out.extend(self.resolve(ctx, v));
                }
                out
            }
            RExpr::Compare { left, ops } => {
                self.resolve(ctx, left);
                for (_, v) in ops {
                    self.resolve(ctx, v);
                }
                OriginSet::new()
            }
            RExpr::Conditional { test, body, orelse } => {
                self.resolve(ctx, test);
                // Conditional join: the result may be either branch's value.
                let mut out = self.resolve(ctx, body);
                out.extend(self.resolve(ctx, orelse));
                out
            }
            RExpr::ListComp {
                element,
                targets,
                iter,
                cond,
            } => {
                let iset = self.resolve(ctx, iter);
                let elems = self.element_union(&iset);
                if let [single] = targets.as_slice() {
                    self.bind(ctx.scope, *single, &elems);
                } else {
                    for t in targets {
                        self.bind(ctx.scope, *t, &OriginSet::new());
                    }
                }
                self.resolve(ctx, element);
                if let Some(c) = cond {
                    self.resolve(ctx, c);
                }
                OriginSet::new()
            }
            RExpr::Slice { value, start, stop } => {
                self.resolve(ctx, value);
                if let Some(e) = start {
                    self.resolve(ctx, e);
                }
                if let Some(e) = stop {
                    self.resolve(ctx, e);
                }
                OriginSet::new()
            }
            _ => OriginSet::new(),
        }
    }

    /// `getattr`/`setattr`/`hasattr` handling. Literal attribute names are
    /// reported but deliberately *not* recorded as accesses: resolving them
    /// would force-keep rarely-used attributes that DD should trim and the
    /// §5.4 runtime fallback should serve. Non-literal names make the
    /// target module's accessed set unknowable — a debloating hazard.
    fn dynamic_access(
        &mut self,
        ctx: &mut Ctx,
        args: &[RExpr],
        kwargs: &[(Symbol, RExpr)],
    ) -> OriginSet {
        let target = match args.first() {
            Some(a) => self.resolve(ctx, a),
            None => OriginSet::new(),
        };
        let literal = match args.get(1) {
            Some(RExpr::Str(s)) => Some(Arc::clone(s)),
            Some(other) => {
                self.resolve(ctx, other);
                None
            }
            None => None,
        };
        for a in args.iter().skip(2) {
            self.resolve(ctx, a);
        }
        for (_, v) in kwargs {
            self.resolve(ctx, v);
        }
        if !self.is_collect() {
            return OriginSet::new();
        }
        let modules: Vec<String> = target
            .iter()
            .filter_map(|a| match a {
                Origin::Module(m) => Some(self.view.interner.resolve(*m).to_string()),
                _ => None,
            })
            .collect();
        match literal {
            Some(attr) => {
                if modules.is_empty() {
                    self.lint(
                        Severity::Info,
                        LintKind::DynamicAttrAccess {
                            module: None,
                            attr: attr.to_string(),
                        },
                    );
                } else {
                    for m in modules {
                        self.lint(
                            Severity::Info,
                            LintKind::DynamicAttrAccess {
                                module: Some(m),
                                attr: attr.to_string(),
                            },
                        );
                    }
                }
            }
            None => {
                // Bound the non-literal name by the string-value lattice:
                // `Known` yields a finite attribute set, `Bottom` (a value
                // that is provably not a string, so getattr raises
                // TypeError before touching any attribute) the empty set,
                // `Tainted` is unbounded (⊤ over the module's surface).
                let attrs: Option<BTreeSet<String>> = match args.get(1) {
                    Some(e) => match sv_expr(e, &self.str_env) {
                        StrVal::Known(s) => Some(s.iter().map(|a| a.to_string()).collect()),
                        StrVal::Bottom => Some(BTreeSet::new()),
                        StrVal::Tainted => None,
                    },
                    None => Some(BTreeSet::new()),
                };
                if modules.is_empty() {
                    self.lint(
                        Severity::Warning,
                        LintKind::OpaqueAttrAccess {
                            module: None,
                            attrs,
                        },
                    );
                } else {
                    for m in modules {
                        self.lint(
                            Severity::Hazard,
                            LintKind::OpaqueAttrAccess {
                                module: Some(m),
                                attrs: attrs.clone(),
                            },
                        );
                    }
                }
            }
        }
        OriginSet::new()
    }

    // -- rebind flow scan --------------------------------------------------

    /// Attribute names syntactically reachable through `name` at or after a
    /// possible rebind point — a branch-aware pass over the unit body. `If`
    /// branches each carry the entry flag independently (post-`If` = OR of
    /// branch exits), loop bodies are scanned twice for loop carry, and
    /// nested function bodies count as post-rebind (their call time is
    /// unknown) unless they shadow the name.
    fn rebind_attrs(&self, body: &[RStmt], name: Symbol) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        self.scan_rebind_block(body, name, false, &mut out);
        out
    }

    /// Scan a block; returns the exit value of the rebound flag.
    fn scan_rebind_block(
        &self,
        body: &[RStmt],
        name: Symbol,
        entry: bool,
        out: &mut BTreeSet<String>,
    ) -> bool {
        let mut rebound = entry;
        for stmt in body {
            rebound = self.scan_rebind_stmt(stmt, name, rebound, out);
        }
        rebound
    }

    fn scan_rebind_stmt(
        &self,
        stmt: &RStmt,
        name: Symbol,
        rebound: bool,
        out: &mut BTreeSet<String>,
    ) -> bool {
        match stmt {
            RStmt::Assign { targets, value } => {
                // The value is evaluated before the targets rebind.
                let mut r = self.scan_rebind_expr(value, name, rebound, out);
                let mut bound = BTreeSet::new();
                for t in targets {
                    target_names(t, &mut bound);
                    if !matches!(t, RExpr::Name(_)) {
                        r = self.scan_rebind_expr(t, name, r, out);
                    }
                }
                r || bound.contains(&name)
            }
            RStmt::AugAssign { target, value, .. } => {
                let mut r = self.scan_rebind_expr(target, name, rebound, out);
                r = self.scan_rebind_expr(value, name, r, out);
                r || matches!(target, RExpr::Name(n) if *n == name)
            }
            RStmt::Expr(e) | RStmt::Raise(Some(e)) | RStmt::Return(Some(e)) => {
                self.scan_rebind_expr(e, name, rebound, out)
            }
            RStmt::Del(e) => {
                let r = self.scan_rebind_expr(e, name, rebound, out);
                r || matches!(e, RExpr::Name(n) if *n == name)
            }
            RStmt::Assert { test, msg } => {
                let mut r = self.scan_rebind_expr(test, name, rebound, out);
                if let Some(m) = msg {
                    r = self.scan_rebind_expr(m, name, r, out);
                }
                r
            }
            RStmt::If { branches, orelse } => {
                let mut exit = false;
                let mut flag = rebound;
                for (test, body) in branches {
                    flag = self.scan_rebind_expr(test, name, flag, out);
                    exit |= self.scan_rebind_block(body, name, flag, out);
                }
                exit |= self.scan_rebind_block(orelse, name, flag, out);
                exit
            }
            RStmt::While { test, body } => {
                let mut r = self.scan_rebind_expr(test, name, rebound, out);
                // Two passes: a rebind late in the body reaches accesses
                // early in the body on the next iteration.
                r = self.scan_rebind_block(body, name, r, out);
                r = self.scan_rebind_expr(test, name, r, out);
                r = self.scan_rebind_block(body, name, r, out);
                r || rebound
            }
            RStmt::For {
                targets,
                iter,
                body,
            } => {
                let mut r = self.scan_rebind_expr(iter, name, rebound, out);
                r |= targets.contains(&name);
                r = self.scan_rebind_block(body, name, r, out);
                r |= targets.contains(&name);
                r = self.scan_rebind_block(body, name, r, out);
                r || rebound
            }
            RStmt::FuncDef(f) => {
                let mut r = rebound;
                for p in &f.params {
                    if let Some(d) = &p.default {
                        r = self.scan_rebind_expr(d, name, r, out);
                    }
                }
                // The nested body runs at an unknown time relative to the
                // rebind; assume post-rebind unless the function shadows
                // the name.
                let mut shadows: BTreeSet<Symbol> = f.params.iter().map(|p| p.sym).collect();
                assigned_names(&f.body, &mut shadows);
                if !shadows.contains(&name) {
                    self.scan_rebind_block(&f.body, name, true, out);
                }
                r || f.sym == name
            }
            RStmt::ClassDef(c) => {
                // The class body executes at the definition point.
                let r = self.scan_rebind_block(&c.body, name, rebound, out);
                r || c.sym == name
            }
            RStmt::Try {
                body,
                handlers,
                orelse,
                finalbody,
            } => {
                let mut exit = self.scan_rebind_block(body, name, rebound, out);
                for h in handlers {
                    exit |= self.scan_rebind_block(&h.body, name, exit, out);
                }
                exit |= self.scan_rebind_block(orelse, name, exit, out);
                self.scan_rebind_block(finalbody, name, exit, out)
            }
            RStmt::Import { items } => rebound || items.iter().any(|i| i.bind == name),
            RStmt::FromImport { names, .. } => {
                rebound
                    || names
                        .iter()
                        .any(|n| matches!(n, RFromName::Named { bind, .. } if *bind == name))
            }
            RStmt::Return(None)
            | RStmt::Raise(None)
            | RStmt::Pass
            | RStmt::Break
            | RStmt::Continue
            | RStmt::Global(_) => rebound,
        }
    }

    /// Scan an expression with the current rebound flag, collecting
    /// attribute names read through `name` while rebound. Returns the flag
    /// (list comprehensions can rebind the name mid-expression).
    fn scan_rebind_expr(
        &self,
        e: &RExpr,
        name: Symbol,
        rebound: bool,
        out: &mut BTreeSet<String>,
    ) -> bool {
        match e {
            RExpr::Attribute { value, attr, .. } => {
                let r = self.scan_rebind_expr(value, name, rebound, out);
                if r && matches!(&**value, RExpr::Name(n) if *n == name) {
                    out.insert(self.view.interner.resolve(*attr).to_string());
                }
                r
            }
            RExpr::Call { func, args, kwargs } => {
                let mut r = self.scan_rebind_expr(func, name, rebound, out);
                // Literal getattr-family access through the rebound name.
                if r {
                    if let (RExpr::Name(f), Some(RExpr::Name(a0)), Some(RExpr::Str(s))) =
                        (&**func, args.first(), args.get(1))
                    {
                        if self.view.dynamic_builtins.contains(f) && *a0 == name {
                            out.insert(s.to_string());
                        }
                    }
                }
                for a in args {
                    r = self.scan_rebind_expr(a, name, r, out);
                }
                for (_, v) in kwargs {
                    r = self.scan_rebind_expr(v, name, r, out);
                }
                r
            }
            RExpr::ListComp {
                element,
                targets,
                iter,
                cond,
            } => {
                let mut r = self.scan_rebind_expr(iter, name, rebound, out);
                r |= targets.contains(&name);
                r = self.scan_rebind_expr(element, name, r, out);
                if let Some(c) = cond {
                    r = self.scan_rebind_expr(c, name, r, out);
                }
                r
            }
            RExpr::List(items) | RExpr::Tuple(items) => {
                let mut r = rebound;
                for i in items {
                    r = self.scan_rebind_expr(i, name, r, out);
                }
                r
            }
            RExpr::Dict(pairs) => {
                let mut r = rebound;
                for (k, v) in pairs {
                    r = self.scan_rebind_expr(k, name, r, out);
                    r = self.scan_rebind_expr(v, name, r, out);
                }
                r
            }
            RExpr::Subscript { value, index } => {
                let r = self.scan_rebind_expr(value, name, rebound, out);
                self.scan_rebind_expr(index, name, r, out)
            }
            RExpr::Unary { operand, .. } => self.scan_rebind_expr(operand, name, rebound, out),
            RExpr::Binary { left, right, .. } => {
                let r = self.scan_rebind_expr(left, name, rebound, out);
                self.scan_rebind_expr(right, name, r, out)
            }
            RExpr::Bool { values, .. } => {
                let mut r = rebound;
                for v in values {
                    r = self.scan_rebind_expr(v, name, r, out);
                }
                r
            }
            RExpr::Compare { left, ops } => {
                let mut r = self.scan_rebind_expr(left, name, rebound, out);
                for (_, v) in ops {
                    r = self.scan_rebind_expr(v, name, r, out);
                }
                r
            }
            RExpr::Conditional { test, body, orelse } => {
                let r = self.scan_rebind_expr(test, name, rebound, out);
                let a = self.scan_rebind_expr(body, name, r, out);
                let b = self.scan_rebind_expr(orelse, name, r, out);
                a || b
            }
            RExpr::Slice { value, start, stop } => {
                let mut r = self.scan_rebind_expr(value, name, rebound, out);
                if let Some(s) = start {
                    r = self.scan_rebind_expr(s, name, r, out);
                }
                if let Some(s) = stop {
                    r = self.scan_rebind_expr(s, name, r, out);
                }
                r
            }
            _ => rebound,
        }
    }
}

#[derive(Clone)]
enum ProgramBody {
    Program(Arc<pylite::resolved::RProgram>),
    Func(Arc<[RStmt]>),
}

impl ProgramBody {
    fn stmts(&self) -> &[RStmt] {
        match self {
            ProgramBody::Program(p) => &p.body,
            ProgramBody::Func(b) => b,
        }
    }
}

/// Names a body binds in its own scope, for pre-binding at scope creation.
/// Matches exactly the binds the walker performs: assignment/for/listcomp
/// targets, import binds, def/class names and except-handler names. Nested
/// function and class *bodies* bind in their own scopes and are skipped.
pub(crate) fn assigned_names(body: &[RStmt], out: &mut BTreeSet<Symbol>) {
    for stmt in body {
        match stmt {
            RStmt::Expr(e) | RStmt::Del(e) | RStmt::Raise(Some(e)) => expr_names(e, out),
            RStmt::Assign { targets, value } => {
                for t in targets {
                    target_names(t, out);
                }
                expr_names(value, out);
            }
            RStmt::AugAssign { target, value, .. } => {
                // AugAssign resolves but never binds (old-engine semantics).
                expr_names(target, out);
                expr_names(value, out);
            }
            RStmt::If { branches, orelse } => {
                for (test, body) in branches {
                    expr_names(test, out);
                    assigned_names(body, out);
                }
                assigned_names(orelse, out);
            }
            RStmt::While { test, body } => {
                expr_names(test, out);
                assigned_names(body, out);
            }
            RStmt::For {
                targets,
                iter,
                body,
            } => {
                out.extend(targets.iter().copied());
                expr_names(iter, out);
                assigned_names(body, out);
            }
            RStmt::FuncDef(f) => {
                out.insert(f.sym);
                for p in &f.params {
                    if let Some(d) = &p.default {
                        expr_names(d, out);
                    }
                }
            }
            RStmt::ClassDef(c) => {
                out.insert(c.sym);
            }
            RStmt::Return(Some(e)) => expr_names(e, out),
            RStmt::Return(None)
            | RStmt::Raise(None)
            | RStmt::Pass
            | RStmt::Break
            | RStmt::Continue
            | RStmt::Global(_) => {}
            RStmt::Import { items } => {
                for item in items {
                    out.insert(item.bind);
                }
            }
            RStmt::FromImport { names, .. } => {
                for n in names {
                    if let RFromName::Named { bind, .. } = n {
                        out.insert(*bind);
                    }
                }
            }
            RStmt::Try {
                body,
                handlers,
                orelse,
                finalbody,
            } => {
                assigned_names(body, out);
                for h in handlers {
                    if let Some(n) = h.name {
                        out.insert(n);
                    }
                    assigned_names(&h.body, out);
                }
                assigned_names(orelse, out);
                assigned_names(finalbody, out);
            }
            RStmt::Assert { test, msg } => {
                expr_names(test, out);
                if let Some(m) = msg {
                    expr_names(m, out);
                }
            }
        }
    }
}

fn target_names(target: &RExpr, out: &mut BTreeSet<Symbol>) {
    match target {
        RExpr::Name(n) => {
            out.insert(*n);
        }
        RExpr::Tuple(ts) | RExpr::List(ts) => {
            for t in ts {
                target_names(t, out);
            }
        }
        other => expr_names(other, out),
    }
}

/// Collect list-comprehension targets (the only expression-level binds).
fn expr_names(e: &RExpr, out: &mut BTreeSet<Symbol>) {
    match e {
        RExpr::ListComp {
            element,
            targets,
            iter,
            cond,
        } => {
            out.extend(targets.iter().copied());
            expr_names(element, out);
            expr_names(iter, out);
            if let Some(c) = cond {
                expr_names(c, out);
            }
        }
        RExpr::List(items) | RExpr::Tuple(items) => {
            for i in items {
                expr_names(i, out);
            }
        }
        RExpr::Dict(pairs) => {
            for (k, v) in pairs {
                expr_names(k, out);
                expr_names(v, out);
            }
        }
        RExpr::Attribute { value, .. } => expr_names(value, out),
        RExpr::Subscript { value, index } => {
            expr_names(value, out);
            expr_names(index, out);
        }
        RExpr::Call { func, args, kwargs } => {
            expr_names(func, out);
            for a in args {
                expr_names(a, out);
            }
            for (_, v) in kwargs {
                expr_names(v, out);
            }
        }
        RExpr::Unary { operand, .. } => expr_names(operand, out),
        RExpr::Binary { left, right, .. } => {
            expr_names(left, out);
            expr_names(right, out);
        }
        RExpr::Bool { values, .. } => {
            for v in values {
                expr_names(v, out);
            }
        }
        RExpr::Compare { left, ops } => {
            expr_names(left, out);
            for (_, v) in ops {
                expr_names(v, out);
            }
        }
        RExpr::Conditional { test, body, orelse } => {
            expr_names(test, out);
            expr_names(body, out);
            expr_names(orelse, out);
        }
        RExpr::Slice { value, start, stop } => {
            expr_names(value, out);
            if let Some(s) = start {
                expr_names(s, out);
            }
            if let Some(s) = stop {
                expr_names(s, out);
            }
        }
        _ => {}
    }
}

// -- string-value lattice ----------------------------------------------------

/// Over-approximation of the string values an expression can evaluate to,
/// used to bound the attribute names a non-literal `getattr` can touch.
///
/// `Bottom` means no *string* can flow here (the expression only produces
/// non-string values); a runtime `getattr` with a non-string name raises
/// `TypeError` before touching any attribute, so `Bottom` soundly bounds
/// the accessed set to ∅. `Tainted` is ⊤: the value is not bounded by the
/// literals in the unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum StrVal {
    /// No string value reaches this point.
    Bottom,
    /// One of finitely many string literals.
    Known(BTreeSet<Arc<str>>),
    /// Unbounded.
    Tainted,
}

impl StrVal {
    fn join(&mut self, other: &StrVal) {
        match (&mut *self, other) {
            (StrVal::Tainted, _) | (_, StrVal::Bottom) => {}
            (_, StrVal::Tainted) => *self = StrVal::Tainted,
            (StrVal::Bottom, known) => *self = known.clone(),
            (StrVal::Known(a), StrVal::Known(b)) => a.extend(b.iter().cloned()),
        }
    }
}

/// The string values `e` can take under `env`. Names missing from the env
/// (free variables, parameters) are `Tainted`.
pub(crate) fn sv_expr(e: &RExpr, env: &BTreeMap<Symbol, StrVal>) -> StrVal {
    match e {
        RExpr::Str(s) => StrVal::Known(BTreeSet::from([Arc::clone(s)])),
        RExpr::Name(n) => env.get(n).cloned().unwrap_or(StrVal::Tainted),
        // A conditional evaluates to one of its arms; `and`/`or` chains
        // evaluate to one of their operands.
        RExpr::Conditional { body, orelse, .. } => {
            let mut v = sv_expr(body, env);
            v.join(&sv_expr(orelse, env));
            v
        }
        RExpr::Bool { values, .. } => {
            let mut v = StrVal::Bottom;
            for operand in values {
                v.join(&sv_expr(operand, env));
            }
            v
        }
        // Literals and containers never evaluate to a string.
        RExpr::None
        | RExpr::True
        | RExpr::False
        | RExpr::Int(_)
        | RExpr::Float(_)
        | RExpr::List(_)
        | RExpr::Tuple(_)
        | RExpr::Dict(_)
        | RExpr::ListComp { .. } => StrVal::Bottom,
        // Anything else (calls, attributes, subscripts, concatenation, ...)
        // can produce strings we cannot enumerate.
        _ => StrVal::Tainted,
    }
}

/// Build the per-unit string environment: a flow-insensitive (final-state)
/// map from local names to the string values any of their bindings can
/// produce. Loop bodies iterate to a fixpoint so loop-carried value chains
/// are covered; nested function bodies are separate units and are skipped.
pub(crate) fn build_str_env(body: &[RStmt]) -> BTreeMap<Symbol, StrVal> {
    let mut env = BTreeMap::new();
    sv_block(body, &mut env);
    env
}

fn sv_taint(e: &RExpr, env: &mut BTreeMap<Symbol, StrVal>) {
    let mut names = BTreeSet::new();
    expr_names(e, &mut names);
    for n in names {
        env.insert(n, StrVal::Tainted);
    }
}

fn sv_block(body: &[RStmt], env: &mut BTreeMap<Symbol, StrVal>) {
    for stmt in body {
        sv_stmt(stmt, env);
    }
}

fn sv_stmt(stmt: &RStmt, env: &mut BTreeMap<Symbol, StrVal>) {
    match stmt {
        RStmt::Assign { targets, value } => {
            // Taint list-comprehension targets inside the value first, then
            // join the value into a single-Name target. Multi-target and
            // destructuring forms taint every bound name.
            sv_taint(value, env);
            if let [RExpr::Name(n)] = targets.as_slice() {
                let v = sv_expr(value, env);
                env.entry(*n).or_insert(StrVal::Bottom).join(&v);
            } else {
                let mut names = BTreeSet::new();
                for t in targets {
                    target_names(t, &mut names);
                }
                for n in names {
                    env.insert(n, StrVal::Tainted);
                }
            }
        }
        RStmt::AugAssign { target, value, .. } => {
            sv_taint(value, env);
            let mut names = BTreeSet::new();
            target_names(target, &mut names);
            for n in names {
                env.insert(n, StrVal::Tainted);
            }
        }
        RStmt::Expr(e) | RStmt::Del(e) | RStmt::Raise(Some(e)) | RStmt::Return(Some(e)) => {
            sv_taint(e, env);
        }
        RStmt::Assert { test, msg } => {
            sv_taint(test, env);
            if let Some(m) = msg {
                sv_taint(m, env);
            }
        }
        RStmt::If { branches, orelse } => {
            for (test, body) in branches {
                sv_taint(test, env);
                sv_block(body, env);
            }
            sv_block(orelse, env);
        }
        RStmt::While { test, body } => {
            sv_taint(test, env);
            // Iterate to a fixpoint: a binding late in the body feeds reads
            // early in the body on the next iteration. Joins only grow
            // toward the finitely many literals in the body, so this
            // terminates.
            loop {
                let before = env.clone();
                sv_block(body, env);
                if *env == before {
                    break;
                }
            }
        }
        RStmt::For {
            targets,
            iter,
            body,
        } => {
            sv_taint(iter, env);
            for t in targets {
                env.insert(*t, StrVal::Tainted);
            }
            loop {
                let before = env.clone();
                sv_block(body, env);
                if *env == before {
                    break;
                }
            }
        }
        RStmt::FuncDef(f) => {
            for p in &f.params {
                if let Some(d) = &p.default {
                    sv_taint(d, env);
                }
            }
            // The body is a separate analysis unit with its own env.
            env.insert(f.sym, StrVal::Tainted);
        }
        RStmt::ClassDef(c) => {
            env.insert(c.sym, StrVal::Tainted);
            // The class body executes at the definition point; its binds
            // share this env's keys (a sound join, never an under-count).
            sv_block(&c.body, env);
        }
        RStmt::Import { items } => {
            for item in items {
                env.insert(item.bind, StrVal::Tainted);
            }
        }
        RStmt::FromImport { names, .. } => {
            for n in names {
                if let RFromName::Named { bind, .. } = n {
                    env.insert(*bind, StrVal::Tainted);
                }
            }
        }
        RStmt::Try {
            body,
            handlers,
            orelse,
            finalbody,
        } => {
            sv_block(body, env);
            for h in handlers {
                if let Some(n) = h.name {
                    env.insert(n, StrVal::Tainted);
                }
                sv_block(&h.body, env);
            }
            sv_block(orelse, env);
            sv_block(finalbody, env);
        }
        RStmt::Global(names) => {
            // Reads and writes go through module scope; do not bound them.
            for n in names {
                env.insert(*n, StrVal::Tainted);
            }
        }
        RStmt::Return(None) | RStmt::Raise(None) | RStmt::Pass | RStmt::Break | RStmt::Continue => {
        }
    }
}
