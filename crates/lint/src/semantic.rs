//! The inter-procedural rule families: `panic-path`, `effect-purity`,
//! `metric-key`.
//!
//! These run over the [`crate::symbols::Workspace`] + [`crate::callgraph`]
//! layer instead of single files, which is what lets them state *reachability*
//! claims: "no `unwrap` is reachable from an actor handler", "no
//! `ctx.spawn` is reachable from a `Concurrency::Concurrent` actor's
//! handlers" — the contracts PR 6 and PR 8 could only assert at runtime.
//! All resolution is conservative (see `callgraph`): an unresolvable call
//! keeps by-name edges, so a clean scan really means no statically visible
//! path exists.

use std::collections::{BTreeMap, BTreeSet};

use crate::analyze::Finding;
use crate::callgraph::{local_types, CallGraph};
use crate::lexer::TokKind;
use crate::rules;
use crate::symbols::{FnId, Workspace};

/// The metric-key registry: the observability layer's schema.
pub const REGISTRY_PATH: &str = "crates/simcore/src/metrics_keys.rs";

/// Actor handler methods — the roots of `panic-path` and `effect-purity`
/// reachability.
const HANDLERS: &[&str] = &["on_message", "on_batch", "on_start"];

/// Run every semantic rule. Findings go through the generic allow
/// suppression pass later.
pub fn run(ws: &Workspace, cg: &CallGraph) -> Vec<Finding> {
    let mut out = Vec::new();
    panic_path(ws, cg, &mut out);
    effect_purity(ws, cg, &mut out);
    metric_key(ws, &mut out);
    out
}

/// Dedup: one finding per (file, line, rule).
fn push(out: &mut Vec<Finding>, file: &str, line: u32, rule: &'static str, message: String) {
    if !out
        .iter()
        .any(|f| f.rule == rule && f.line == line && f.file == file)
    {
        out.push(Finding {
            file: file.to_string(),
            line,
            rule,
            message,
        });
    }
}

/// Breadth-first reachability recording, per reached fn, the root handler
/// it was first reached from (for the finding message).
fn reach_with_roots(cg: &CallGraph, roots: &[FnId]) -> BTreeMap<FnId, FnId> {
    let mut origin: BTreeMap<FnId, FnId> = BTreeMap::new();
    let mut queue: Vec<FnId> = Vec::new();
    for &r in roots {
        origin.entry(r).or_insert(r);
        queue.push(r);
    }
    let mut qi = 0;
    while qi < queue.len() {
        let f = queue[qi];
        qi += 1;
        let root = origin[&f];
        for site in &cg.sites[f] {
            for &callee in &site.callees {
                if let std::collections::btree_map::Entry::Vacant(e) = origin.entry(callee) {
                    e.insert(root);
                    queue.push(callee);
                }
            }
        }
    }
    origin
}

fn qualified(ws: &Workspace, id: FnId) -> String {
    let f = &ws.fns[id];
    match &f.self_ty {
        Some(ty) => format!("{}::{}", ty, f.name),
        None => f.name.clone(),
    }
}

/// Known-integer base types for the division heuristic (float division
/// yields inf, it never panics — only integer division can abort).
const INT_TYPES: &[&str] = &[
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// `panic-path`: `unwrap`/`expect`/panicking macros/indexing-by-variable/
/// integer-division-by-variable in any fn reachable from an
/// `Actor::on_message`/`on_batch`/`on_start` impl, when the site sits in an
/// actor crate. A panic on one of these paths aborts the whole sim — under
/// fault injection that converts "degraded" into "crashed", which is
/// exactly what the LIDC location-independence claim cannot afford.
fn panic_path(ws: &Workspace, cg: &CallGraph, out: &mut Vec<Finding>) {
    let roots: Vec<FnId> = (0..ws.fns.len())
        .filter(|&id| {
            let f = &ws.fns[id];
            !f.is_test
                && f.trait_name.as_deref() == Some("Actor")
                && HANDLERS.contains(&f.name.as_str())
                && ws.files[f.file].ctx.is_actor_crate
        })
        .collect();
    let origin = reach_with_roots(cg, &roots);
    for (&id, &root) in &origin {
        let f = &ws.fns[id];
        let fctx = &ws.files[f.file].ctx;
        if f.is_test || !fctx.is_actor_crate {
            continue;
        }
        let via = if id == root {
            format!("actor handler `{}`", qualified(ws, id))
        } else {
            format!(
                "`{}`, reachable from actor handler `{}`",
                qualified(ws, id),
                qualified(ws, root)
            )
        };
        scan_panic_sites(ws, id, &via, fctx.rel_path.clone(), out);
    }
}

fn scan_panic_sites(
    ws: &Workspace,
    id: FnId,
    via: &str,
    file: String,
    out: &mut Vec<Finding>,
) {
    let toks = ws.toks_of(id);
    let (b0, b1) = ws.fns[id].body;
    let nested: Vec<(usize, usize)> = ws.files[ws.fns[id].file]
        .fns
        .iter()
        .filter(|&&o| o != id)
        .map(|&o| ws.fns[o].body)
        .filter(|&(o0, o1)| o0 > b0 && o1 <= b1)
        .collect();
    let in_nested = |i: usize| nested.iter().any(|&(a, b)| (a..b).contains(&i));
    let locals = local_types(ws, id);
    let mut i = b0;
    while i < b1 {
        if in_nested(i) {
            i += 1;
            continue;
        }
        let t = &toks[i];
        // `.unwrap()` / `.expect(...)`.
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > b0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            push(
                out,
                &file,
                t.line,
                rules::PANIC_PATH,
                format!(
                    "`.{}()` in {} — a poisoned Option/Result on this path aborts the sim; return a typed error, degrade gracefully, or annotate the invariant",
                    t.text, via
                ),
            );
        }
        // Panicking macros.
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "panic" | "unreachable" | "todo" | "unimplemented")
            && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
        {
            push(
                out,
                &file,
                t.line,
                rules::PANIC_PATH,
                format!(
                    "`{}!` in {} — an explicit abort on an actor path; degrade gracefully (NACK, drop, metric) or annotate why the state is impossible",
                    t.text, via
                ),
            );
        }
        // Indexing by a bare variable: `recv[ident]`.
        if t.is_punct('[')
            && i > b0
            && (toks[i - 1].kind == TokKind::Ident
                || toks[i - 1].is_punct(')')
                || toks[i - 1].is_punct(']'))
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            && toks.get(i + 2).is_some_and(|t| t.is_punct(']'))
            && !in_nested(i)
        {
            // Exclude obvious type positions (`[u8]` never parses here:
            // prev would be `&`/`<`) and attribute heads (prev is `#`).
            let idx = &toks[i + 1].text;
            if !INT_TYPES.contains(&idx.as_str()) {
                push(
                    out,
                    &file,
                    t.line,
                    rules::PANIC_PATH,
                    format!(
                        "indexing `[{idx}]` by a variable in {via} — out-of-range aborts the sim; use `.get({idx})` and handle the miss, or annotate the bound invariant"
                    ),
                );
            }
        }
        // Integer division by a bare variable of known integer type.
        if t.is_punct('/')
            && i > b0
            && (toks[i - 1].kind == TokKind::Ident
                || toks[i - 1].kind == TokKind::Literal
                || toks[i - 1].is_punct(')')
                || toks[i - 1].is_punct(']'))
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            && !toks.get(i + 2).is_some_and(|t| t.is_punct('(') || t.is_punct('.'))
        {
            let divisor = &toks[i + 1].text;
            if locals
                .get(divisor)
                .is_some_and(|ty| INT_TYPES.contains(&ty.as_str()))
            {
                push(
                    out,
                    &file,
                    t.line,
                    rules::PANIC_PATH,
                    format!(
                        "integer division by variable `{divisor}` in {via} — zero aborts the sim; guard with `max(1)`/an explicit check, or annotate the nonzero invariant"
                    ),
                );
            }
        }
        i += 1;
    }
}

/// `effect-purity`: `ctx.spawn`/`ctx.kill`/`ctx.halt` reachable from a
/// `Concurrency::Concurrent` actor's handlers. The engine *panics* when a
/// wave worker tries these (engine.rs documents the contract); this proves
/// the workspace honors it before any wave ever runs.
fn effect_purity(ws: &Workspace, cg: &CallGraph, out: &mut Vec<Finding>) {
    // Types whose `concurrency()` impl mentions `Concurrent`.
    let mut concurrent: BTreeSet<String> = BTreeSet::new();
    for f in &ws.fns {
        if f.name == "concurrency" && !f.is_test {
            if let Some(ty) = &f.self_ty {
                let toks = ws.toks_of(ws.fns.iter().position(|g| std::ptr::eq(g, f)).unwrap());
                let (b0, b1) = f.body;
                if toks[b0..b1].iter().any(|t| t.is_ident("Concurrent")) {
                    concurrent.insert(ty.clone());
                }
            }
        }
    }
    let roots: Vec<FnId> = (0..ws.fns.len())
        .filter(|&id| {
            let f = &ws.fns[id];
            !f.is_test
                && HANDLERS.contains(&f.name.as_str())
                && f.self_ty.as_ref().is_some_and(|ty| concurrent.contains(ty))
        })
        .collect();
    if roots.is_empty() {
        return;
    }
    let origin = reach_with_roots(cg, &roots);
    for (&id, &root) in &origin {
        let f = &ws.fns[id];
        if f.is_test {
            continue;
        }
        let toks = ws.toks_of(id);
        for site in &cg.sites[id] {
            if !matches!(site.name.as_str(), "spawn" | "kill" | "halt") {
                continue;
            }
            // Only the engine's effect API counts: a resolved `Ctx`
            // receiver, or an unresolved receiver literally named `ctx`
            // (`std::thread::scope(|scope| scope.spawn(..))` and
            // `Builder::spawn` are host threads, not engine effects).
            let recv_ident = (site.tok >= 2
                && toks[site.tok - 1].is_punct('.')
                && toks[site.tok - 2].kind == TokKind::Ident)
                .then(|| toks[site.tok - 2].text.as_str());
            let hits_ctx = site.recv_ty.as_deref() == Some("Ctx")
                || (site.recv_ty.is_none() && recv_ident == Some("ctx"));
            if !hits_ctx {
                continue;
            }
            let via = if id == root {
                format!("handler `{}`", qualified(ws, id))
            } else {
                format!(
                    "`{}`, reachable from handler `{}`",
                    qualified(ws, id),
                    qualified(ws, root)
                )
            };
            push(
                out,
                &ws.files[f.file].ctx.rel_path,
                site.line,
                rules::EFFECT_PURITY,
                format!(
                    "`ctx.{}` in {} of a Concurrency::Concurrent actor — wave workers panic on spawn/kill/halt at runtime; route the effect through an Exclusive actor or drop the Concurrent declaration",
                    site.name, via
                ),
            );
        }
    }
}

/// Parse the checked-in registry (`crates/simcore/src/metrics_keys.rs`):
/// every `pub const NAME: &str = "key";` item. Returns key → line.
pub fn parse_registry(ws: &Workspace) -> Option<(usize, BTreeMap<String, u32>)> {
    let file = ws
        .files
        .iter()
        .position(|f| f.ctx.rel_path == REGISTRY_PATH)?;
    let toks = &ws.files[file].lexed.toks;
    let mut keys = BTreeMap::new();
    let mut i = 0;
    while i + 6 < toks.len() {
        if toks[i].is_ident("const")
            && toks[i + 1].kind == TokKind::Ident
            && toks[i + 2].is_punct(':')
        {
            // Scan forward to `= "literal" ;` within the item.
            let mut j = i + 3;
            while j < toks.len() && !toks[j].is_punct(';') && !toks[j].is_punct('=') {
                j += 1;
            }
            if j < toks.len() && toks[j].is_punct('=') {
                if let Some(t) = toks.get(j + 1) {
                    if t.kind == TokKind::Literal && t.text.starts_with('"') {
                        let key = t.text.trim_matches('"').to_string();
                        keys.insert(key, toks[i + 1].line);
                    }
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    Some((file, keys))
}

/// Metrics recording methods whose first argument is the key.
const RECORDERS: &[&str] = &["incr", "record", "record_duration", "set_max"];

/// `metric-key`: every counter/histogram key recorded in non-test code
/// must appear in the checked-in registry, and every registered key must
/// be live somewhere — typos and orphans are both schema violations.
fn metric_key(ws: &Workspace, out: &mut Vec<Finding>) {
    let Some((reg_file, registry)) = parse_registry(ws) else {
        // No registry in the analyzed set (single-file fixture runs
        // without one): nothing to check against.
        return;
    };
    // Literal occurrences of each registered key outside the registry
    // file, for the orphan check (any file, tests included — a key only a
    // test asserts on is still live schema).
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    for (fi, fs) in ws.files.iter().enumerate() {
        if fi == reg_file {
            continue;
        }
        for t in &fs.lexed.toks {
            if t.kind == TokKind::Literal && t.text.starts_with('"') {
                let lit = t.text.trim_matches('"');
                if let Some((k, _)) = registry.get_key_value(lit) {
                    seen.insert(k.as_str());
                }
            }
        }
    }
    for (key, &line) in &registry {
        if !seen.contains(key.as_str()) {
            push(
                out,
                REGISTRY_PATH,
                line,
                rules::METRIC_KEY,
                format!(
                    "registered metric key \"{key}\" is recorded nowhere — remove it from the registry or wire up the recording site"
                ),
            );
        }
    }
    // Recording sites: `.recorder("key", ...)` with ≥2 top-level args (the
    // one-arg forms are `Histogram::record(v)` etc., which carry no key).
    for fs in &ws.files {
        let ctx = &fs.ctx;
        if ctx.is_test_code || ctx.is_bench_crate {
            continue;
        }
        if ctx.rel_path == REGISTRY_PATH || ctx.rel_path == "crates/simcore/src/metrics.rs" {
            continue; // the schema and the mechanism, not users of it
        }
        let toks = &fs.lexed.toks;
        let in_test = |line: u32| fs.test_regions.iter().any(|&(a, b)| (a..=b).contains(&line));
        for i in 0..toks.len() {
            let t = &toks[i];
            if t.kind != TokKind::Ident
                || !RECORDERS.contains(&t.text.as_str())
                || i == 0
                || !toks[i - 1].is_punct('.')
                || !toks.get(i + 1).is_some_and(|t| t.is_punct('('))
                || in_test(t.line)
            {
                continue;
            }
            // Count top-level args and grab the first token of arg 0.
            let mut depth = 0i32;
            let mut args = 0usize;
            let mut j = i + 1;
            let first_arg = toks.get(i + 2);
            while j < toks.len() {
                let t = &toks[j];
                if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                    depth += 1;
                } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        if j > i + 2 {
                            args += 1; // the final arg
                        }
                        break;
                    }
                } else if t.is_punct(',') && depth == 1 {
                    args += 1;
                }
                j += 1;
            }
            if args < 2 {
                continue;
            }
            match first_arg {
                Some(a) if a.kind == TokKind::Literal && a.text.starts_with('"') => {
                    let key = a.text.trim_matches('"');
                    if !registry.contains_key(key) {
                        push(
                            out,
                            &ctx.rel_path,
                            t.line,
                            rules::METRIC_KEY,
                            format!(
                                "metric key \"{key}\" is not in the registry ({REGISTRY_PATH}) — register it with a doc comment, or fix the typo"
                            ),
                        );
                    }
                }
                _ => {
                    push(
                        out,
                        &ctx.rel_path,
                        t.line,
                        rules::METRIC_KEY,
                        format!(
                            "metric key passed to `.{}` is not a string literal — the registry cannot check it; use a registered constant or annotate how every expansion is registered",
                            t.text
                        ),
                    );
                }
            }
        }
    }
}
