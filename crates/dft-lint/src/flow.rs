//! Statement/branch-aware intraprocedural analysis: the parse layer under
//! the SPMD collective-protocol lints (L006–L008).
//!
//! The token lints (L001–L005) look at one token plus a fixed window. The
//! collective-protocol lints need more structure: *which function* a call
//! sits in, *which branch* of an `if`/`match` it executes under, and
//! whether a condition depends on the local rank. This module recovers
//! exactly that much structure from the token stream — function items with
//! brace-matched bodies, `if`/`else if`/`else` chains, `match` arms — and
//! runs three checks over it:
//!
//! * **L006** — every rank must issue the same collective sequence. A
//!   rank-dependent `if`/`match` whose branches emit *different* collective
//!   sequences desynchronizes the gang (`if rank == 0 { allreduce }`
//!   deadlocks everyone else), as does an early exit (`return`/`?`/
//!   `break`/`continue`) under rank-dependent control flow when collectives
//!   follow later in the function. Calls are resolved through a
//!   call-summary set: a local function that (transitively) emits a
//!   collective counts as a collective at its call sites.
//! * **L007** — a `CommError` must reach the poison cascade or a typed
//!   error, never a swallow: `let _ = <comm call>;` without `?`,
//!   `.ok()`/`.unwrap_or*()` chained onto a comm call, and
//!   `Err(_) => continue` / `Err(_) => {}` arms over a comm-call scrutinee
//!   are all flagged.
//! * **L008** — inside `comm.rs`, every collective (a function that calls
//!   the one rooted routine `rooted`, or is named `group_*`) must derive
//!   the tag it hands to `rooted` or to a point-to-point call from a single
//!   registered `TagBand` const (`BAND.for_rank(..)` / `BAND.tag()`,
//!   directly or through a local binding or closure); the band's bounds are
//!   the ones the L003 const-evaluator already proves disjoint and
//!   rank-indexable, so no world or sub-communicator offset can escape it.

use crate::matching_brace;
use crate::token::{Tok, TokKind};
use std::collections::BTreeSet;

/// ThreadComm collective primitives: the seed of the call-summary set.
pub const COLLECTIVE_SEED: &[&str] = &[
    "barrier",
    "allreduce_sum_f64",
    "allreduce_max_u64",
    "group_allreduce_sum_f64",
    "group_allgather_f64",
    "group_broadcast_f64",
];

/// Comm-fallible primitives whose `Result<_, CommError>` must never be
/// swallowed (L007): the collectives plus the point-to-point layer.
pub const COMM_FALLIBLE: &[&str] = &[
    "barrier",
    "allreduce_sum_f64",
    "allreduce_max_u64",
    "group_allreduce_sum_f64",
    "group_allgather_f64",
    "group_broadcast_f64",
    "send_bytes",
    "recv_bytes",
    "recv_bytes_deadline",
    "try_recv_bytes",
    "send_f64",
    "recv_f64",
    "recv_f64_deadline",
    "try_recv_f64",
    "advance_epoch",
];

/// Calls whose second argument is the wire tag (L008): the one rooted
/// collective routine (a tag per sending rank) and the point-to-point layer.
const TAGGED_P2P: &[&str] = &[
    "rooted",
    "send_bytes",
    "recv_bytes",
    "recv_bytes_deadline",
    "try_recv_bytes",
    "send_f64",
    "recv_f64",
    "recv_f64_deadline",
    "try_recv_f64",
];

/// A raw finding before suppression filtering: `(line, col, message)`.
pub type RawDiag = (u32, u32, String);

/// One `fn` item: its name, brace-matched body, and the bodies of any
/// *nested* `fn` items (excluded from this function's analysis — closures,
/// by contrast, stay inline: `shared.with(|c| c.allreduce(..))` executes on
/// this function's control path).
#[derive(Debug)]
pub struct FnItem {
    pub name: String,
    /// Token range of the body, `(open_brace, close_brace + 1)`.
    pub body: (usize, usize),
    /// Body ranges of nested `fn` items inside `body`.
    pub inner: Vec<(usize, usize)>,
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Op {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
    }
    toks.len() - 1
}

/// Scan every `fn name(..) .. { .. }` item in the stream (methods, free
/// functions, nested functions — trait signatures without bodies are
/// skipped).
pub fn fn_items(toks: &[Tok]) -> Vec<FnItem> {
    let mut out: Vec<FnItem> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        let name = name_tok.text.clone();
        // body `{` before a top-level `;` (a `;` means a bodiless signature)
        let mut depth = 0i64;
        let mut k = i + 2;
        let mut open = None;
        while k < toks.len() {
            let t = &toks[k];
            if t.kind == TokKind::Op {
                match t.text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth == 0 => {
                        open = Some(k);
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            k += 1;
        }
        let Some(open) = open else {
            i = k + 1;
            continue;
        };
        let close = matching_brace(toks, open);
        out.push(FnItem {
            name,
            body: (open, close + 1),
            inner: Vec::new(),
        });
        // keep scanning *inside* the body so nested fns are collected too
        i = open + 1;
    }
    // attribute nested bodies to their enclosing item
    let ranges: Vec<(usize, usize)> = out.iter().map(|f| f.body).collect();
    for f in &mut out {
        for &(a, b) in &ranges {
            if a > f.body.0 && b <= f.body.1 {
                f.inner.push((a, b));
            }
        }
    }
    out
}

/// Does this token slice depend on the local rank? The heuristic names the
/// project's rank-identity spellings — `rank`, `my_rank`, `*_rank`,
/// `is_root`, the process-grid coordinate fields (`.dom`/`.band`/`.kgrp`),
/// ownership predicates (`owns_replicated_fields`, `owned_node`,
/// `owns_node`) — and
/// deliberately excludes uniform values (`nranks`, `n_ranks`, `n_band`,
/// `size`): a condition on the cluster *shape* is replicated.
fn slice_is_rank_dep(toks: &[Tok]) -> bool {
    toks.iter().enumerate().any(|(j, t)| {
        if t.kind != TokKind::Ident {
            return false;
        }
        if t.text == "rank"
            || t.text == "my_rank"
            || t.text == "is_root"
            || t.text == "owns_replicated_fields"
            || t.text == "owned_node"
            || t.text == "owns_node"
            || (t.text.ends_with("_rank") && t.text != "n_rank")
        {
            return true;
        }
        // grid coordinates are only rank identity as *field accesses*
        // (`pgrid.dom`); a bare `band` is usually a loop index
        matches!(t.text.as_str(), "dom" | "band" | "kgrp") && j > 0 && toks[j - 1].is_op(".")
    })
}

/// Is token `i` a call — an identifier directly followed by `(`?
fn is_call(toks: &[Tok], i: usize) -> bool {
    toks[i].kind == TokKind::Ident && toks.get(i + 1).is_some_and(|t| t.is_op("("))
}

/// First `{` at bracket depth 0 in `[from, hi)` — the block opener after an
/// `if`/`while`/`match` head (struct literals cannot appear unparenthesized
/// there, so the first depth-0 `{` is the block).
fn find_block_open(toks: &[Tok], from: usize, hi: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut k = from;
    while k < hi {
        let t = &toks[k];
        if t.kind == TokKind::Op {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => return Some(k),
                ";" if depth == 0 => return None,
                _ => {}
            }
        }
        k += 1;
    }
    None
}

/// Analysis context for one function body.
struct FlowCtx<'a> {
    toks: &'a [Tok],
    /// Function names known to (transitively) emit a collective, plus the
    /// `ThreadComm` collective primitives themselves.
    emitters: &'a BTreeSet<String>,
    /// Nested-`fn` body ranges to skip.
    inner: &'a [(usize, usize)],
    /// End of the enclosing function body (for the later-collective scan).
    fn_end: usize,
}

impl FlowCtx<'_> {
    fn in_inner(&self, i: usize) -> bool {
        self.inner.iter().any(|&(a, b)| a <= i && i < b)
    }

    fn is_collective_call(&self, i: usize) -> bool {
        is_call(self.toks, i) && self.emitters.contains(&self.toks[i].text) && !self.in_inner(i)
    }

    /// Collective-call names in `[lo, hi)` in token order.
    fn collective_seq(&self, lo: usize, hi: usize) -> Vec<String> {
        (lo..hi.min(self.toks.len()))
            .filter(|&i| self.is_collective_call(i))
            .map(|i| self.toks[i].text.clone())
            .collect()
    }

    fn has_collective(&self, lo: usize, hi: usize) -> bool {
        (lo..hi.min(self.toks.len())).any(|i| self.is_collective_call(i))
    }
}

fn fmt_seq(seq: &[String]) -> String {
    if seq.is_empty() {
        "(none)".to_string()
    } else {
        seq.join(", ")
    }
}

/// Does the statement the token at `k` belongs to contain a comm-fallible
/// or collective call *before* `k`? A `?` on such a call is not a desync
/// hazard: the error originated inside the comm layer, which has already
/// poisoned the communicator, so the failure cascades to every peer.
fn exit_guarded_by_comm(ctx: &FlowCtx<'_>, k: usize) -> bool {
    let mut depth = 0i64;
    let mut p = k;
    while p > 0 {
        p -= 1;
        let t = &ctx.toks[p];
        if t.kind == TokKind::Op {
            match t.text.as_str() {
                ")" | "]" | "}" => depth += 1,
                "(" | "[" | "{" => {
                    depth -= 1;
                    if depth < 0 {
                        break; // enclosing block/paren open: statement start
                    }
                }
                ";" if depth == 0 => break,
                _ => {}
            }
        }
        if t.kind == TokKind::Ident
            && (COMM_FALLIBLE.contains(&t.text.as_str()) || ctx.emitters.contains(&t.text))
            && is_call(ctx.toks, p)
        {
            return true;
        }
    }
    false
}

/// Flag early exits inside a rank-dependent branch `[a, b)` when collective
/// calls follow later in the function: the exiting rank skips them while
/// the other ranks block in them.
fn flag_early_exits(ctx: &FlowCtx<'_>, a: usize, b: usize, out: &mut Vec<RawDiag>) {
    for k in a..b.min(ctx.toks.len()) {
        if ctx.in_inner(k) {
            continue;
        }
        let t = &ctx.toks[k];
        let kind = if t.is_ident("return") {
            "return"
        } else if t.is_op("?") {
            "?"
        } else if t.is_ident("break") {
            "break"
        } else if t.is_ident("continue") {
            "continue"
        } else {
            continue;
        };
        if (t.is_op("?") || t.is_ident("return")) && exit_guarded_by_comm(ctx, k) {
            continue;
        }
        if ctx.has_collective(k + 1, ctx.fn_end) {
            out.push((
                t.line,
                t.col,
                format!(
                    "early exit `{kind}` under rank-dependent control flow skips later collective call(s): the exiting rank desynchronizes from peers still entering them"
                ),
            ));
        }
    }
}

/// Walk `[lo, hi)` of a function body: find rank-dependent `if` chains and
/// `match` expressions, compare the collective sequences of their branches,
/// and flag early exits inside rank-dependent branches.
fn walk(ctx: &FlowCtx<'_>, lo: usize, hi: usize, out: &mut Vec<RawDiag>) {
    let mut i = lo;
    while i < hi.min(ctx.toks.len()) {
        if ctx.in_inner(i) {
            i += 1;
            continue;
        }
        let t = &ctx.toks[i];
        let is_if = t.is_ident("if") || t.is_ident("while");
        if is_if {
            let Some(open) = find_block_open(ctx.toks, i + 1, hi) else {
                i += 1;
                continue;
            };
            let mut chain_dep = slice_is_rank_dep(&ctx.toks[i + 1..open]);
            let close = matching_brace(ctx.toks, open);
            let mut branches = vec![(open + 1, close)];
            let mut has_else = false;
            let mut j = close + 1;
            while j < hi && ctx.toks[j].is_ident("else") {
                if ctx.toks.get(j + 1).is_some_and(|n| n.is_ident("if")) {
                    let Some(o2) = find_block_open(ctx.toks, j + 2, hi) else {
                        break;
                    };
                    chain_dep |= slice_is_rank_dep(&ctx.toks[j + 2..o2]);
                    let c2 = matching_brace(ctx.toks, o2);
                    branches.push((o2 + 1, c2));
                    j = c2 + 1;
                } else if ctx.toks.get(j + 1).is_some_and(|n| n.is_op("{")) {
                    let c2 = matching_brace(ctx.toks, j + 1);
                    branches.push((j + 2, c2));
                    has_else = true;
                    j = c2 + 1;
                    break;
                } else {
                    break;
                }
            }
            // a rank-dependent `while` guards repetition, not selection:
            // compare body against the implicit empty fall-through
            if chain_dep {
                let mut seqs: Vec<Vec<String>> = branches
                    .iter()
                    .map(|&(a, b)| ctx.collective_seq(a, b))
                    .collect();
                if !has_else || t.is_ident("while") {
                    seqs.push(Vec::new());
                }
                if seqs.windows(2).any(|w| w[0] != w[1]) {
                    out.push((
                        t.line,
                        t.col,
                        format!(
                            "rank-dependent `{}` branches emit divergent collective sequences ({}): every rank must issue the same collectives in the same order",
                            t.text,
                            seqs.iter()
                                .map(|s| fmt_seq(s))
                                .collect::<Vec<_>>()
                                .join(" vs ")
                        ),
                    ));
                }
                for &(a, b) in &branches {
                    flag_early_exits(ctx, a, b, out);
                }
            }
            for &(a, b) in &branches {
                walk(ctx, a, b, out);
            }
            i = j;
        } else if t.is_ident("match") {
            let Some(open) = find_block_open(ctx.toks, i + 1, hi) else {
                i += 1;
                continue;
            };
            let close = matching_brace(ctx.toks, open);
            if slice_is_rank_dep(&ctx.toks[i + 1..open]) {
                let arms = match_arms(ctx.toks, open, close);
                let seqs: Vec<Vec<String>> = arms
                    .iter()
                    .map(|&(a, b)| ctx.collective_seq(a, b))
                    .collect();
                if seqs.windows(2).any(|w| w[0] != w[1]) {
                    out.push((
                        t.line,
                        t.col,
                        format!(
                            "rank-dependent `match` arms emit divergent collective sequences ({}): every rank must issue the same collectives in the same order",
                            seqs.iter()
                                .map(|s| fmt_seq(s))
                                .collect::<Vec<_>>()
                                .join(" vs ")
                        ),
                    ));
                }
                for &(a, b) in &arms {
                    flag_early_exits(ctx, a, b, out);
                }
            }
            walk(ctx, open + 1, close, out);
            i = close + 1;
        } else {
            i += 1;
        }
    }
}

/// Arm-expression token ranges of a `match` body `(open_brace, close_brace)`:
/// everything after each depth-0 `=>` up to the arm's end (matching brace
/// for block arms, depth-0 `,` otherwise).
fn match_arms(toks: &[Tok], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut arms = Vec::new();
    let mut depth = 0i64;
    let mut k = open + 1;
    while k < close {
        let t = &toks[k];
        if t.kind == TokKind::Op {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=>" if depth == 0 => {
                    let start = k + 1;
                    let end = if toks.get(start).is_some_and(|n| n.is_op("{")) {
                        matching_brace(toks, start) + 1
                    } else {
                        let mut d = 0i64;
                        let mut m = start;
                        while m < close {
                            let u = &toks[m];
                            if u.kind == TokKind::Op {
                                match u.text.as_str() {
                                    "(" | "[" | "{" => d += 1,
                                    ")" | "]" | "}" => d -= 1,
                                    "," if d == 0 => break,
                                    _ => {}
                                }
                            }
                            m += 1;
                        }
                        m
                    };
                    arms.push((start, end.min(close)));
                    k = end;
                    continue;
                }
                _ => {}
            }
        }
        k += 1;
    }
    arms
}

/// L006 over one file: analyze every function body against the emitter
/// summary set.
pub fn lint_collective_ordering(
    toks: &[Tok],
    test: &[(usize, usize)],
    emitters: &BTreeSet<String>,
    out: &mut Vec<RawDiag>,
) {
    for f in fn_items(toks) {
        if test.iter().any(|&(a, b)| a <= f.body.0 && f.body.0 < b) {
            continue;
        }
        let ctx = FlowCtx {
            toks,
            emitters,
            inner: &f.inner,
            fn_end: f.body.1,
        };
        walk(&ctx, f.body.0 + 1, f.body.1.saturating_sub(1), out);
    }
}

/// Per-file direct call facts for the call-summary fixed point: for every
/// function, the set of identifiers it calls.
pub fn direct_calls(toks: &[Tok]) -> Vec<(String, BTreeSet<String>)> {
    fn_items(toks)
        .iter()
        .map(|f| {
            let calls = (f.body.0..f.body.1.min(toks.len()))
                .filter(|&i| is_call(toks, i) && !f.inner.iter().any(|&(a, b)| a <= i && i < b))
                .map(|i| toks[i].text.clone())
                .collect();
            (f.name.clone(), calls)
        })
        .collect()
}

/// Close a set of per-function call facts over [`COLLECTIVE_SEED`]: the
/// returned set contains the seed primitives plus every function name that
/// transitively reaches one.
pub fn close_over_collectives(facts: &[(String, BTreeSet<String>)]) -> BTreeSet<String> {
    let mut emitters: BTreeSet<String> = COLLECTIVE_SEED.iter().map(|s| s.to_string()).collect();
    loop {
        let mut grew = false;
        for (name, calls) in facts {
            if !emitters.contains(name) && calls.iter().any(|c| emitters.contains(c)) {
                emitters.insert(name.clone());
                grew = true;
            }
        }
        if !grew {
            break;
        }
    }
    emitters
}

// ---------------------------------------------------------------------------
// L007: swallowed CommError paths
// ---------------------------------------------------------------------------

fn is_comm_fallible_call(toks: &[Tok], i: usize) -> bool {
    is_call(toks, i)
        && COMM_FALLIBLE.contains(&toks[i].text.as_str())
        && i > 0
        && toks[i - 1].is_op(".")
}

/// L007 over one file.
pub fn lint_poison_safety(toks: &[Tok], test: &[(usize, usize)], out: &mut Vec<RawDiag>) {
    let in_test = |i: usize| test.iter().any(|&(a, b)| a <= i && i < b);

    // rule 1: `let _ = <expr with a comm call>;` with no `?` and no
    // `.is_err()`/`.is_ok()` observation in the statement
    let mut i = 0;
    while i + 2 < toks.len() {
        if !(toks[i].is_ident("let") && toks[i + 1].is_ident("_") && toks[i + 2].is_op("=")) {
            i += 1;
            continue;
        }
        // statement extent: to the `;` at depth 0
        let mut depth = 0i64;
        let mut k = i + 3;
        let mut semi = toks.len();
        while k < toks.len() {
            let t = &toks[k];
            if t.kind == TokKind::Op {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth == 0 => {
                        semi = k;
                        break;
                    }
                    _ => {}
                }
            }
            k += 1;
        }
        let stmt = &toks[i + 3..semi.min(toks.len())];
        let comm_call = (i + 3..semi.min(toks.len())).find(|&j| is_comm_fallible_call(toks, j));
        if let Some(j) = comm_call {
            let observed = stmt
                .iter()
                .any(|t| t.is_op("?") || t.is_ident("is_err") || t.is_ident("is_ok"));
            if !observed && !in_test(j) {
                out.push((
                    toks[j].line,
                    toks[j].col,
                    format!(
                        "`let _ =` swallows the `CommError` from `.{}()`: a failed comm op must reach the poison cascade or a typed error (bind it, `?` it, or observe `.is_err()`)",
                        toks[j].text
                    ),
                ));
            }
        }
        i = semi + 1;
    }

    // rule 2: `.ok()` / `.unwrap_or*()` chained directly onto a comm call
    for j in 0..toks.len() {
        if !is_comm_fallible_call(toks, j) || in_test(j) {
            continue;
        }
        let close = matching_paren(toks, j + 1);
        let chained = toks.get(close + 1).is_some_and(|t| t.is_op("."))
            && toks.get(close + 2).is_some_and(|t| {
                matches!(
                    t.text.as_str(),
                    "ok" | "unwrap_or" | "unwrap_or_else" | "unwrap_or_default"
                )
            });
        if chained {
            out.push((
                toks[close + 2].line,
                toks[close + 2].col,
                format!(
                    "`.{}()` discards the `CommError` from `.{}()`: a failed comm op must reach the poison cascade or a typed error",
                    toks[close + 2].text, toks[j].text
                ),
            ));
        }
    }

    // rule 3: `Err(..) => continue` / `Err(..) => {}` over a comm-call
    // scrutinee
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("match") {
            i += 1;
            continue;
        }
        let Some(open) = find_block_open(toks, i + 1, toks.len()) else {
            i += 1;
            continue;
        };
        let close = matching_brace(toks, open);
        let scrutinee_comm = (i + 1..open).any(|j| is_comm_fallible_call(toks, j));
        if scrutinee_comm && !in_test(i) {
            let mut depth = 0i64;
            let mut k = open + 1;
            while k < close {
                let t = &toks[k];
                if t.kind == TokKind::Op {
                    match t.text.as_str() {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "=>" if depth == 0 => {
                            // pattern starts after the previous arm/`{`;
                            // look back for an `Err` head
                            let mut p = k;
                            let mut err_tok = None;
                            while p > open {
                                p -= 1;
                                let u = &toks[p];
                                if u.is_op(",") || u.is_op("{") {
                                    break;
                                }
                                if u.is_ident("Err") {
                                    err_tok = Some(p);
                                }
                            }
                            if let Some(e) = err_tok {
                                let body = &toks[k + 1..close.min(toks.len())];
                                let swallowed =
                                    body.first().is_some_and(|t| t.is_ident("continue"))
                                        || (body.first().is_some_and(|t| t.is_op("{"))
                                            && body.get(1).is_some_and(|t| t.is_op("}")))
                                        || (body.first().is_some_and(|t| t.is_op("("))
                                            && body.get(1).is_some_and(|t| t.is_op(")")));
                                if swallowed {
                                    out.push((
                                        toks[e].line,
                                        toks[e].col,
                                        "`Err` arm swallows a `CommError` (bare `continue`/empty body): a failed comm op must reach the poison cascade or a typed error".to_string(),
                                    ));
                                }
                            }
                        }
                        _ => {}
                    }
                }
                k += 1;
            }
        }
        i = close + 1;
    }
}

// ---------------------------------------------------------------------------
// L008: tag-band discipline in group contexts (comm.rs)
// ---------------------------------------------------------------------------

/// L008 over `comm.rs`: inside every collective — a function that calls
/// `rooted` or is named `group_*` — each tagged call must derive its tag
/// from exactly one registered `TagBand` const via `.for_rank(..)` or
/// `.tag()`. `band_consts` is the set of const names whose right-hand side
/// declares a `TagBand` literal — the registry the L003 const-evaluator has
/// already proven disjoint and wide enough for `base + rank` offsets.
pub fn lint_group_tag_discipline(
    toks: &[Tok],
    test: &[(usize, usize)],
    band_consts: &BTreeSet<String>,
    out: &mut Vec<RawDiag>,
) {
    // the band a token slice starts deriving a tag from, if any
    let band_of = |t: &[Tok]| match t {
        [c, dot, m, ..]
            if band_consts.contains(&c.text)
                && dot.is_op(".")
                && (m.is_ident("for_rank") || m.is_ident("tag")) =>
        {
            Some(c.text.clone())
        }
        _ => None,
    };
    for f in fn_items(toks) {
        let body = f.body.0..f.body.1.min(toks.len());
        let calls_rooted = body
            .clone()
            .any(|i| toks[i].is_ident("rooted") && is_call(toks, i));
        if !(calls_rooted || f.name.starts_with("group_")) {
            continue;
        }
        if test.iter().any(|&(a, b)| a <= f.body.0 && f.body.0 < b) {
            continue;
        }
        // `let t = BAND.for_rank(..)` / `let t = |m| BAND.for_rank(m)`
        // bindings usable as tag arguments
        let mut bound: Vec<(String, String)> = Vec::new(); // (local, band)
        for i in body.clone() {
            if !(toks[i].is_ident("let")
                && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
                && toks.get(i + 2).is_some_and(|t| t.is_op("=")))
            {
                continue;
            }
            // skip a one-parameter closure header `|m|`
            let rhs = if toks.get(i + 3).is_some_and(|t| t.is_op("|"))
                && toks.get(i + 5).is_some_and(|t| t.is_op("|"))
            {
                i + 6
            } else {
                i + 3
            };
            if let Some(band) = toks.get(rhs..).and_then(band_of) {
                bound.push((toks[i + 1].text.clone(), band));
            }
        }
        let mut used: Vec<(String, u32, u32)> = Vec::new();
        for i in body {
            if !(is_call(toks, i)
                && TAGGED_P2P.contains(&toks[i].text.as_str())
                && i > 0
                && toks[i - 1].is_op("."))
            {
                continue;
            }
            let open = i + 1;
            let close = matching_paren(toks, open);
            let args = crate::split_top_level(&toks[open + 1..close]);
            let Some(&(a, b)) = args.get(1) else {
                continue;
            };
            let arg = &toks[open + 1 + a..open + 1 + b];
            let band = band_of(arg).or_else(|| match arg {
                [v] if v.kind == TokKind::Ident => bound
                    .iter()
                    .find(|(local, _)| *local == v.text)
                    .map(|(_, band)| band.clone()),
                _ => None,
            });
            match band {
                Some(b) => used.push((b, toks[i].line, toks[i].col)),
                None => out.push((
                    toks[i].line,
                    toks[i].col,
                    format!(
                        "tag for `.{}()` in collective `{}` is not derived from a registered TagBand (`BAND.for_rank(..)`/`BAND.tag()`): collective tags must stay inside their L003-proven band",
                        toks[i].text, f.name
                    ),
                )),
            }
        }
        for w in used.windows(2) {
            if w[1].0 != w[0].0 {
                out.push((
                    w[1].1,
                    w[1].2,
                    format!(
                        "collective `{}` mixes tag bands `{}` and `{}`: one collective must stay inside one registered band",
                        f.name, w[0].0, w[1].0
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::token::tokenize;

    fn seed() -> BTreeSet<String> {
        COLLECTIVE_SEED.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn fn_items_find_bodies_and_nested() {
        let (toks, _) = tokenize("fn a() { fn b() {} x(); } fn c();");
        let fns = fn_items(&toks);
        assert_eq!(fns.len(), 2);
        assert_eq!(fns[0].name, "a");
        assert_eq!(fns[0].inner.len(), 1);
        assert_eq!(fns[1].name, "b");
    }

    #[test]
    fn rank_conditional_collective_is_divergent() {
        let (toks, _) = tokenize(
            "fn f(c: &mut C, rank: usize) { if rank == 0 { c.allreduce_sum_f64(&mut v, w); } }",
        );
        let mut out = Vec::new();
        lint_collective_ordering(&toks, &[], &seed(), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].2.contains("divergent collective sequences"));
    }

    #[test]
    fn equal_sequences_in_both_branches_are_clean() {
        let (toks, _) = tokenize(
            "fn f(c: &mut C, rank: usize) { if rank == 0 { c.barrier()?; } else { c.barrier()?; } }",
        );
        let mut out = Vec::new();
        lint_collective_ordering(&toks, &[], &seed(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn rank_zero_fs_write_is_clean() {
        let (toks, _) = tokenize("fn f(rank: usize) { if rank == 0 { write_state(p); } }");
        let mut out = Vec::new();
        lint_collective_ordering(&toks, &[], &seed(), &mut out);
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn early_exit_before_later_collective_is_flagged() {
        let (toks, _) =
            tokenize("fn f(c: &mut C, rank: usize) { if rank == 0 { save()?; } c.barrier()?; }");
        let mut out = Vec::new();
        lint_collective_ordering(&toks, &[], &seed(), &mut out);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].2.contains("early exit `?`"), "{out:?}");
    }

    #[test]
    fn summary_propagates_through_local_fns() {
        let src = "fn helper(c: &mut C) { c.barrier().unwrap_or(()); }\n\
                   fn f(c: &mut C, rank: usize) { if rank == 0 { helper(c); } }";
        let (toks, _) = tokenize(src);
        let emitters = close_over_collectives(&direct_calls(&toks));
        assert!(emitters.contains("helper"));
        let mut out = Vec::new();
        lint_collective_ordering(&toks, &[], &emitters, &mut out);
        assert!(out.iter().any(|d| d.2.contains("divergent")), "{out:?}");
    }

    #[test]
    fn l007_swallows_are_flagged_and_observation_is_not() {
        let src = "fn f(c: &mut C) { let _ = c.allreduce_sum_f64(&mut v, w); \
                   let r = c.barrier(); if r.is_err() { return; } \
                   let _ = c.advance_epoch()?; \
                   c.try_recv_f64(s, t, w).ok(); \
                   match c.recv_f64_deadline(s, t, w, d) { Ok(v) => use_it(v), Err(_) => {} } }";
        let (toks, _) = tokenize(src);
        let mut out = Vec::new();
        lint_poison_safety(&toks, &[], &mut out);
        assert_eq!(out.len(), 3, "{out:?}");
    }

    #[test]
    fn l008_raw_tag_and_mixed_bands_flagged() {
        let src = "fn group_x(c: &mut C) { c.send_f64(m, 77, &d, w)?; \
                   c.send_f64(m, A_BAND.for_rank(r), &d, w)?; \
                   c.recv_f64(m, B_BAND.tag(), w)?; }";
        let (toks, _) = tokenize(src);
        let bands: BTreeSet<String> = ["A_BAND", "B_BAND"].iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        lint_group_tag_discipline(&toks, &[], &bands, &mut out);
        assert!(out.iter().any(|d| d.2.contains("not derived")), "{out:?}");
        assert!(
            out.iter().any(|d| d.2.contains("mixes tag bands")),
            "{out:?}"
        );
    }
}
