//! `dft-lint`: project-invariant static analysis for the dft-fe-mlxc
//! workspace.
//!
//! The distributed ChFES/SCF stack (PRs 3–4) rests on conventions that
//! rustc cannot check: no panic paths in fault-tolerant code, no blocking
//! receive without a deadline, wire-tag bands that never collide, bitwise
//! reproducible reductions, and allocation-free hot kernels. This crate
//! turns each convention into a machine-checked lint with a stable ID:
//!
//! | ID   | Invariant |
//! |------|-----------|
//! | L001 | no `unwrap`/`expect`/`panic!`/`unreachable!` in non-test code of `dft-hpc`/`dft-serve` and `dft-core`'s `src/cluster/` (failures must surface as `CommError`/`ScfError`/`JobStatus::Failed`) |
//! | L002 | no raw blocking receive (`recv_bytes`/`recv_f64`) outside `comm.rs` internals — use the `_deadline` or `try_` variants |
//! | L003 | every wire tag in `comm.rs` comes from the declared `TagBand` registry, and the declared bands are statically proven pairwise disjoint, bounded by `MAX_RANKS`, and inside `COLLECTIVE_TAGS` |
//! | L004 | determinism: no `==`/`!=` on float expressions (workspace-wide), no `HashMap`/`HashSet` in the deterministic reduction code of `dft-hpc`/`dft-serve` and `dft-core`'s `src/cluster/` |
//! | L005 | no allocation (`Vec::new`, `vec![`, `.collect()`, `.clone()`, `.to_vec()`) inside functions marked `dftlint:hot` on the preceding line |
//! | L006 | SPMD collective ordering: no collective under rank-dependent control flow with divergent per-branch sequences, no early exit (`return`/`?`/`break`/`continue`) in a rank-dependent branch when collectives follow — resolved through a workspace call-summary graph |
//! | L007 | poison safety: a `CommError` is never swallowed (`let _ =`, `.ok()`, `.unwrap_or*()`, `Err(_) => continue`/`{}`) — it must reach the poison cascade or a typed error |
//! | L008 | collective tag discipline in `comm.rs`: every collective (a caller of the one rooted routine `rooted`, or a `group_*` function) derives the tag it hands on from exactly one registered `TagBand` (`BAND.for_rank(..)`/`BAND.tag()`), whose bounds the L003 const-evaluator proves |
//! | L009 | production code is what production calls: every `pub fn` under `crates/*/src` is reached from non-test code — the crates' `src/` (bins included) and `benches/`, the root `src/` and `examples/`, and `benchmark/src`; test support and oracles carry an allow naming the suite they serve. A method of an inherent `impl T` is reached through `T`: a path `T::m`, `T::<..>::m`, or `Self::m`/`self.m(` inside an `impl T`, or a call `.m(` — anywhere when no other type, trait or common std type has an `m`, otherwise only in a file that names `T` or `T`'s crate (`dft_x`, or `x` through the root facade). A free `pub fn` is reached by any bare or path reference, not by a `.f(` call; in a file that binds `let [mut] x`, a bare `x` that is not called is that local, not a caller |
//!
//! A violation can be suppressed — with a mandatory justification — by a
//! line comment on the same or the preceding line:
//!
//! ```text
//! // dftlint:allow(L001, reason="chunks_exact(8) guarantees 8-byte slices")
//! ```
//!
//! An `allow` with a missing/empty reason or an unknown lint ID is itself
//! reported as `L000`. Fixture files may pin their lint context with
//! `dftlint:fixture(crate="dft-hpc", file="comm.rs")` as the first comment;
//! `file` may be a workspace-relative path
//! (`file="crates/dft-core/src/cluster/scf.rs"`).

pub mod expr;
pub mod flow;
pub mod token;

use expr::ConstEnv;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use token::{tokenize, Comment, Tok, TokKind};

/// One lint finding at an exact source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Display path of the offending file (workspace-relative when walked).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Stable lint ID (`L000`..`L009`).
    pub id: &'static str,
    /// Human-readable description of the violated invariant.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {} {}",
            self.file, self.line, self.col, self.id, self.message
        )
    }
}

/// Lint context for one file: which crate it belongs to and its path
/// (several lints are scoped per crate, per directory or per file name).
#[derive(Debug, Clone)]
pub struct FileCtx {
    /// Workspace crate name (e.g. `dft-hpc`), or `fixture` for test inputs.
    pub crate_name: String,
    /// Path used in diagnostics and for scoping (workspace-relative when
    /// walked).
    pub display: String,
}

/// Crates whose non-test code must stay panic-free (L001) and
/// `HashMap`-free (L004), and whose collectives L006/L007 check: the
/// fault-tolerant distributed stack, and (by path) the rank's half of the
/// solver that `dft-core` holds.
const FAULT_TOLERANT_CRATES: &[&str] = &["dft-hpc", "dft-serve"];
const FAULT_TOLERANT_DIRS: &[&str] = &["crates/dft-core/src/cluster/"];

fn is_fault_tolerant(crate_name: &str, path: &str) -> bool {
    FAULT_TOLERANT_CRATES.contains(&crate_name)
        || FAULT_TOLERANT_DIRS.iter().any(|d| path.contains(d))
}

/// All known lint IDs (for `allow` validation and `--summary` buckets).
pub const LINT_IDS: &[&str] = &[
    "L001", "L002", "L003", "L004", "L005", "L006", "L007", "L008", "L009",
];

/// The root package: its `src/` is read for L009 callers, but its items
/// are the public facade and are not held to L009.
const ROOT_PACKAGE: &str = "dft-fe-mlxc";
const ROOT_IDENT: &str = "dft_fe_mlxc";

/// Workspace-wide facts the per-file lints resolve against.
#[derive(Debug, Default)]
pub struct WorkspaceFacts {
    /// L006: function names that transitively issue a collective, plus the
    /// `ThreadComm` primitives.
    pub emitters: BTreeSet<String>,
    /// L009: the production references of every file read.
    pub refs: Vec<FileRefs>,
    /// L009: every method name, with the types and traits that define it.
    pub methods: BTreeMap<String, BTreeSet<String>>,
}

// ---------------------------------------------------------------------------
// Directives (parsed from line comments)
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct Allow {
    id: String,
    /// Line the suppression applies to (same line for trailing comments,
    /// next code line for own-line comments).
    target_line: u32,
}

#[derive(Debug)]
struct Directives {
    fixture: Option<(String, String)>,
    allows: Vec<Allow>,
    /// Lines of `dftlint:hot` markers.
    hot_lines: Vec<(u32, u32)>,
    /// Malformed-directive findings (L000).
    errors: Vec<(u32, u32, String)>,
}

/// Extract `key="value"` from a directive argument list.
fn directive_value<'a>(args: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("{key}=\"");
    let start = args.find(&pat)? + pat.len();
    let rest = &args[start..];
    let end = rest.find('"')?;
    Some(&rest[..end])
}

fn parse_directives(comments: &[Comment], toks: &[Tok]) -> Directives {
    let mut d = Directives {
        fixture: None,
        allows: Vec::new(),
        hot_lines: Vec::new(),
        errors: Vec::new(),
    };
    for c in comments {
        let text = c.text.trim_start();
        let Some(rest) = text.strip_prefix("dftlint:") else {
            continue;
        };
        if rest.starts_with("hot") {
            d.hot_lines.push((c.line, c.col));
        } else if let Some(args) = rest.strip_prefix("allow(") {
            // close at the LAST `)`: the reason string may contain parens
            let Some(close) = args.rfind(')') else {
                d.errors
                    .push((c.line, c.col, "unclosed `dftlint:allow(`".into()));
                continue;
            };
            let args = &args[..close];
            let id = args
                .split([',', ')'])
                .next()
                .unwrap_or("")
                .trim()
                .to_string();
            if !LINT_IDS.contains(&id.as_str()) {
                d.errors.push((
                    c.line,
                    c.col,
                    format!("`dftlint:allow` names unknown lint ID `{id}`"),
                ));
                continue;
            }
            match directive_value(args, "reason") {
                Some(r) if !r.trim().is_empty() => {
                    let target_line = allow_target_line(c, toks);
                    d.allows.push(Allow { id, target_line });
                }
                Some(_) => d.errors.push((
                    c.line,
                    c.col,
                    format!("`dftlint:allow({id})` has an empty reason — justify the suppression"),
                )),
                None => d.errors.push((
                    c.line,
                    c.col,
                    format!(
                        "`dftlint:allow({id})` is missing the mandatory `reason=\"...\"` argument"
                    ),
                )),
            }
        } else if let Some(args) = rest.strip_prefix("fixture(") {
            let args = args.split(')').next().unwrap_or("");
            match (
                directive_value(args, "crate"),
                directive_value(args, "file"),
            ) {
                (Some(k), Some(f)) => d.fixture = Some((k.to_string(), f.to_string())),
                _ => d.errors.push((
                    c.line,
                    c.col,
                    "`dftlint:fixture` needs both `crate=\"..\"` and `file=\"..\"`".into(),
                )),
            }
        } else {
            d.errors.push((
                c.line,
                c.col,
                format!(
                    "unknown dftlint directive `{}` (expected allow/hot/fixture)",
                    rest.split(['(', ' ']).next().unwrap_or(rest)
                ),
            ));
        }
    }
    d
}

/// The line an `allow` comment suppresses: its own line when code precedes
/// it (trailing comment), otherwise the next line holding any token.
fn allow_target_line(c: &Comment, toks: &[Tok]) -> u32 {
    let trailing = toks.iter().any(|t| t.line == c.line && t.col < c.col);
    if trailing {
        return c.line;
    }
    toks.iter()
        .map(|t| t.line)
        .filter(|&l| l > c.line)
        .min()
        .unwrap_or(c.line)
}

// ---------------------------------------------------------------------------
// Structural regions
// ---------------------------------------------------------------------------

/// Half-open token-index ranges.
type Regions = Vec<(usize, usize)>;

fn in_regions(regions: &Regions, i: usize) -> bool {
    regions.iter().any(|&(a, b)| a <= i && i < b)
}

/// Index of the `}` matching the `{` at `open`, or the end of the stream.
pub(crate) fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_op("{") {
            depth += 1;
        } else if t.is_op("}") {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len() - 1
}

/// True if the attribute token slice (between `[` and `]`) marks test-only
/// code: `#[test]` or any `#[cfg(...)]` whose condition mentions `test`
/// outside a `not(..)`.
fn attr_is_test(attr: &[Tok]) -> bool {
    if attr.len() == 1 && attr[0].is_ident("test") {
        return true;
    }
    if !attr.first().is_some_and(|t| t.is_ident("cfg")) {
        return false;
    }
    for (k, t) in attr.iter().enumerate() {
        if t.is_ident("test") {
            let negated = k >= 2 && attr[k - 2].is_ident("not") && attr[k - 1].is_op("(");
            if !negated {
                return true;
            }
        }
    }
    false
}

/// Token ranges of items under `#[test]` / `#[cfg(test)]` (and stacked
/// attributes), i.e. code exempt from the non-test lints.
fn test_regions(toks: &[Tok]) -> Regions {
    let mut regions = Regions::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if !(toks[i].is_op("#") && toks[i + 1].is_op("[")) {
            i += 1;
            continue;
        }
        // find the matching `]`
        let mut depth = 0usize;
        let mut close = i + 1;
        for (k, t) in toks.iter().enumerate().skip(i + 1) {
            if t.is_op("[") {
                depth += 1;
            } else if t.is_op("]") {
                depth -= 1;
                if depth == 0 {
                    close = k;
                    break;
                }
            }
        }
        if !attr_is_test(&toks[i + 2..close]) {
            i = close + 1;
            continue;
        }
        // skip any further attributes, then span the item body
        let mut j = close + 1;
        while j + 1 < toks.len() && toks[j].is_op("#") && toks[j + 1].is_op("[") {
            let mut depth = 0usize;
            let mut k = j + 1;
            while k < toks.len() {
                if toks[k].is_op("[") {
                    depth += 1;
                } else if toks[k].is_op("]") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                k += 1;
            }
            j = k + 1;
        }
        // item body: first `{` before a top-level `;`
        let mut k = j;
        let mut body = None;
        while k < toks.len() {
            if toks[k].is_op("{") {
                body = Some(k);
                break;
            }
            if toks[k].is_op(";") {
                break;
            }
            k += 1;
        }
        match body {
            Some(open) => {
                let end = matching_brace(toks, open);
                regions.push((i, end + 1));
                i = end + 1;
            }
            None => i = k + 1,
        }
    }
    regions
}

/// A function whose body is marked `dftlint:hot`.
#[derive(Debug)]
struct HotFn {
    name: String,
    body: (usize, usize),
}

fn hot_functions(
    hot_lines: &[(u32, u32)],
    toks: &[Tok],
    errors: &mut Vec<(u32, u32, String)>,
) -> Vec<HotFn> {
    let mut out = Vec::new();
    for &(line, col) in hot_lines {
        let fn_idx = toks
            .iter()
            .position(|t| t.is_ident("fn") && (t.line > line || (t.line == line && t.col > col)));
        let Some(fi) = fn_idx else {
            errors.push((
                line,
                col,
                "`dftlint:hot` does not precede a function".into(),
            ));
            continue;
        };
        let name = toks
            .get(fi + 1)
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.clone())
            .unwrap_or_else(|| "?".into());
        // the body opens at the first `{`; a `;` ends a bodiless
        // declaration unless it sits inside the signature's own brackets
        // (an array type such as `[f64; 3]`)
        let mut k = fi;
        let mut open = None;
        let mut depth = 0usize;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_op("(") || t.is_op("[") {
                depth += 1;
            } else if t.is_op(")") || t.is_op("]") {
                depth = depth.saturating_sub(1);
            } else if t.is_op("{") {
                open = Some(k);
                break;
            } else if t.is_op(";") && depth == 0 {
                break;
            }
            k += 1;
        }
        let Some(open) = open else {
            errors.push((
                line,
                col,
                format!("`dftlint:hot` marks bodiless function `{name}`"),
            ));
            continue;
        };
        let end = matching_brace(toks, open);
        out.push(HotFn {
            name,
            body: (open, end + 1),
        });
    }
    out
}

// ---------------------------------------------------------------------------
// L009: production callers
// ---------------------------------------------------------------------------

/// Methods of the std types production code holds everywhere (`Vec`,
/// slices, `Option`, maps, iterators, locks, atomics, threads): a `.m(`
/// call of one of these may be on such a value, so it resolves to a
/// workspace method only in a file that reaches the method's type.
const STD_METHODS: &[&str] = &[
    "abs", "clear", "contains", "extend", "fill", "first", "get", "get_mut", "insert", "is_empty",
    "iter", "iter_mut", "join", "last", "len", "load", "lock", "map", "max", "min", "name", "pop",
    "push", "remove", "replace", "resize", "sort", "sqrt", "store", "sum", "swap", "take", "wait",
];

/// An `impl` or `trait` item: the index of the type (or trait) its `Self`
/// is in its header, and its body.
#[derive(Debug)]
struct SelfBlock {
    at: usize,
    /// An inherent `impl T`, the one kind of block that holds `pub fn`s.
    inherent: bool,
    body: (usize, usize),
}

/// Net `<` nesting a token opens (`>>` closes two).
fn angle_step(t: &Tok) -> i64 {
    match t.text.as_str() {
        "<" if t.kind == TokKind::Op => 1,
        ">" if t.kind == TokKind::Op => -1,
        ">>" if t.kind == TokKind::Op => -2,
        _ => 0,
    }
}

/// Every `impl` and `trait` item with a body. An `impl` is an item (not
/// `impl Trait` in a type) when it opens a statement; its self type is the
/// last identifier outside generics before the body, `where` or (for a
/// trait impl) after `for`.
fn self_blocks(toks: &[Tok]) -> Vec<SelfBlock> {
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let opens_item = i == 0
            || ["}", ";", "]", "{"].iter().any(|s| toks[i - 1].is_op(s))
            || toks[i - 1].is_ident("unsafe");
        let item_impl = t.is_ident("impl") && opens_item;
        let item_trait =
            t.is_ident("trait") && toks.get(i + 1).is_some_and(|n| n.kind == TokKind::Ident);
        if !item_impl && !item_trait {
            continue;
        }
        let mut owner = item_trait.then_some(i + 1);
        let (mut depth, mut inherent, mut in_where, mut open) = (0i64, item_impl, false, None);
        for (k, h) in toks.iter().enumerate().skip(i + 1) {
            depth += angle_step(h);
            if depth == 0 && h.is_op("{") {
                open = Some(k);
                break;
            }
            if depth == 0 && h.is_op(";") {
                break;
            }
            if !item_impl || depth != 0 || in_where || h.kind != TokKind::Ident {
                continue;
            }
            match h.text.as_str() {
                "where" => in_where = true,
                "for" => inherent = false,
                "dyn" | "mut" => {}
                _ => owner = Some(k),
            }
        }
        // `impl $name` in a macro names no type this file can resolve
        let owner = owner.filter(|&at| !toks[at - 1].is_op("$"));
        if let (Some(at), Some(open)) = (owner, open) {
            out.push(SelfBlock {
                at,
                inherent,
                body: (open, matching_brace(toks, open) + 1),
            });
        }
    }
    out
}

/// The innermost block whose body holds token `i`.
fn block_of(blocks: &[SelfBlock], i: usize) -> Option<&SelfBlock> {
    blocks
        .iter()
        .filter(|b| b.body.0 < i && i < b.body.1)
        .max_by_key(|b| b.body.0)
}

/// The qualifier of the path segment at `i` (`toks[i - 1]` is `::`): `T`
/// in `T::m`, `T::<U>::m` and `<T as Tr>::m`.
fn path_qualifier(toks: &[Tok], i: usize) -> Option<&str> {
    let q = toks.get(i.checked_sub(2)?)?;
    if q.kind == TokKind::Ident {
        return Some(&q.text);
    }
    let mut j = i - 2;
    let mut depth = angle_step(q);
    while depth < 0 {
        j = j.checked_sub(1)?;
        depth += angle_step(&toks[j]);
    }
    if j >= 2 && toks[j - 1].is_op("::") {
        Some(&toks[j - 2].text)
    } else {
        toks.get(j + 1).map(|t| t.text.as_str())
    }
}

/// Token ranges of `use` items: an import or re-export names an item
/// without calling it.
fn use_regions(toks: &[Tok]) -> Regions {
    let mut regions = Regions::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("use") {
            let end = toks[i..]
                .iter()
                .position(|t| t.is_op(";"))
                .map_or(toks.len(), |k| i + k + 1);
            regions.push((i, end));
        }
    }
    regions
}

/// What one file's non-test code refers to. Comments and strings are not
/// tokens.
#[derive(Debug, Default)]
pub struct FileRefs {
    /// Names referred to other than by a `.m(` call: bare uses and path
    /// segments, outside `use` items, except an item's own name after `fn`,
    /// a field access (`.x` with no call), a field or parameter label (`x:`)
    /// and, in a file whose non-test code binds `let [mut] x`, a bare `x`
    /// not called (`x(`): that is the local.
    pub names: BTreeSet<String>,
    /// Method paths `(T, m)`: `T::m`, `T::<..>::m`, and `Self::m` or
    /// `self.m(` resolved through the enclosing `impl`.
    pub paths: BTreeSet<(String, String)>,
    /// Method calls `.m(` and `.m::<..>(`.
    pub calls: BTreeSet<String>,
    /// Every identifier except the names a `struct`, `enum`, `trait` or
    /// `impl` header defines: the types and crates the file reaches.
    pub named: BTreeSet<String>,
}

/// One file's [`FileRefs`], plus every method name its non-test `impl` and
/// `trait` bodies define, with the type or trait defining it.
fn file_refs(toks: &[Tok]) -> (FileRefs, Vec<(String, String)>) {
    let test = test_regions(toks);
    let uses = use_regions(toks);
    let blocks = self_blocks(toks);
    let next_is = |i: usize, op: &str| toks.get(i + 1).is_some_and(|n| n.is_op(op));
    let bound: BTreeSet<&str> = (0..toks.len())
        .filter(|&i| toks[i].is_ident("let") && !in_regions(&test, i))
        .filter_map(|i| {
            let k = i + 1 + usize::from(toks.get(i + 1)?.is_ident("mut"));
            toks.get(k).filter(|t| t.kind == TokKind::Ident)
        })
        .map(|t| t.text.as_str())
        .collect();
    let mut refs = FileRefs::default();
    let mut defs = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_regions(&test, i) {
            continue;
        }
        let prev_is = |s: &str| i > 0 && (toks[i - 1].is_op(s) || toks[i - 1].is_ident(s));
        let header = ["struct", "enum", "trait"].iter().any(|s| prev_is(s))
            || blocks.iter().any(|b| b.at == i);
        if !header {
            refs.named.insert(t.text.clone());
        }
        // the root facade re-exports each `dft_x` crate as `x`
        if prev_is("::") && i >= 2 && toks[i - 2].is_ident(ROOT_IDENT) {
            refs.named.insert(format!("dft_{}", t.text));
        }
        if in_regions(&uses, i) {
            continue;
        }
        let block = block_of(&blocks, i);
        if prev_is("fn") {
            if let Some(b) = block {
                defs.push((t.text.clone(), toks[b.at].text.clone()));
            }
            continue;
        }
        let called = next_is(i, "(") || next_is(i, "::");
        if prev_is(".") {
            let on_self = i >= 2
                && toks[i - 2].is_ident("self")
                && !(i >= 3 && (toks[i - 3].is_op(".") || toks[i - 3].is_op("::")));
            match block.filter(|_| on_self && called) {
                Some(b) => refs.paths.insert((toks[b.at].text.clone(), t.text.clone())),
                None if called => refs.calls.insert(t.text.clone()),
                None => false,
            };
            continue;
        }
        if prev_is("::") {
            if let Some(q) = path_qualifier(toks, i) {
                let q = match (q, block) {
                    ("Self", Some(b)) => &toks[b.at].text,
                    _ => q,
                };
                refs.paths.insert((q.to_string(), t.text.clone()));
            }
        }
        let label = next_is(i, ":");
        let local = bound.contains(t.text.as_str()) && !prev_is("::") && !called;
        if !label && !local {
            refs.names.insert(t.text.clone());
        }
    }
    (refs, defs)
}

/// A `pub fn` outside test regions (`pub(crate)` and narrower are not
/// public API), with the type of the inherent `impl` it sits in.
struct PubFn<'t> {
    name: &'t Tok,
    owner: Option<&'t str>,
}

fn pub_fns<'t>(toks: &'t [Tok], test: &Regions) -> Vec<PubFn<'t>> {
    let blocks = self_blocks(toks);
    (0..toks.len())
        .filter(|&i| toks[i].is_ident("pub") && !in_regions(test, i))
        .filter_map(|i| {
            let mut k = i + 1;
            while toks
                .get(k)
                .is_some_and(|t| t.is_ident("const") || t.is_ident("unsafe") || t.is_ident("async"))
            {
                k += 1;
            }
            let name = toks
                .get(k)
                .filter(|t| t.is_ident("fn"))
                .and_then(|_| toks.get(k + 1))
                .filter(|t| t.kind == TokKind::Ident)?;
            let owner = block_of(&blocks, i)
                .filter(|b| b.inherent)
                .map(|b| toks[b.at].text.as_str());
            Some(PubFn { name, owner })
        })
        .collect()
}

impl WorkspaceFacts {
    /// Add one file's L009 references and method definitions.
    pub fn add_callers(&mut self, toks: &[Tok]) {
        let (refs, defs) = file_refs(toks);
        self.refs.push(refs);
        for (name, owner) in defs {
            self.methods.entry(name).or_default().insert(owner);
        }
    }

    /// Does production code reach this `pub fn` of crate `krate`? A free
    /// fn by any name or path reference; a method of `T` by a path through
    /// `T`, or by a `.m(` call when no other type, trait or std type has an
    /// `m` or the calling file names `T` or `T`'s crate.
    fn is_called(&self, f: &PubFn, krate: &str) -> bool {
        let name = &f.name.text;
        let Some(ty) = f.owner else {
            return self.refs.iter().any(|r| r.names.contains(name));
        };
        let unique = !STD_METHODS.contains(&name.as_str())
            && self
                .methods
                .get(name)
                .is_none_or(|o| o.iter().all(|o| o == ty));
        let krate = krate.replace('-', "_");
        self.refs.iter().any(|r| {
            r.paths.contains(&(ty.to_string(), name.clone()))
                || r.calls.contains(name)
                    && (unique || r.named.contains(ty) || r.named.contains(&krate))
        })
    }
}

// ---------------------------------------------------------------------------
// L003: the wire-tag band prover
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
struct Band {
    name: String,
    base: u64,
    width: u64,
    line: u32,
    col: u32,
}

impl Band {
    /// The half-open interval of wire tags this band can emit: every tag
    /// passes through the precision encoding `tag << 1 | precision_bit`.
    fn wire_range(&self) -> Option<(u64, u64)> {
        let hi = self.base.checked_add(self.width)?;
        Some((self.base.checked_shl(1)?, hi.checked_shl(1)?))
    }
}

#[derive(Debug)]
struct ConstItem {
    name: String,
    /// Token range of the whole `const .. ;` item.
    span: (usize, usize),
    /// Token range of the right-hand side (after `=`, before `;`).
    rhs: (usize, usize),
}

/// Scan `const NAME: Ty = rhs;` items (module- or fn-local; `const fn` and
/// `*const` are skipped).
fn const_items(toks: &[Tok]) -> Vec<ConstItem> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let is_const_kw = toks[i].is_ident("const")
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            && !toks[i + 1].is_ident("fn")
            && (i == 0 || !toks[i - 1].is_op("*"));
        if !is_const_kw {
            i += 1;
            continue;
        }
        let name = toks[i + 1].text.clone();
        // find `=` at delimiter depth 0
        let mut depth = 0i64;
        let mut j = i + 2;
        let mut eq = None;
        while j < toks.len() {
            let t = &toks[j];
            if t.kind == TokKind::Op {
                match t.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=" if depth == 0 => {
                        eq = Some(j);
                        break;
                    }
                    ";" if depth == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        let Some(eq) = eq else {
            i += 1;
            continue;
        };
        // rhs until `;` at depth 0
        let mut depth = 0i64;
        let mut k = eq + 1;
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
        out.push(ConstItem {
            name,
            span: (i, semi + 1),
            rhs: (eq + 1, semi),
        });
        i = semi + 1;
    }
    out
}

/// Split a token range on top-level commas.
pub(crate) fn split_top_level(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut parts = Vec::new();
    let mut depth = 0i64;
    let mut start = 0usize;
    for (k, t) in toks.iter().enumerate() {
        if t.kind == TokKind::Op {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "," if depth == 0 => {
                    parts.push((start, k));
                    start = k + 1;
                }
                _ => {}
            }
        }
    }
    parts.push((start, toks.len()));
    parts
}

/// Parse every `TagBand { name: "..", base: .., width: .. }`
/// struct literal in the token stream.
fn tag_band_literals(
    toks: &[Tok],
    env: &ConstEnv,
    diags: &mut Vec<(u32, u32, String)>,
) -> Vec<Band> {
    let mut bands = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if !(toks[i].is_ident("TagBand") && toks[i + 1].is_op("{")) {
            i += 1;
            continue;
        }
        // `struct TagBand { .. }` / `impl TagBand { .. }` are the type's
        // definition, not a band literal
        if i > 0
            && (toks[i - 1].is_ident("struct")
                || toks[i - 1].is_ident("impl")
                || toks[i - 1].is_ident("for"))
        {
            let close = matching_brace(toks, i + 1);
            i = close + 1;
            continue;
        }
        let (line, col) = (toks[i].line, toks[i].col);
        let open = i + 1;
        let close = matching_brace(toks, open);
        let body = &toks[open + 1..close];
        let mut name = None;
        let mut base = None;
        let mut width = None;
        for (a, b) in split_top_level(body) {
            let field = &body[a..b];
            if field.len() < 3 || field[0].kind != TokKind::Ident || !field[1].is_op(":") {
                continue;
            }
            let value = &field[2..];
            match field[0].text.as_str() {
                "name" => {
                    if let Some(t) = value.first().filter(|t| t.kind == TokKind::Str) {
                        name = Some(t.text.clone());
                    }
                }
                "base" | "width" => match expr::eval(value, env) {
                    Ok(v) => {
                        if field[0].text == "base" {
                            base = Some(v);
                        } else {
                            width = Some(v);
                        }
                    }
                    Err(e) => diags.push((
                        field[0].line,
                        field[0].col,
                        format!("cannot evaluate TagBand `{}`: {e}", field[0].text),
                    )),
                },
                _ => {}
            }
        }
        match (name, base, width) {
            (Some(name), Some(base), Some(width)) => bands.push(Band {
                name,
                base,
                width,
                line,
                col,
            }),
            _ => diags.push((
                line,
                col,
                "TagBand literal is missing one of `name`/`base`/`width`".into(),
            )),
        }
        i = close + 1;
    }
    bands
}

/// The full L003 pass over `comm.rs`: build the const environment, collect
/// the `TagBand` registry, prove the bands disjoint/bounded/contained, and
/// flag ad-hoc high-tag literals outside the registry.
fn lint_tag_registry(toks: &[Tok], test: &Regions, out: &mut Vec<(u32, u32, String)>) {
    let items = const_items(toks);

    // const environment: fixed-point over evaluable scalar consts
    let mut env = ConstEnv::new();
    for _ in 0..3 {
        for it in &items {
            if env.contains_key(&it.name) {
                continue;
            }
            let rhs = &toks[it.rhs.0..it.rhs.1];
            if rhs.iter().any(|t| t.is_op("{") || t.is_op(",")) {
                continue; // struct/tuple/array rhs
            }
            if let Ok(v) = expr::eval(rhs, &env) {
                env.insert(it.name.clone(), v);
            }
        }
    }

    let mut band_diags = Vec::new();
    let bands = tag_band_literals(toks, &env, &mut band_diags);
    out.extend(band_diags);

    // recognized registry spans: items declaring bands or registry consts
    let mut registry: Regions = Vec::new();
    for it in &items {
        let recognized = matches!(
            it.name.as_str(),
            "MAX_RANKS" | "COLLECTIVE_TAGS" | "TAG_BANDS"
        ) || toks[it.span.0..it.span.1]
            .iter()
            .any(|t| t.is_ident("TagBand"));
        if recognized {
            registry.push(it.span);
        }
    }

    let max_ranks = env.get("MAX_RANKS").copied();
    let collective = items
        .iter()
        .find(|it| it.name == "COLLECTIVE_TAGS")
        .and_then(|it| {
            let rhs = &toks[it.rhs.0..it.rhs.1];
            let inner = rhs
                .first()
                .filter(|t| t.is_op("("))
                .map(|_| &rhs[1..rhs.len() - 1])?;
            let parts = split_top_level(inner);
            if parts.len() != 2 {
                return None;
            }
            let lo = expr::eval(&inner[parts[0].0..parts[0].1], &env).ok()?;
            let hi = expr::eval(&inner[parts[1].0..parts[1].1], &env).ok()?;
            Some((lo, hi))
        });

    if bands.is_empty() {
        out.push((
            1,
            1,
            "comm.rs declares no TagBand registry: every collective wire tag must come from a declared band".into(),
        ));
    } else {
        if collective.is_none() {
            out.push((
                1,
                1,
                "comm.rs declares no evaluable `COLLECTIVE_TAGS` bound for its TagBand registry"
                    .into(),
            ));
        }
        if max_ranks.is_none() && bands.iter().any(|b| b.width > 1) {
            out.push((
                1,
                1,
                "comm.rs declares rank-indexed tag bands but no `MAX_RANKS` bound".into(),
            ));
        }
    }

    // per-band checks
    let mut ranged: Vec<(&Band, (u64, u64))> = Vec::new();
    for b in &bands {
        if b.width == 0 {
            out.push((
                b.line,
                b.col,
                format!("TagBand `{}` has zero width", b.name),
            ));
            continue;
        }
        if b.width > 1 {
            if let Some(m) = max_ranks {
                if b.width < m {
                    out.push((
                        b.line,
                        b.col,
                        format!(
                            "TagBand `{}` is rank-indexed but narrower than MAX_RANKS ({} < {m}): `base + rank` can escape the band",
                            b.name, b.width
                        ),
                    ));
                }
            }
        }
        let Some(range) = b.wire_range() else {
            out.push((
                b.line,
                b.col,
                format!("TagBand `{}` overflows the u64 wire-tag space", b.name),
            ));
            continue;
        };
        if let Some((clo, chi)) = collective {
            if range.0 < clo || range.1 > chi {
                out.push((
                    b.line,
                    b.col,
                    format!(
                        "TagBand `{}` escapes COLLECTIVE_TAGS: wire range [{:#x}, {:#x}) vs [{clo:#x}, {chi:#x})",
                        b.name, range.0, range.1
                    ),
                ));
            }
        }
        ranged.push((b, range));
    }

    // pairwise disjointness (sort by wire lo; adjacent half-open touch is fine)
    ranged.sort_by_key(|(_, r)| r.0);
    for w in ranged.windows(2) {
        let (a, ra) = &w[0];
        let (b, rb) = &w[1];
        if ra.1 > rb.0 {
            out.push((
                b.line,
                b.col,
                format!(
                    "TagBand `{}` overlaps TagBand `{}` on the wire: [{:#x}, {:#x}) vs [{:#x}, {:#x})",
                    b.name, a.name, rb.0, rb.1, ra.0, ra.1
                ),
            ));
        }
    }

    // ad-hoc high-tag literals outside the registry
    const HIGH: u128 = 1 << 40;
    for (k, t) in toks.iter().enumerate() {
        if in_regions(&registry, k) || in_regions(test, k) {
            continue;
        }
        if let TokKind::Int(lhs) = t.kind {
            let shifted = toks.get(k + 1).is_some_and(|o| o.is_op("<<"))
                && matches!(toks.get(k + 2).map(|r| &r.kind), Some(TokKind::Int(_)));
            if shifted {
                if let Some(TokKind::Int(rhs)) = toks.get(k + 2).map(|r| r.kind.clone()) {
                    let v = u32::try_from(rhs)
                        .ok()
                        .and_then(|s| lhs.checked_shl(s))
                        .unwrap_or(u128::MAX);
                    if v >= HIGH {
                        out.push((
                            t.line,
                            t.col,
                            format!(
                                "ad-hoc wire-tag literal `{} << {}` outside the TagBand registry: declare a band instead",
                                t.text,
                                toks[k + 2].text
                            ),
                        ));
                    }
                }
            } else if lhs >= HIGH {
                out.push((
                    t.line,
                    t.col,
                    format!(
                        "ad-hoc wire-tag literal `{}` outside the TagBand registry: declare a band instead",
                        t.text
                    ),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The lint engine
// ---------------------------------------------------------------------------

fn float_operand(toks: &[Tok], i: usize) -> bool {
    // left operand
    if i > 0 && toks[i - 1].kind == TokKind::Float {
        return true;
    }
    // right operand (allowing unary minus)
    match toks.get(i + 1) {
        Some(t) if t.kind == TokKind::Float => true,
        Some(t) if t.is_op("-") => toks.get(i + 2).is_some_and(|r| r.kind == TokKind::Float),
        _ => false,
    }
}

/// Lint one file's source under the given context. Fixture files may
/// override the context with a `dftlint:fixture(...)` directive.
///
/// The file is its own workspace: L006 call summaries and L009 callers
/// come from this file alone. Use [`lint_source_with`] (as
/// [`lint_workspace`] does) to resolve both against every file.
pub fn lint_source(ctx: &FileCtx, src: &str) -> Vec<Diagnostic> {
    lint_source_with(ctx, src, None)
}

/// [`lint_source`] against optional [`WorkspaceFacts`]. `None` closes both
/// the collective emitters and the L009 callers over this file alone.
pub fn lint_source_with(
    ctx: &FileCtx,
    src: &str,
    facts: Option<&WorkspaceFacts>,
) -> Vec<Diagnostic> {
    let (toks, comments) = tokenize(src);
    let mut directives = parse_directives(&comments, &toks);

    let (crate_name, path) = match &directives.fixture {
        Some((k, f)) => (k.clone(), f.clone()),
        None => (ctx.crate_name.clone(), ctx.display.clone()),
    };
    let file_name = path.rsplit('/').next().unwrap_or_default();
    let test = test_regions(&toks);
    let hot = hot_functions(&directives.hot_lines, &toks, &mut directives.errors);

    let fault_tolerant = is_fault_tolerant(&crate_name, &path);
    let is_comm = file_name == "comm.rs";

    let mut raw: Vec<(u32, u32, &'static str, String)> = Vec::new();

    for (i, t) in toks.iter().enumerate() {
        let in_test = in_regions(&test, i);

        // L001: panic paths in the fault-tolerant crates
        if fault_tolerant && !in_test && t.kind == TokKind::Ident {
            let method_call =
                i > 0 && toks[i - 1].is_op(".") && toks.get(i + 1).is_some_and(|n| n.is_op("("));
            if method_call && (t.text == "unwrap" || t.text == "expect") {
                raw.push((
                    t.line,
                    t.col,
                    "L001",
                    format!(
                        "`.{}()` in non-test code of `{crate_name}`: fault-tolerance requires returning `CommError`/`ScfError`, not panicking",
                        t.text
                    ),
                ));
            }
            let is_macro = toks.get(i + 1).is_some_and(|n| n.is_op("!"));
            if is_macro
                && matches!(
                    t.text.as_str(),
                    "panic" | "unreachable" | "todo" | "unimplemented"
                )
            {
                raw.push((
                    t.line,
                    t.col,
                    "L001",
                    format!(
                        "`{}!` in non-test code of `{crate_name}`: fault-tolerance requires returning `CommError`/`ScfError`, not panicking",
                        t.text
                    ),
                ));
            }
        }

        // L002: raw blocking receives outside comm.rs
        if !is_comm && !in_test && t.kind == TokKind::Ident {
            let method_call =
                i > 0 && toks[i - 1].is_op(".") && toks.get(i + 1).is_some_and(|n| n.is_op("("));
            if method_call && (t.text == "recv_bytes" || t.text == "recv_f64") {
                raw.push((
                    t.line,
                    t.col,
                    "L002",
                    format!(
                        "raw blocking `.{}()` outside comm.rs internals: use the `_deadline` variant (shared collective deadline) or `try_recv_*`",
                        t.text
                    ),
                ));
            }
        }

        // L004: float equality (workspace-wide) + hash containers in the
        // deterministic reduction crates
        if !in_test {
            if (t.is_op("==") || t.is_op("!=")) && float_operand(&toks, i) {
                raw.push((
                    t.line,
                    t.col,
                    "L004",
                    format!(
                        "`{}` on a float expression breaks bitwise determinism guarantees: compare against a tolerance, or allow with a reason for exact sentinels",
                        t.text
                    ),
                ));
            }
            if fault_tolerant
                && t.kind == TokKind::Ident
                && (t.text == "HashMap" || t.text == "HashSet")
            {
                raw.push((
                    t.line,
                    t.col,
                    "L004",
                    format!(
                        "`{}` in deterministic reduction crate `{crate_name}`: iteration order is nondeterministic; use BTreeMap/BTreeSet or a Vec",
                        t.text
                    ),
                ));
            }
        }
    }

    // L005: allocations inside hot kernels
    for h in &hot {
        for i in h.body.0..h.body.1.min(toks.len()) {
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let what = if t.text == "Vec"
                && toks.get(i + 1).is_some_and(|n| n.is_op("::"))
                && toks
                    .get(i + 2)
                    .is_some_and(|n| n.is_ident("new") || n.is_ident("with_capacity"))
            {
                Some(format!("Vec::{}", toks[i + 2].text))
            } else if t.text == "vec" && toks.get(i + 1).is_some_and(|n| n.is_op("!")) {
                Some("vec![..]".into())
            } else if i > 0
                && toks[i - 1].is_op(".")
                && matches!(t.text.as_str(), "collect" | "clone" | "to_vec")
            {
                Some(format!(".{}()", t.text))
            } else {
                None
            };
            if let Some(what) = what {
                raw.push((
                    t.line,
                    t.col,
                    "L005",
                    format!(
                        "allocation `{what}` inside `dftlint:hot` function `{}`: hot kernels must reuse caller-provided scratch",
                        h.name
                    ),
                ));
            }
        }
    }

    // L003: the tag registry prover, comm.rs only
    if is_comm {
        let mut l3 = Vec::new();
        lint_tag_registry(&toks, &test, &mut l3);
        for (line, col, msg) in l3 {
            raw.push((line, col, "L003", msg));
        }
    }

    // L006/L007: SPMD collective ordering + poison safety in the
    // fault-tolerant crates. comm.rs itself is exempt from L006: its
    // rank-conditional root/leaf sends ARE the collective implementations
    // (protocol safety there is carried by L003/L008 plus the runtime
    // sanitizer and schedule explorer).
    if fault_tolerant {
        if !is_comm {
            let local_emitters;
            let emitters = match facts {
                Some(f) => &f.emitters,
                None => {
                    local_emitters = flow::close_over_collectives(&flow::direct_calls(&toks));
                    &local_emitters
                }
            };
            let mut l6 = Vec::new();
            flow::lint_collective_ordering(&toks, &test, emitters, &mut l6);
            for (line, col, msg) in l6 {
                raw.push((line, col, "L006", msg));
            }
        }
        let mut l7 = Vec::new();
        flow::lint_poison_safety(&toks, &test, &mut l7);
        for (line, col, msg) in l7 {
            raw.push((line, col, "L007", msg));
        }
    }

    // L008: collective tag discipline, comm.rs only. Band consts are
    // the ones whose rhs declares a `TagBand` literal — the registry L003
    // has already proven disjoint and rank-indexable.
    if is_comm {
        let band_consts: BTreeSet<String> = const_items(&toks)
            .iter()
            .filter(|it| {
                toks[it.rhs.0..it.rhs.1]
                    .iter()
                    .any(|t| t.is_ident("TagBand"))
            })
            .map(|it| it.name.clone())
            .collect();
        let mut l8 = Vec::new();
        flow::lint_group_tag_discipline(&toks, &test, &band_consts, &mut l8);
        for (line, col, msg) in l8 {
            raw.push((line, col, "L008", msg));
        }
    }

    // L009: a `pub fn` under `crates/*/src` that only test code calls
    if crate_name != ROOT_PACKAGE {
        let local_facts;
        let facts = match facts {
            Some(f) => f,
            None => {
                let mut f = WorkspaceFacts::default();
                f.add_callers(&toks);
                local_facts = f;
                &local_facts
            }
        };
        for f in pub_fns(&toks, &test) {
            if !facts.is_called(&f, &crate_name) {
                let name = match f.owner {
                    Some(ty) => format!("{ty}::{}", f.name.text),
                    None => f.name.text.clone(),
                };
                raw.push((
                    f.name.line,
                    f.name.col,
                    "L009",
                    format!(
                        "`pub fn {name}` has no caller outside test code: delete it, move it into the test module that uses it, or allow it naming the suite it serves"
                    ),
                ));
            }
        }
    }

    // apply suppressions, then fold in directive errors as L000
    let mut diags: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|(line, _, id, _)| {
            !directives
                .allows
                .iter()
                .any(|a| a.id == *id && a.target_line == *line)
        })
        .map(|(line, col, id, message)| Diagnostic {
            file: ctx.display.clone(),
            line,
            col,
            id,
            message,
        })
        .collect();
    for (line, col, message) in directives.errors {
        diags.push(Diagnostic {
            file: ctx.display.clone(),
            line,
            col,
            id: "L000",
            message,
        });
    }
    diags.sort_by(|a, b| (a.line, a.col, a.id).cmp(&(b.line, b.col, b.id)));
    diags
}

// ---------------------------------------------------------------------------
// Workspace walking
// ---------------------------------------------------------------------------

/// Ascend from `start` to the first directory whose `Cargo.toml` declares
/// `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.canonicalize().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        dir = dir.parent()?.to_path_buf();
    }
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every project `src/` file with its lint context: `crates/<name>/src/**`
/// plus the root package's `src/**`. The vendored dependency shims under
/// `vendor/` are third-party stand-ins and are not project code.
pub fn workspace_files(root: &Path) -> io::Result<Vec<(PathBuf, FileCtx)>> {
    let mut files = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for cdir in crate_dirs {
            let src = cdir.join("src");
            if src.is_dir() {
                let name = cdir
                    .file_name()
                    .map(|s| s.to_string_lossy().into_owned())
                    .unwrap_or_default();
                let mut paths = Vec::new();
                collect_rs(&src, &mut paths)?;
                paths.sort();
                for p in paths {
                    files.push((p, name.clone()));
                }
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        let mut paths = Vec::new();
        collect_rs(&root_src, &mut paths)?;
        paths.sort();
        for p in paths {
            files.push((p, "dft-fe-mlxc".to_string()));
        }
    }
    Ok(files
        .into_iter()
        .map(|(p, crate_name)| {
            let display = p
                .strip_prefix(root)
                .unwrap_or(&p)
                .to_string_lossy()
                .into_owned();
            (
                p,
                FileCtx {
                    crate_name,
                    display,
                },
            )
        })
        .collect())
}

/// Files read for L009 callers only, never linted: the crates' `benches/`,
/// the root `examples/` and the out-of-workspace `benchmark/src`.
fn caller_only_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut dirs = vec![root.join("examples"), root.join("benchmark").join("src")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            dirs.push(entry?.path().join("benches"));
        }
    }
    let mut files = Vec::new();
    for dir in dirs.iter().filter(|d| d.is_dir()) {
        collect_rs(dir, &mut files)?;
    }
    Ok(files)
}

/// Lint every project source file under the workspace at `root`.
///
/// Two passes: the first gathers the [`WorkspaceFacts`] — the L006
/// call-summary graph over the fault-tolerant crates (every function name
/// that transitively reaches a `ThreadComm` collective) and the L009
/// production references of every project file — and the second lints
/// each file against them. So a rank-conditional call to a *local helper*
/// that allreduces three frames down is flagged exactly like a direct
/// rank-conditional allreduce, and a `pub fn` called from another crate is
/// not dead code.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut sources = Vec::new();
    for (path, ctx) in workspace_files(root)? {
        let src = fs::read_to_string(&path)?;
        sources.push((ctx, src));
    }
    let mut calls = Vec::new();
    let mut facts = WorkspaceFacts::default();
    for (ctx, src) in &sources {
        let (toks, _) = tokenize(src);
        if is_fault_tolerant(&ctx.crate_name, &ctx.display) {
            calls.extend(flow::direct_calls(&toks));
        }
        facts.add_callers(&toks);
    }
    for path in caller_only_files(root)? {
        let (toks, _) = tokenize(&fs::read_to_string(&path)?);
        facts.add_callers(&toks);
    }
    facts.emitters = flow::close_over_collectives(&calls);
    let mut diags = Vec::new();
    for (ctx, src) in &sources {
        diags.extend(lint_source_with(ctx, src, Some(&facts)));
    }
    Ok(diags)
}

/// Serialize diagnostics as a JSON array (hand-rolled: the linter is
/// dependency-free by design).
pub fn diagnostics_to_json(diags: &[Diagnostic]) -> String {
    fn esc(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let items: Vec<String> = diags
        .iter()
        .map(|d| {
            format!(
                "{{\"file\":\"{}\",\"line\":{},\"col\":{},\"id\":\"{}\",\"message\":\"{}\"}}",
                esc(&d.file),
                d.line,
                d.col,
                d.id,
                esc(&d.message)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(crate_name: &str, file_name: &str) -> FileCtx {
        FileCtx {
            crate_name: crate_name.into(),
            display: format!("{crate_name}/{file_name}"),
        }
    }

    #[test]
    fn l001_flags_panics_outside_tests_only() {
        let src = r#"
fn work() -> u32 { some().unwrap() }
#[cfg(test)]
mod tests {
    fn t() { other().unwrap(); panic!("fine in tests"); }
}
"#;
        let d = lint_source(&ctx("dft-hpc", "x.rs"), src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].id, "L001");
        assert_eq!(d[0].line, 2);
        // same file in a non-fault-tolerant crate: clean
        assert!(lint_source(&ctx("dft-core", "x.rs"), src).is_empty());
    }

    #[test]
    fn suppression_requires_reason() {
        let good = "// dftlint:allow(L001, reason=\"guarded above\")\nfn f() { x.unwrap(); }\n";
        assert!(lint_source(&ctx("dft-hpc", "x.rs"), good).is_empty());
        let bad = "// dftlint:allow(L001)\nfn f() { x.unwrap(); }\n";
        let d = lint_source(&ctx("dft-hpc", "x.rs"), bad);
        assert!(d.iter().any(|x| x.id == "L000"), "{d:?}");
        assert!(d.iter().any(|x| x.id == "L001"), "unsuppressed: {d:?}");
    }

    #[test]
    fn trailing_allow_applies_to_its_own_line() {
        let src = "fn f() { x.unwrap(); } // dftlint:allow(L001, reason=\"infallible\")\n";
        assert!(lint_source(&ctx("dft-hpc", "x.rs"), src).is_empty());
        // the allow is what keeps it clean: without it the line is L001
        let bare = "fn f() { x.unwrap(); }\n";
        let d = lint_source(&ctx("dft-hpc", "x.rs"), bare);
        assert!(d.iter().any(|x| x.id == "L001"), "{d:?}");
    }

    #[test]
    fn l004_float_eq_and_containers() {
        let src = "fn f(a: f64) -> bool { use std::collections::HashMap; a == 0.0 }\n";
        let d = lint_source(&ctx("dft-hpc", "x.rs"), src);
        assert_eq!(d.iter().filter(|x| x.id == "L004").count(), 2, "{d:?}");
        // float eq is workspace-wide, containers are not
        let d = lint_source(&ctx("dft-core", "x.rs"), src);
        assert_eq!(d.iter().filter(|x| x.id == "L004").count(), 1, "{d:?}");
    }

    #[test]
    fn l005_hot_function_allocations() {
        let src = r#"
// dftlint:hot
fn kernel(x: &mut [f64]) {
    let v = vec![0.0; 4];
    let w: Vec<f64> = x.iter().copied().collect();
}
fn cold() { let _ = vec![1]; }
"#;
        let d = lint_source(&ctx("dft-linalg", "x.rs"), src);
        assert_eq!(d.iter().filter(|x| x.id == "L005").count(), 2, "{d:?}");
        // an array type in the signature does not end the search for the
        // body; a trait method without one is still reported
        let src = r#"
// dftlint:hot
fn kernel<T, const N: usize>(h: [f64; 3], x: &[T]) -> [T; N] {
    let v = x.to_vec();
}
trait K {
    // dftlint:hot
    fn declared(&self, h: [f64; 3]);
}
"#;
        let d = lint_source(&ctx("dft-fem", "x.rs"), src);
        assert_eq!(d.iter().filter(|x| x.id == "L005").count(), 1, "{d:?}");
        assert_eq!(d.iter().filter(|x| x.id == "L000").count(), 1, "{d:?}");
    }

    #[test]
    fn l009_resolves_callers_across_the_workspace() {
        let src = "pub fn helper() {}\n";
        let d = lint_source(&ctx("dft-core", "x.rs"), src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!((d[0].id, d[0].line, d[0].col), ("L009", 1, 8));
        // a call from another file of the workspace is a caller
        let mut facts = WorkspaceFacts::default();
        facts.add_callers(&tokenize("fn main() { helper(); }").0);
        assert!(lint_source_with(&ctx("dft-core", "x.rs"), src, Some(&facts)).is_empty());
        // the root package's facade is read for callers, not linted
        assert!(lint_source(&ctx(ROOT_PACKAGE, "lib.rs"), src).is_empty());
    }

    #[test]
    fn l003_accepts_a_disjoint_registry_and_rejects_overlap() {
        let ok = r#"
// dftlint:fixture(crate="dft-hpc", file="comm.rs")
pub const MAX_RANKS: u64 = 4000;
pub const COLLECTIVE_TAGS: (u64, u64) = (1 << 60, u64::MAX);
pub const A: TagBand = TagBand { name: "a", base: (1 << 60) + 1, width: 1 };
pub const B: TagBand = TagBand { name: "b", base: (1 << 60) + 1000, width: MAX_RANKS };
"#;
        let d = lint_source(&ctx("fixture", "f.rs"), ok);
        assert!(d.is_empty(), "{d:?}");
        let overlap = ok.replace("+ 1000", "+ 1");
        let d = lint_source(&ctx("fixture", "f.rs"), &overlap);
        assert!(
            d.iter()
                .any(|x| x.id == "L003" && x.message.contains("overlaps")),
            "{d:?}"
        );
    }
}
