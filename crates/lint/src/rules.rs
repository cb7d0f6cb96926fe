//! The UDM lint rules: the numeric and determinism invariants of the
//! paper's estimators that no compiler or clippy lint states.
//!
//! | id | rule |
//! |---|---|
//! | UDM002 | no bare `==`/`!=` against float expressions outside test code |
//! | UDM003 | `sqrt` of variance-like expressions must use `udm_core::num::clamped_sqrt` |
//! | UDM005 | public estimator entry points must validate finite inputs |
//! | UDM008 | `fast-math`-gated items unreachable from default-feature code |
//! | UDM009 | once-init closures must be deterministic |
//!
//! All five decide on tokens plus the `cfg` regions of
//! [`crate::context`]. UDM008 is the one cross-file pass
//! ([`udm008_fast_math_isolation`]); the others run per file.

use crate::context::{group_close, is_closer, is_opener, FileContext, GATED_FEATURE};
use crate::lexer::{Lexed, Tok, TokKind};
use std::collections::BTreeSet;

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Stable rule id (one of [`ALL_RULES`]).
    pub rule: &'static str,
    /// Root-relative path of the offending file.
    pub path: String,
    /// 1-based line of the finding.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

/// All rule ids, in order.
pub const ALL_RULES: [&str; 5] = ["UDM002", "UDM003", "UDM005", "UDM008", "UDM009"];

/// Runs every per-file rule over one lexed file.
pub fn run_file_rules(lexed: &Lexed, ctx: &FileContext) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    udm002_float_eq(lexed, ctx, &mut out);
    udm003_variance_sqrt(lexed, ctx, &mut out);
    udm005_entry_validation(lexed, ctx, &mut out);
    udm009_once_init_determinism(lexed, ctx, &mut out);
    out.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    out
}

fn diag(
    out: &mut Vec<Diagnostic>,
    rule: &'static str,
    ctx: &FileContext,
    tok: &Tok,
    message: String,
) {
    out.push(Diagnostic {
        rule,
        path: ctx.rel_path.clone(),
        line: tok.line,
        message,
    });
}

/// Tokens that terminate an operand scan at depth 0.
fn is_operand_boundary(t: &Tok) -> bool {
    t.is_punct(";")
        || t.is_punct(",")
        || t.is_punct("{")
        || t.is_punct("}")
        || t.is_punct("&&")
        || t.is_punct("||")
        || t.is_punct("=")
        || t.is_punct("?")
        || t.is_punct("=>")
        || t.is_ident("if")
        || t.is_ident("while")
        || t.is_ident("return")
        || t.is_ident("let")
        || t.is_ident("else")
        || t.is_ident("match")
}

/// Collects operand tokens right of index `i` (exclusive) until a
/// boundary; respects parenthesis depth.
fn operand_right(toks: &[Tok], i: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(i + 1).take(24) {
        if t.is_punct("(") || t.is_punct("[") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if depth == 0 && is_operand_boundary(t) {
            break;
        }
        out.push(j);
    }
    out
}

/// Collects operand tokens left of index `i` (exclusive) until a
/// boundary; respects parenthesis depth.
fn operand_left(toks: &[Tok], i: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    for j in (0..i).rev().take(24) {
        let t = &toks[j];
        if t.is_punct(")") || t.is_punct("]") {
            depth += 1;
        } else if t.is_punct("(") || t.is_punct("[") {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if depth == 0 && is_operand_boundary(t) {
            break;
        }
        out.push(j);
    }
    out.reverse();
    out
}

/// UDM002: `==`/`!=` where either operand contains a float literal.
fn udm002_float_eq(lexed: &Lexed, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if !(t.is_punct("==") || t.is_punct("!=")) || ctx.in_test(t.start) {
            continue;
        }
        let sides: Vec<usize> = operand_left(toks, i)
            .into_iter()
            .chain(operand_right(toks, i))
            .collect();
        // `.fract() == 0.0` is the IEEE-exact integer-ness test: fract()
        // returns exactly 0.0 for integral inputs, so bare equality is
        // correct there.
        if sides.iter().any(|&j| toks[j].is_ident("fract")) {
            continue;
        }
        if sides.iter().any(|&j| toks[j].is_float_literal()) {
            diag(
                out,
                "UDM002",
                ctx,
                t,
                format!(
                    "bare `{}` against a float literal; use \
                     udm_core::num::approx_eq (or waive an exact-zero guard)",
                    t.text
                ),
            );
        }
    }
}

/// Identifier looks like it names a variance / squared quantity.
fn is_variance_like(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("var")
        || lower.ends_with("_sq")
        || matches!(
            lower.as_str(),
            "dsq" | "ssq" | "msq" | "m2" | "delta2" | "mean_sq_err"
        )
}

/// UDM003: `.sqrt()` whose receiver is variance-like (named so, or a
/// parenthesised expression containing a binary minus — the classic
/// catastrophic-cancellation shape `(a - b).sqrt()`).
fn udm003_variance_sqrt(lexed: &Lexed, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if !ctx.is_library {
        return;
    }
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("sqrt")
            || i == 0
            || !toks[i - 1].is_punct(".")
            || !toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            || ctx.in_test(t.start)
        {
            continue;
        }
        let Some(recv_end) = i.checked_sub(2) else {
            continue;
        };
        let mut var_named = false;
        let mut paren_minus = false;
        if toks[recv_end].is_punct(")") {
            // Receiver is a parenthesised / call expression: scan back to
            // the matching `(` and inspect the inside.
            let mut depth = 0i32;
            let mut j = recv_end;
            loop {
                let tk = &toks[j];
                if tk.is_punct(")") || tk.is_punct("]") {
                    depth += 1;
                } else if tk.is_punct("(") || tk.is_punct("[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if j == 0 {
                    break;
                }
                j -= 1;
            }
            let open = j;
            // Method/function name before the `(`, if any, counts too.
            let names =
                (open.saturating_sub(2)..recv_end).filter(|&k| toks[k].kind == TokKind::Ident);
            var_named = names.into_iter().any(|k| is_variance_like(&toks[k].text));
            // A bare parenthesised group `( … - … )` (no call name) with a
            // binary minus at depth 1 is the cancellation shape.
            let is_bare_group = open == 0
                || !(toks[open - 1].kind == TokKind::Ident || toks[open - 1].is_punct(")"));
            if is_bare_group {
                let mut depth = 0i32;
                for k in open..=recv_end {
                    let tk = &toks[k];
                    if tk.is_punct("(") || tk.is_punct("[") {
                        depth += 1;
                    } else if tk.is_punct(")") || tk.is_punct("]") {
                        depth -= 1;
                    } else if depth == 1
                        && tk.is_punct("-")
                        && k > open + 1
                        && (toks[k - 1].kind == TokKind::Ident
                            || toks[k - 1].kind == TokKind::Number
                            || toks[k - 1].is_punct(")"))
                    {
                        paren_minus = true;
                    }
                }
            }
        } else {
            // Receiver is a field/ident chain: walk `a.b.c` backwards.
            let mut j = recv_end;
            loop {
                let tk = &toks[j];
                if tk.kind == TokKind::Ident && is_variance_like(&tk.text) {
                    var_named = true;
                }
                if j >= 1 && (toks[j - 1].is_punct(".") || toks[j - 1].is_punct("::")) {
                    j = j.saturating_sub(2);
                } else {
                    break;
                }
            }
        }
        if var_named || paren_minus {
            diag(
                out,
                "UDM003",
                ctx,
                t,
                "sqrt of a variance-like expression; route through \
                 udm_core::num::clamped_sqrt (bit-identical for x >= 0, \
                 counts negative clamps)"
                    .to_string(),
            );
        }
    }
}

/// Guard identifiers that count as input validation for UDM005.
const GUARD_IDENTS: [&str; 6] = [
    "ensure_finite_slice",
    "ensure_finite_slice_opt",
    "ensure_finite",
    "ensure_non_negative",
    "debug_assert_finite",
    "is_finite",
];

/// UDM005: `pub fn density*` / `pub fn classify*` — and the serve-layer
/// request handlers `pub fn handle_*density*` / `pub fn handle_*classify*`
/// — taking `f64` data must validate finiteness or delegate to an entry
/// point that does.
fn udm005_entry_validation(lexed: &Lexed, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    if !ctx.is_library {
        return;
    }
    let toks = &lexed.toks;
    let mut i = 0;
    while i + 2 < toks.len() {
        // Bare `pub fn` only: `pub(crate)` etc. are not public API.
        if !(toks[i].is_ident("pub") && toks[i + 1].is_ident("fn")) {
            i += 1;
            continue;
        }
        let name_tok = &toks[i + 2];
        let name = name_tok.text.clone();
        i += 3;
        let is_entry = name.starts_with("density")
            || name.starts_with("classify")
            || (name.starts_with("handle_")
                && (name.contains("density") || name.contains("classify")));
        if !is_entry || ctx.in_test(name_tok.start) {
            continue;
        }
        // Parameter list: from the next `(` to its match.
        let Some(open) = (i..toks.len()).find(|&k| toks[k].is_punct("(")) else {
            continue;
        };
        let mut depth = 0i32;
        let mut close = open;
        for (k, t) in toks.iter().enumerate().skip(open) {
            if t.is_punct("(") {
                depth += 1;
            } else if t.is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    close = k;
                    break;
                }
            }
        }
        let takes_floats = toks[open..=close]
            .iter()
            .any(|t| t.is_ident("f64") || t.is_ident("UncertainPoint"));
        if !takes_floats {
            continue;
        }
        // Body: next `{` (skipping the return type) to its match; a `;`
        // first means a trait signature without a body.
        let mut k = close + 1;
        while k < toks.len() && !toks[k].is_punct("{") && !toks[k].is_punct(";") {
            k += 1;
        }
        if k >= toks.len() || toks[k].is_punct(";") {
            continue;
        }
        let body_open = k;
        let mut depth = 0i32;
        let mut body_close = body_open;
        for (k, t) in toks.iter().enumerate().skip(body_open) {
            if t.is_punct("{") {
                depth += 1;
            } else if t.is_punct("}") {
                depth -= 1;
                if depth == 0 {
                    body_close = k;
                    break;
                }
            }
        }
        let body = &toks[body_open..=body_close];
        let validates = body
            .iter()
            .any(|t| t.kind == TokKind::Ident && GUARD_IDENTS.contains(&t.text.as_str()));
        // Delegation: calling another density*/classify*/log_scores entry
        // point passes the obligation down to it.
        let delegates = body.iter().any(|t| {
            t.kind == TokKind::Ident
                && t.text != name
                && (t.text.starts_with("density")
                    || t.text.starts_with("classify")
                    || t.text == "log_scores")
        });
        if !validates && !delegates {
            out.push(Diagnostic {
                rule: "UDM005",
                path: ctx.rel_path.clone(),
                line: name_tok.line,
                message: format!(
                    "public estimator entry point `{name}` takes float input \
                     but neither validates finiteness (udm_core::num::ensure_finite_slice) \
                     nor delegates to a validating entry point"
                ),
            });
        }
        i = body_close + 1;
    }
}

// ---- UDM008 -------------------------------------------------------------

/// Ungated approximate roots: compiled always (so benches can A/B them in
/// one binary), callable only from gated or test code.
pub const APPROX_ROOT_FNS: [&str; 1] = ["fast_exp"];

/// Keywords that introduce a named item.
const ITEM_KEYWORDS: [&str; 9] = [
    "fn", "const", "static", "struct", "enum", "union", "trait", "type", "mod",
];

/// True when `toks[i]` is the name an item definition introduces
/// (`fn name`, `const name`, `static mut name`, …).
fn is_item_name(toks: &[Tok], i: usize) -> bool {
    let t = &toks[i];
    if t.kind != TokKind::Ident || ITEM_KEYWORDS.contains(&t.text.as_str()) || t.text == "mut" {
        return false;
    }
    let prev_is = |k: usize, kw: &[&str]| {
        i >= k && toks[i - k].kind == TokKind::Ident && kw.contains(&toks[i - k].text.as_str())
    };
    prev_is(1, &ITEM_KEYWORDS) || (prev_is(1, &["mut"]) && prev_is(2, &["static"]))
}

/// UDM008: `fast-math` isolation, a cross-file pass.
///
/// The taint set is every item name defined inside `fast-math`-only
/// code (outside test code), plus [`APPROX_ROOT_FNS`]. A mention of a
/// tainted name from default-build, non-test code is the first edge by
/// which an approximate value can reach an exact path; that edge is the
/// finding. Imports (`use`) and the definitions themselves are not
/// mentions. Reachability past the first unguarded edge is not
/// re-reported: fixing or waiving the boundary covers its callers.
pub fn udm008_fast_math_isolation(files: &[(&Lexed, &FileContext)]) -> Vec<Diagnostic> {
    let mut tainted: BTreeSet<&str> = APPROX_ROOT_FNS.into_iter().collect();
    for (lexed, ctx) in files {
        for (i, t) in lexed.toks.iter().enumerate() {
            if is_item_name(&lexed.toks, i) && ctx.in_fast_math(t.start) && !ctx.in_test(t.start) {
                tainted.insert(t.text.as_str());
            }
        }
    }
    let mut out = Vec::new();
    for (lexed, ctx) in files {
        let toks = &lexed.toks;
        let mut i = 0;
        while i < toks.len() {
            let t = &toks[i];
            if t.is_ident("use") {
                // Imports are not calls: skip the whole declaration.
                i = (i..toks.len())
                    .find(|&k| toks[k].is_punct(";"))
                    .unwrap_or(toks.len());
                continue;
            }
            if t.kind == TokKind::Ident
                && tainted.contains(t.text.as_str())
                && !is_item_name(toks, i)
                && !ctx.in_fast_math(t.start)
                && !ctx.in_test(t.start)
            {
                diag(
                    &mut out,
                    "UDM008",
                    ctx,
                    t,
                    format!(
                        "`{}` is fast-math-only but is referenced from default-build \
                         code; gate the call site with #[cfg(feature = \"{GATED_FEATURE}\")] \
                         or route through the feature-dispatching wrapper (hot_exp)",
                        t.text
                    ),
                );
            }
            i += 1;
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path).then(a.line.cmp(&b.line)));
    out
}

// ---- UDM009 -------------------------------------------------------------

/// Identifiers that introduce nondeterminism when called inside a
/// once-init closure.
const NONDET_CALLS: [&str; 8] = [
    "thread_rng",
    "from_entropy",
    "random",
    "now",
    "elapsed",
    "timestamp",
    "current",
    "available_parallelism",
];

/// Path roots whose mention inside an init closure is nondeterministic.
const NONDET_ROOTS: [&str; 4] = ["SystemTime", "Instant", "ThreadId", "rand"];

/// Collection types whose iteration order is nondeterministic.
const UNORDERED_TYPES: [&str; 2] = ["HashMap", "HashSet"];

/// Iterator-producing methods whose order reflects the collection's.
const ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

/// UDM009: `OnceLock::get_or_init` / `OnceCell` / `Lazy::new` closures
/// run once at a nondeterministic time on a nondeterministic thread, so
/// their result must depend only on their inputs. RNG, clocks, thread
/// ids and unordered-map iteration all make the cached value
/// run-dependent, which breaks replayable checkpoints.
///
/// A site is the argument group of `.get_or_init(` / `.get_or_try_init(`
/// / `Lazy::new(`; the closures passed directly in it are checked.
fn udm009_once_init_determinism(lexed: &Lexed, ctx: &FileContext, out: &mut Vec<Diagnostic>) {
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        let is_method = (t.is_ident("get_or_init") || t.is_ident("get_or_try_init"))
            && i > 0
            && toks[i - 1].is_punct(".");
        let is_lazy_new = t.is_ident("new")
            && i >= 2
            && toks[i - 1].is_punct("::")
            && toks[i - 2].is_ident("Lazy");
        if !(is_method || is_lazy_new)
            || !toks.get(i + 1).is_some_and(|n| n.is_punct("("))
            || ctx.in_test(t.start)
        {
            continue;
        }
        let Some(close) = group_close(toks, i + 1) else {
            continue;
        };
        let mut depth = 0usize;
        for k in i + 1..close {
            let tk = &toks[k];
            if depth == 1 && is_closure_open(toks, k) {
                check_init_closure(toks, k, close, ctx, out);
            }
            if is_opener(tk) {
                depth += 1;
            } else if is_closer(tk) {
                depth = depth.saturating_sub(1);
            }
        }
    }
}

/// True when `toks[k]` opens a closure's parameter list (`|` / `||`
/// right after `(`, `,` or `move`).
fn is_closure_open(toks: &[Tok], k: usize) -> bool {
    (toks[k].is_punct("|") || toks[k].is_punct("||"))
        && k > 0
        && (toks[k - 1].is_punct("(") || toks[k - 1].is_punct(",") || toks[k - 1].is_ident("move"))
}

/// Scans one init closure, from its opening pipe to the `,` or `)` that
/// ends it in the site's argument list (`site_close`).
fn check_init_closure(
    toks: &[Tok],
    open: usize,
    site_close: usize,
    ctx: &FileContext,
    out: &mut Vec<Diagnostic>,
) {
    // Skip the parameter list: `|a, b|` holds depth-0 commas.
    let mut body = open + 1;
    if toks[open].is_punct("|") {
        while body < site_close && !toks[body].is_punct("|") {
            body += 1;
        }
        body += 1;
    }
    let mut end = body;
    let mut depth = 0usize;
    while end < site_close {
        let t = &toks[end];
        if depth == 0 && t.is_punct(",") {
            break;
        }
        if is_opener(t) {
            depth += 1;
        } else if is_closer(t) {
            depth = depth.saturating_sub(1);
        }
        end += 1;
    }
    for i in open..end {
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        let name = t.text.as_str();
        let is_call = toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        let flagged = (NONDET_CALLS.contains(&name) && is_call)
            || NONDET_ROOTS.contains(&name)
            || (name == "thread"
                && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
                && toks.get(i + 2).is_some_and(|n| n.is_ident("current")));
        if flagged {
            diag(
                out,
                "UDM009",
                ctx,
                t,
                format!(
                    "once-init closure calls `{name}` — RNG/clock/thread state \
                     makes the cached value run-dependent; compute it from \
                     explicit inputs (seed, config) instead"
                ),
            );
            break;
        }
    }
    for i in body..end {
        let t = &toks[i];
        let iterates = t.kind == TokKind::Ident
            && !(i > 0 && (toks[i - 1].is_punct(".") || toks[i - 1].is_punct("::")))
            && toks.get(i + 1).is_some_and(|n| n.is_punct("."))
            && toks
                .get(i + 2)
                .is_some_and(|m| ITER_METHODS.contains(&m.text.as_str()));
        if !iterates {
            continue;
        }
        if let Some(ty) = declared_unordered_type(toks, &t.text, i) {
            diag(
                out,
                "UDM009",
                ctx,
                t,
                format!(
                    "once-init closure iterates `{}` ({ty}) whose order is \
                     nondeterministic; collect into a sorted Vec or use BTreeMap \
                     before folding",
                    t.text
                ),
            );
        }
    }
}

/// True when `toks[j]` declares a binding: `let [mut] name`, or a typed
/// parameter `name:` in a `fn` or closure parameter list.
fn is_binding_decl(toks: &[Tok], j: usize) -> bool {
    let prev = |k: usize| j.checked_sub(k).map(|p| &toks[p]);
    let after_let = prev(1).is_some_and(|p| p.is_ident("let"))
        || (prev(1).is_some_and(|p| p.is_ident("mut"))
            && prev(2).is_some_and(|p| p.is_ident("let")));
    let typed_param = toks.get(j + 1).is_some_and(|n| n.is_punct(":"))
        && prev(1).is_some_and(|p| {
            p.is_punct("(") || p.is_punct(",") || p.is_punct("|") || p.is_ident("mut")
        });
    after_let || typed_param
}

/// The unordered collection type named in the nearest declaration of
/// `name` before token `before` (its type and initializer, up to the
/// `;`, `,` or `)` that ends it). `None` when that declaration names
/// neither type, or no declaration precedes the use.
fn declared_unordered_type(toks: &[Tok], name: &str, before: usize) -> Option<&'static str> {
    let decl = (0..before)
        .rev()
        .find(|&j| toks[j].is_ident(name) && is_binding_decl(toks, j))?;
    let mut depth = 0usize;
    for t in &toks[decl + 1..before] {
        if depth == 0 && (t.is_punct(";") || t.is_punct(",") || is_closer(t)) {
            break;
        }
        if let Some(ty) = UNORDERED_TYPES.iter().find(|ty| t.is_ident(ty)) {
            return Some(ty);
        }
        if is_opener(t) {
            depth += 1;
        } else if is_closer(t) {
            depth -= 1;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let l = lex(src);
        let ctx = FileContext::new("fixture.rs", &l, true);
        run_file_rules(&l, &ctx)
    }

    fn rules_of(ds: &[Diagnostic]) -> Vec<&'static str> {
        ds.iter().map(|d| d.rule).collect()
    }

    /// Runs UDM008 over `(path, source)` files in fixture mode.
    fn lint_files(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
        let lexed: Vec<Lexed> = sources.iter().map(|(_, src)| lex(src)).collect();
        let ctxs: Vec<FileContext> = sources
            .iter()
            .zip(&lexed)
            .map(|((path, _), l)| FileContext::new(path, l, true))
            .collect();
        let files: Vec<(&Lexed, &FileContext)> = lexed.iter().zip(&ctxs).collect();
        udm008_fast_math_isolation(&files)
    }

    #[test]
    fn udm002_flags_float_comparisons() {
        let ds = lint("fn f(x: f64) -> bool { x == 0.0 }");
        assert!(rules_of(&ds).contains(&"UDM002"));
        let ds = lint("fn f(x: f64) -> bool { 1.5 != x }");
        assert!(rules_of(&ds).contains(&"UDM002"));
    }

    #[test]
    fn udm002_ignores_integer_comparisons() {
        let ds = lint("fn f(n: usize) -> bool { n == 0 && n != 3 }");
        assert!(!rules_of(&ds).contains(&"UDM002"));
    }

    #[test]
    fn udm002_operand_scan_stops_at_boundaries() {
        // The float literal is in a *different* clause.
        let ds = lint("fn f(n: usize, x: f64) -> bool { n == 0 && x < 1.5 }");
        assert!(!rules_of(&ds).contains(&"UDM002"));
    }

    #[test]
    fn udm002_fract_zero_test_is_exempt() {
        let ds = lint("fn f(x: f64) -> bool { x.fract() == 0.0 }");
        assert!(!rules_of(&ds).contains(&"UDM002"));
        let ds = lint("fn f(x: f64) -> bool { 0.0 != x.fract() }");
        assert!(!rules_of(&ds).contains(&"UDM002"));
    }

    #[test]
    fn udm002_skips_test_modules() {
        let src = "#[cfg(test)]\nmod tests { fn t(x: f64) -> bool { x == 0.0 } }";
        let l = lex(src);
        let ctx = FileContext::new("crates/core/src/f.rs", &l, false);
        assert!(run_file_rules(&l, &ctx).is_empty());
    }

    #[test]
    fn udm003_flags_variance_sqrt() {
        for src in [
            "fn f(var: f64) -> f64 { var.sqrt() }",
            "fn f(&self) -> f64 { self.variance(j).sqrt() }",
            "fn f(a: f64, b: f64) -> f64 { (a - b).sqrt() }",
            "fn f(&self) -> f64 { self.m2.sqrt() }",
        ] {
            assert!(rules_of(&lint(src)).contains(&"UDM003"), "{src}");
        }
    }

    #[test]
    fn udm003_allows_benign_sqrt() {
        for src in [
            "fn f(x: f64) -> f64 { x.sqrt() }",
            "fn f(sum: f64, n: f64) -> f64 { (sum / n).sqrt() }",
            "fn f(h: f64, psi: f64) -> f64 { (h * h + psi * psi).sqrt() }",
        ] {
            assert!(!rules_of(&lint(src)).contains(&"UDM003"), "{src}");
        }
    }

    #[test]
    fn udm005_flags_unvalidated_entry_point() {
        let src = "pub fn density(&self, x: &[f64]) -> f64 { self.sum(x) }";
        assert!(rules_of(&lint(src)).contains(&"UDM005"));
    }

    #[test]
    fn udm005_accepts_guards_and_delegation() {
        for src in [
            "pub fn density(&self, x: &[f64]) -> f64 { ensure_finite_slice(\"q\", x)?; self.sum(x) }",
            "pub fn density(&self, x: &[f64]) -> f64 { ensure_finite_slice(\"q\", x).unwrap_or(0.0); self.sum(x) }",
            "pub fn density(&self, x: &[f64]) -> f64 { self.density_subspace(x, s) }",
            "pub fn classify(&self, x: &UncertainPoint) -> L { self.log_scores(x) }",
            "pub fn density_meta(&self) -> usize { 3 }",
            "fn density_private(x: &[f64]) -> f64 { x[0] }",
        ] {
            assert!(!rules_of(&lint(src)).contains(&"UDM005"), "{src}");
        }
    }

    #[test]
    fn udm005_skips_test_gated_items() {
        let src = "#[cfg(test)]\nmod t { pub fn density(x: &[f64]) -> f64 { x[0] } }";
        assert!(!rules_of(&lint(src)).contains(&"UDM005"));
    }

    #[test]
    fn udm009_flags_rng_time_and_unordered_iteration() {
        for src in [
            "fn f(c: &OnceLock<u64>) { c.get_or_init(|| thread_rng().next_u64()); }",
            "fn f(c: &OnceLock<f64>) { c.get_or_init(|| Instant::now().elapsed().as_secs_f64()); }",
            "static W: Lazy<f64> = Lazy::new(|| SystemTime::now().elapsed().unwrap().as_secs_f64());",
            "fn f(c: &OnceLock<f64>) { let m: HashMap<u32, f64> = HashMap::new(); c.get_or_init(|| m.iter().map(|(_, v)| v).sum()); }",
            "fn f(c: &OnceLock<f64>, m: &HashSet<u32>) { c.get_or_init(move || m.iter().count() as f64); }",
            "fn f(c: &OnceLock<u64>) { c.get_or_try_init(|| Ok(std::thread::current().id().as_u64())); }",
        ] {
            assert!(rules_of(&lint(src)).contains(&"UDM009"), "{src}");
        }
    }

    #[test]
    fn udm009_accepts_deterministic_init() {
        for src in [
            "fn f(c: &OnceLock<Vec<f64>>, n: usize) { c.get_or_init(|| vec![0.0; n]); }",
            "static T: Lazy<Vec<f64>> = Lazy::new(|| (0..256).map(|i| (i as f64).exp()).collect());",
            "fn f(c: &OnceLock<f64>) { let m: BTreeMap<u32, f64> = BTreeMap::new(); c.get_or_init(|| m.iter().map(|(_, v)| v).sum()); }",
            "fn f() { let x = now(); }",
            // A function path, not a closure: nothing runs inside the site.
            "fn f(c: &OnceLock<Instant>) { c.get_or_init(Instant::now); }",
            // The nearest declaration wins: the HashMap binding is shadowed.
            "fn f(c: &OnceLock<f64>) { let m: HashMap<u32, f64> = HashMap::new(); let m: Vec<f64> = vec![]; c.get_or_init(|| m.iter().sum()); }",
        ] {
            assert!(!rules_of(&lint(src)).contains(&"UDM009"), "{src}");
        }
    }

    #[test]
    fn udm009_skips_test_code() {
        let src = "#[cfg(test)]\nmod t { fn f(c: &OnceLock<u64>) { c.get_or_init(|| thread_rng().next_u64()); } }";
        assert!(!rules_of(&lint(src)).contains(&"UDM009"));
    }

    #[test]
    fn udm008_ungated_mention_of_gated_fn_is_flagged() {
        let ds = lint_files(&[(
            "a.rs",
            "#[cfg(feature = \"fast-math\")]\npub fn approx(x: f64) -> f64 { x }\npub fn caller(x: f64) -> f64 { approx(x) }",
        )]);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].rule, "UDM008");
        assert_eq!(ds[0].line, 3);
    }

    #[test]
    fn udm008_named_root_mention_is_flagged_cross_file() {
        let ds = lint_files(&[
            ("kde.rs", "pub fn fast_exp(x: f64) -> f64 { x }"),
            (
                "density.rs",
                "pub fn build(x: f64) -> f64 { helper(x, fast_exp) }",
            ),
        ]);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].path, "density.rs");
    }

    #[test]
    fn udm008_gated_item_in_gated_module_taints_across_files() {
        let ds = lint_files(&[
            (
                "fast.rs",
                "#[cfg(feature = \"fast-math\")]\nmod approx {\n    pub static mut TABLE: [f64; 4] = [0.0; 4];\n    pub fn lookup(i: usize) -> f64 { i as f64 }\n}",
            ),
            ("user.rs", "pub fn f() -> f64 { lookup(1) }"),
        ]);
        let lines: Vec<(&str, usize)> = ds.iter().map(|d| (d.path.as_str(), d.line)).collect();
        assert_eq!(lines, vec![("user.rs", 1)], "{ds:?}");
    }

    #[test]
    fn udm008_gated_caller_is_clean() {
        let ds = lint_files(&[(
            "a.rs",
            "#[cfg(feature = \"fast-math\")]\npub fn approx(x: f64) -> f64 { x }\n#[cfg(feature = \"fast-math\")]\npub fn caller(x: f64) -> f64 { approx(x) }",
        )]);
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn udm008_stmt_level_gate_is_clean() {
        let ds = lint_files(&[(
            "a.rs",
            "pub fn hot(x: f64) -> f64 {\n  #[cfg(feature = \"fast-math\")]\n  { fast_exp(x) }\n  #[cfg(not(feature = \"fast-math\"))]\n  { x.exp() }\n}",
        )]);
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn udm008_negated_gate_does_not_cover() {
        let ds = lint_files(&[(
            "a.rs",
            "pub fn hot(x: f64) -> f64 {\n  #[cfg(not(feature = \"fast-math\"))]\n  { fast_exp(x) }\n}",
        )]);
        assert_eq!(ds.len(), 1, "{ds:?}");
        assert_eq!(ds[0].line, 3);
    }

    #[test]
    fn udm008_cfg_macro_test_in_statement_is_clean() {
        let ds = lint_files(&[(
            "a.rs",
            "pub fn pick(x: f64) -> f64 { if cfg!(feature = \"fast-math\") { fast_exp(x) } else { x.exp() } }",
        )]);
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn udm008_use_statements_and_test_code_are_clean() {
        let ds = lint_files(&[(
            "a.rs",
            "use udm_kde::fast_exp;\npub use udm_kde::{fast_exp as fe, hot_exp};\n#[cfg(test)]\nmod tests { fn t() { assert!(fast_exp(0.0) > 0.9); } }",
        )]);
        assert!(ds.is_empty(), "{ds:?}");
    }

    #[test]
    fn udm008_definition_of_root_is_not_a_mention() {
        let ds = lint_files(&[("kde.rs", "pub fn fast_exp(x: f64) -> f64 { x + 1.0 }")]);
        assert!(ds.is_empty(), "{ds:?}");
    }
}
