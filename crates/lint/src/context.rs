//! Per-file lint context: which crate a file belongs to, whether the
//! rules apply to it, and which byte regions a `cfg` gate covers.
//!
//! Gates are found by one token scan ([`find_cfg_regions`]): an outer
//! attribute opens a region from its `#` to the end of the item or
//! statement it decorates (the matching `}` of its body, or its `;`).
//! A `cfg!(..)` macro test opens a region over its enclosing statement.

use crate::lexer::{Lexed, Tok};

/// Library crates whose non-test code must keep variance square roots
/// clamped (UDM003) and whose public estimator entry points must
/// validate inputs (UDM005).
pub const LIBRARY_CRATES: [&str; 7] = [
    "core",
    "kde",
    "microcluster",
    "cluster",
    "classify",
    "data",
    "serve",
];

/// The feature whose items must stay unreachable from default builds
/// (UDM008).
pub const GATED_FEATURE: &str = "fast-math";

/// How the rules treat one file.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Root-relative path (forward slashes), as shown in diagnostics.
    pub rel_path: String,
    /// Library-crate `src/` code (UDM003/UDM005 apply).
    pub is_library: bool,
    /// Entire file is test/bench code (`tests/`, `benches/`, examples).
    pub is_test_file: bool,
    /// Byte ranges of code that only exists in test builds.
    pub test_regions: Vec<(usize, usize)>,
    /// Byte ranges of code that only exists with [`GATED_FEATURE`] on.
    pub fast_math_regions: Vec<(usize, usize)>,
}

impl FileContext {
    /// Builds the context for a file. In `fixture_mode` every file is
    /// treated as library non-test code so every rule fires.
    pub fn new(rel_path: &str, lexed: &Lexed, fixture_mode: bool) -> Self {
        let rel_path = rel_path.replace('\\', "/");
        let parts: Vec<&str> = rel_path.split('/').collect();
        let crate_name = if parts.len() >= 2 && parts[0] == "crates" {
            parts[1]
        } else {
            ""
        };
        let in_src = parts.contains(&"src");
        let is_test_file = !fixture_mode
            && (parts.contains(&"tests")
                || parts.contains(&"benches")
                || parts.contains(&"examples"));
        let regions = find_cfg_regions(&lexed.toks);
        FileContext {
            is_library: fixture_mode || (in_src && LIBRARY_CRATES.contains(&crate_name)),
            is_test_file,
            test_regions: regions.test,
            fast_math_regions: regions.fast_math,
            rel_path,
        }
    }

    /// True if the byte offset lies inside test code.
    pub fn in_test(&self, offset: usize) -> bool {
        self.is_test_file || in_regions(&self.test_regions, offset)
    }

    /// True if the byte offset lies inside [`GATED_FEATURE`]-only code.
    pub fn in_fast_math(&self, offset: usize) -> bool {
        in_regions(&self.fast_math_regions, offset)
    }
}

fn in_regions(regions: &[(usize, usize)], offset: usize) -> bool {
    regions.iter().any(|&(s, e)| offset >= s && offset < e)
}

/// Byte ranges covered by each kind of gate.
#[derive(Debug, Default)]
pub struct CfgRegions {
    /// `#[test]` items and items whose `cfg` requires `test`.
    pub test: Vec<(usize, usize)>,
    /// Items and statements whose `cfg` requires [`GATED_FEATURE`], and
    /// statements that test `cfg!(feature = "fast-math")`.
    pub fast_math: Vec<(usize, usize)>,
}

/// What a `cfg` predicate requires. An atom counts only outside any
/// `not(..)`: `cfg(not(test))` is default-build code, while
/// `cfg(any(test, feature = "fast-math"))` counts as both gates.
#[derive(Debug, Default, PartialEq, Eq)]
struct Requires {
    test: bool,
    fast_math: bool,
}

/// Scans the predicate tokens `toks[open..close]` (inside the `cfg(..)`
/// parentheses) for positive `test` / `feature = "fast-math"` atoms.
fn cfg_requires(toks: &[Tok], open: usize, close: usize) -> Requires {
    let mut req = Requires::default();
    let mut depth = 0usize;
    // Depths at which a `not(` group opened; an atom inside any is negated.
    let mut not_depths: Vec<usize> = Vec::new();
    for k in open..close {
        let t = &toks[k];
        if t.is_punct("(") {
            depth += 1;
            if k > 0 && toks[k - 1].is_ident("not") {
                not_depths.push(depth);
            }
        } else if t.is_punct(")") {
            if not_depths.last() == Some(&depth) {
                not_depths.pop();
            }
            depth = depth.saturating_sub(1);
        } else if not_depths.is_empty() {
            if t.is_ident("test") {
                req.test = true;
            } else if t.text.trim_matches('"') == GATED_FEATURE
                && k >= 2
                && toks[k - 1].is_punct("=")
                && toks[k - 2].is_ident("feature")
            {
                req.fast_math = true;
            }
        }
    }
    req
}

/// Index of the token closing the group opened at `open` (`(`, `[` or
/// `{`), counting all three bracket kinds.
pub(crate) fn group_close(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if is_opener(t) {
            depth += 1;
        } else if is_closer(t) {
            depth = depth.checked_sub(1)?;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

pub(crate) fn is_opener(t: &Tok) -> bool {
    t.is_punct("(") || t.is_punct("[") || t.is_punct("{")
}

pub(crate) fn is_closer(t: &Tok) -> bool {
    t.is_punct(")") || t.is_punct("]") || t.is_punct("}")
}

/// Last token index of the item or statement starting at `k`: its
/// `;`, or the `}` closing its first top-level brace group. Stops at the
/// close of an enclosing group.
fn item_end(toks: &[Tok], mut k: usize) -> usize {
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct(";") {
            return k;
        }
        if t.is_punct("{") {
            return group_close(toks, k).unwrap_or(toks.len() - 1);
        }
        if is_opener(t) {
            match group_close(toks, k) {
                Some(c) => k = c,
                None => return toks.len() - 1,
            }
        } else if is_closer(t) {
            return k.saturating_sub(1);
        }
        k += 1;
    }
    toks.len().saturating_sub(1)
}

/// Token range `[first, last]` of the statement around index `i`: back
/// to the previous `;` or block boundary at the same level, forward to
/// the next `;` or the enclosing block's `}`. Enclosing `(..)`/`[..]`
/// groups are stepped out of, so `f(cfg!(..)) + g()` is one statement.
fn statement_around(toks: &[Tok], i: usize) -> (usize, usize) {
    let mut first = 0;
    let mut depth = 0usize;
    for j in (0..i).rev() {
        let t = &toks[j];
        if depth == 0 && (t.is_punct(";") || t.is_punct("{") || t.is_punct("}")) {
            first = j + 1;
            break;
        }
        if is_closer(t) {
            depth += 1;
        } else if is_opener(t) {
            depth = depth.saturating_sub(1);
        }
    }
    let mut last = toks.len().saturating_sub(1);
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(i) {
        if depth == 0 && (t.is_punct(";") || t.is_punct("}")) {
            last = if t.is_punct(";") {
                j
            } else {
                j.saturating_sub(1)
            };
            break;
        }
        if is_opener(t) {
            depth += 1;
        } else if is_closer(t) {
            depth = depth.saturating_sub(1);
        }
    }
    (first, last)
}

/// Finds the byte ranges of test-only and fast-math-only code:
///
/// * `#[test]` and `#[cfg(..)]` outer attributes cover the item or
///   statement they decorate, from the attribute's `#` on (further
///   attributes included);
/// * `cfg!(..)` covers its enclosing statement, so both arms of
///   `if cfg!(feature = "fast-math") { .. } else { .. }` count as gated.
pub fn find_cfg_regions(toks: &[Tok]) -> CfgRegions {
    let mut regions = CfgRegions::default();
    let span = |first: usize, last: usize| (toks[first].start, toks[last].end);
    let mut i = 0;
    while i < toks.len() {
        let is_attr = toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("["));
        let is_cfg_macro = toks[i].is_ident("cfg")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("("));
        if is_attr {
            let Some(close) = group_close(toks, i + 1) else {
                break;
            };
            let req = if toks.get(i + 2).is_some_and(|t| t.is_ident("test")) && close == i + 3 {
                Requires {
                    test: true,
                    fast_math: false,
                }
            } else if toks.get(i + 2).is_some_and(|t| t.is_ident("cfg")) {
                cfg_requires(toks, i + 3, close)
            } else {
                Requires::default()
            };
            if req != Requires::default() {
                let last = item_end(toks, close + 1).max(close);
                if req.test {
                    regions.test.push(span(i, last));
                }
                if req.fast_math {
                    regions.fast_math.push(span(i, last));
                }
            }
            i = close + 1;
        } else if is_cfg_macro {
            let close = group_close(toks, i + 2).unwrap_or(i + 2);
            let req = cfg_requires(toks, i + 3, close);
            let (first, last) = statement_around(toks, i);
            if req.test {
                regions.test.push(span(first, last));
            }
            if req.fast_math {
                regions.fast_math.push(span(first, last));
            }
            i = close + 1;
        } else {
            i += 1;
        }
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn ctx(src: &str) -> FileContext {
        FileContext::new("crates/core/src/x.rs", &lex(src), false)
    }

    #[test]
    fn cfg_test_module_region_covers_body() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n fn b() { x.unwrap(); }\n}\nfn c() {}";
        let c = ctx(src);
        assert_eq!(c.test_regions.len(), 1);
        assert!(c.in_test(src.find("unwrap").unwrap()));
        assert!(!c.in_test(src.find("fn a").unwrap()));
        assert!(!c.in_test(src.find("fn c").unwrap()));
    }

    #[test]
    fn test_fn_attribute_region() {
        let src = "#[test]\nfn t() { y.unwrap(); }\nfn real() {}";
        let c = ctx(src);
        assert!(c.in_test(src.find("y.unwrap").unwrap()));
        assert!(!c.in_test(src.find("fn real").unwrap()));
    }

    #[test]
    fn negated_test_gate_is_default_build_code() {
        let src = "#[cfg(not(test))]\nfn prod() { x.unwrap(); }";
        let c = ctx(src);
        assert!(c.test_regions.is_empty());
        assert!(!c.in_test(src.find("unwrap").unwrap()));
    }

    #[test]
    fn library_classification() {
        let l = lex("");
        let c = FileContext::new("crates/kde/src/estimator.rs", &l, false);
        assert!(c.is_library && !c.is_test_file);
        let c = FileContext::new("crates/cli/src/main.rs", &l, false);
        assert!(!c.is_library);
        let c = FileContext::new("crates/core/tests/int.rs", &l, false);
        assert!(c.is_test_file);
    }

    #[test]
    fn fixture_mode_enables_everything() {
        let c = FileContext::new("udm005.rs", &lex(""), true);
        assert!(c.is_library && !c.is_test_file);
    }

    #[test]
    fn derive_attributes_do_not_open_regions() {
        let src = "#[derive(Debug)]\nstruct S;\nfn f() { x.unwrap(); }";
        let c = ctx(src);
        assert!(c.test_regions.is_empty() && c.fast_math_regions.is_empty());
        assert!(!c.in_test(src.find("unwrap").unwrap()));
    }

    #[test]
    fn feature_gates_cover_items_statements_and_declarations() {
        let src = "#[cfg(feature = \"fast-math\")]\nconst BITS: usize = 11;\n\
                   fn hot(x: f64) -> f64 {\n\
                   #[cfg(feature = \"fast-math\")]\n{ approx(x) }\n\
                   #[cfg(not(feature = \"fast-math\"))]\n{ exact(x) }\n}";
        let c = ctx(src);
        assert!(c.in_fast_math(src.find("BITS").unwrap()));
        assert!(c.in_fast_math(src.find("approx").unwrap()));
        assert!(!c.in_fast_math(src.find("exact").unwrap()));
        assert!(!c.in_fast_math(src.find("fn hot").unwrap()));
    }

    #[test]
    fn cfg_macro_covers_its_whole_statement() {
        let src = "fn pick(x: f64) -> f64 { let y = 1.0; \
                   if cfg!(feature = \"fast-math\") { approx(x) } else { exact(x) } }\n\
                   fn after() {}";
        let c = ctx(src);
        assert!(c.in_fast_math(src.find("approx").unwrap()));
        assert!(c.in_fast_math(src.find("exact").unwrap()));
        assert!(!c.in_fast_math(src.find("let y").unwrap()));
        assert!(!c.in_fast_math(src.find("fn after").unwrap()));
    }

    #[test]
    fn gated_static_initialiser_ends_at_its_semicolon() {
        let src = "#[cfg(feature = \"fast-math\")]\n\
                   static T: Lazy<f64> = Lazy::new(|| { 1.0 });\nfn next() {}";
        let c = ctx(src);
        assert!(c.in_fast_math(src.find("Lazy::new").unwrap()));
        assert!(!c.in_fast_math(src.find("fn next").unwrap()));
    }
}
