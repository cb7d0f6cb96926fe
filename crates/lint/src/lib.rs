//! # udm-lint
//!
//! A static check of the numeric and determinism invariants the
//! uncertain-data-mining crates rely on that no compiler or clippy lint
//! states (see `DESIGN.md`, "Numeric invariants & static analysis").
//! It runs on a self-contained lexer ([`lexer`]) plus one scan for the
//! code each `cfg` gate covers ([`context`]), so it needs no parser and
//! no external dependency and builds in the offline image.
//!
//! Rules ([`rules`]):
//!
//! * **UDM002** — no bare `==`/`!=` against float expressions outside
//!   test code; use `udm_core::num::approx_eq` (comparisons against
//!   `fract()` results are exempt — they are exact by construction).
//! * **UDM003** — `sqrt` of variance-like expressions must route
//!   through `udm_core::num::clamped_sqrt` (Lemma 1's radicand can go
//!   negative under catastrophic cancellation).
//! * **UDM005** — public estimator entry points (`density*`,
//!   `classify*`, serve `handle_*density*`/`handle_*classify*`) that take
//!   floats must validate finite inputs or delegate to an entry point
//!   that does (Eq. 5 / Eq. 11).
//! * **UDM008** — items gated on the `fast-math` feature, and the
//!   deliberately ungated approximate root `fast_exp`, must stay
//!   unreachable from default-build code; a cross-file pass.
//! * **UDM009** — `OnceLock`/`OnceCell`/`Lazy` initialisers must be
//!   deterministic: no RNG, clocks, thread ids, or unordered-map
//!   iteration inside the init closure.
//!
//! The rules that clippy or rustc already state live there instead:
//! panics in library code (`clippy::unwrap_used` & co., denied in each
//! library crate's `lib.rs`), lossy `as` casts on the hot path
//! (`clippy::as_conversions`, denied per module), undocumented `unsafe`
//! blocks (`clippy::undocumented_unsafe_blocks`, `[workspace.lints]`),
//! discarded span guards (`udm_observe::span!` expands to a `let`
//! statement), and shared mutable state at rayon seams (the `Sync` /
//! `Send` bounds of the closures).
//!
//! Waivers: inline `// udm-lint: allow(RULE) reason` comments cover
//! their own line and the next code line. An unused waiver fails the
//! check, so the allowlist only ever shrinks.
//!
//! Run with `cargo run -p udm-lint -- check [--root PATH]`.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod context;
pub mod engine;
pub mod lexer;
pub mod rules;
pub mod waivers;

pub use engine::{check, CheckReport};
pub use rules::{Diagnostic, ALL_RULES};
