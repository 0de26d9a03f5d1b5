//! # mapro-sym — symbolic equivalence engine
//!
//! The enumerative checker in `mapro-core` proves equivalence by running
//! every packet of the derived Cartesian domain through both pipelines —
//! complete, but exponential in the number of matched fields. This crate
//! replaces enumeration with a symbolic execution of both pipelines over
//! the joint header space, in one of two representations
//! ([`CoverBackend`]):
//!
//! * **Decision diagrams** (the default, [`ddcover`]): each pipeline
//!   compiles to one hash-consed MTBDD mapping header bits to an interned
//!   behavior, so equivalence is a root-pointer comparison and a
//!   disagreement witness is a diagram path.
//! * **Cube covers** ([`compile`], [`check`]): each pipeline compiles to a
//!   [`BehaviorCover`] — disjoint ternary cubes, each mapped to the one
//!   observable behavior all its packets share — and equivalence is a
//!   cross-intersection of the two covers. The cube algebra ([`cube`]) is
//!   also the megaflow cache's key algebra and `mapro-lint`'s syntactic
//!   subsumption (which re-exports it from here).
//!
//! Either way a disagreement is reported as one concrete representative
//! packet, so counterexample reporting stays byte-compatible with the
//! enumerative API. [`IncrementalChecker`] keeps a proof alive across
//! flow-mods and re-derives only the part inside each update's dirty
//! region.
//!
//! [`check_equivalent`] is the mode-dispatching front door re-exported by
//! the umbrella `mapro` prelude: `Auto` prefers the symbolic engine and
//! falls back to enumeration for constructs it cannot express;
//! `Symbolic` and `Enumerate` force one engine. The enumerative checker
//! is retained as a cross-check oracle — the differential test suites
//! assert the engines agree on every workload.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod compile;
pub mod cube;
pub mod ddcover;
pub mod incremental;
mod trie;

pub use check::{
    assert_equivalent, check_equivalent, check_equivalent_explain, check_equivalent_with,
    check_symbolic, FallbackInfo,
};
pub use compile::{
    compile, invalidation_cube, written_attrs, Atom, Behavior, BehaviorCover, CoverBackend,
    FieldSpace, SymConfig, Unsupported,
};
pub use cube::{Cube, Tern};
pub use ddcover::{BitLayout, DdEngine, TableLiveness};
pub use incremental::{dirty_region, refresh_cover, IncrementalChecker, ProofToken, Side, Verdict};
