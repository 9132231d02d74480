//! A self-contained Answer Set Programming engine.
//!
//! This crate is the *clingo substitute* for the Rust reproduction of
//! *Using Answer Set Programming for HPC Dependency Solving* (SC'22). The paper's
//! concretizer sends a logic program plus tens of thousands of facts to clingo
//! (gringo + clasp); here the same pipeline is implemented from scratch:
//!
//! * [`parser`] — the ASP input language (facts, rules with variables, integrity
//!   constraints, choice rules with cardinality bounds, conditional literals,
//!   `#minimize` with priorities),
//! * [`ground`] — the grounder (the gringo analogue): semi-naive instantiation of
//!   first-order rules into a propositional program, with the simplifications shown in
//!   Fig. 3 of the paper,
//! * [`sat`] — a CDCL solver (the clasp analogue) with watched literals, 1-UIP clause
//!   learning, VSIDS, phase saving, restarts, and native cardinality / weighted-sum
//!   constraints,
//! * [`translate`] — Clark completion + choice-bound translation to clauses/constraints,
//! * [`stable`] — lazy unfounded-set checking so only *stable* models are reported,
//! * [`optimize`] — lexicographic multi-objective optimization (model-guided branch and
//!   bound), and
//! * [`control`] — a clingo-like front end ([`Control`]) with phase timings
//!   (load / ground / solve) and configuration presets named after the clingo presets
//!   the paper benchmarks (tweety, trendy, handy).
//!
//! # Dialect restrictions
//!
//! The engine supports the fragment of the ASP language the paper's concretization
//! program uses, with two restrictions: conditions of conditional literals and of choice
//! elements must be input facts, and every rule must be safe (each variable bound by a
//! positive body literal). `#maximize`, function terms, and intervals are not supported.
//!
//! `#external atom.` declares a ground *guard atom* in the clingo style: the grounder
//! treats it as possible, the translation exempts it from support-based elimination
//! (it is free instead of forced false), and the stability check treats a true
//! external as founded. Its truth is fixed per solve through an assumption
//! ([`Control::solve_with_assumptions`]), so one ground program can serve several
//! differently-parameterized solves — together with the per-solve priority floor of
//! [`Control::solve_with_assumptions_floor`], this is what lets the concretizer flip
//! between hard and relaxed error semantics without regrounding.
//!
//! # Example
//!
//! ```
//! use asp::{Control, SolverConfig, SolveOutcome};
//!
//! let mut ctl = Control::new(SolverConfig::default());
//! ctl.add_fact("depends_on", &["a".into(), "b".into()]);
//! ctl.add_fact("node", &["a".into()]);
//! ctl.add_program("node(D) :- node(P), depends_on(P, D).").unwrap();
//! ctl.ground().unwrap();
//! match ctl.solve().unwrap() {
//!     SolveOutcome::Optimal { model, .. } => {
//!         assert!(model.contains("node", &["b".into()]));
//!     }
//!     SolveOutcome::Unsatisfiable => unreachable!(),
//! }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod control;
pub mod ground;
pub mod hasher;
pub mod lexer;
pub mod optimize;
pub mod parser;
pub mod sat;
pub mod stable;
pub mod symbols;
pub mod translate;

pub use control::{
    AspError, AssumeOutcome, Assumption, Control, FrozenControl, Model, Preset, SolveBudget,
    SolveOutcome, SolverConfig, Stats, Value,
};
pub use ground::PatchStats;
