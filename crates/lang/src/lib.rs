//! The Locus optimization language (Sec. III of the paper).
//!
//! Locus programs orchestrate transformations over named code regions
//! and expose spaces of alternatives through *search constructs*. This
//! crate implements the complete language of the paper's Fig. 4 EBNF:
//!
//! * `CodeReg NAME { ... }` — the optimization sequence for regions
//!   labeled `NAME`;
//! * `OptSeq NAME(args) { ... }` — reusable named sequences;
//! * `def NAME(args) { ... }` — plain helper methods (no module calls);
//! * `Query` / `Module` declarations, `import` and `extern`;
//! * `Search { ... }` — build/run/measure configuration;
//! * search constructs: `OR` blocks, `OR` statements, optional (`*`)
//!   statements, and the value constructs `enum`, `integer`, `float`,
//!   `permutation`, `poweroftwo`, `loginteger`, `logfloat`;
//! * data structures (lists, tuples, `dict`), numbers and strings,
//!   `if`/`elif`/`else`, `for`, `while`, hierarchical index strings, and
//!   dependent ranges (`poweroftwo(2..tileI)`).
//!
//! The pipeline mirrors the paper's system:
//!
//! 1. [`parse`] turns source text into an AST whose search constructs
//!    carry stable serial numbers;
//! 2. [`optimize::optimize`] applies the paper's Sec. IV-C program
//!    optimizations (constant propagation, constant folding,
//!    dead-code elimination), shrinking the space once the system has
//!    substituted query results (`locus_core::subst`);
//! 3. [`extract::extract_space`] converts the program into a
//!    [`locus_space::Space`] (the `convertOptUniverse` step of
//!    Sec. IV-B), inferring dependent-range bounds by data flow;
//! 4. [`interp::Interp`] executes the program under a concrete
//!    [`locus_space::Point`], dispatching module invocations to a
//!    [`interp::TransformHost`] — the system side that owns the actual
//!    code regions.

#![warn(missing_docs)]

pub mod ast;
pub mod extract;
pub mod interp;
pub mod lexer;
pub mod optimize;
pub mod parser;
pub mod printer;
pub mod specialize;
pub mod value;

pub use ast::{LocusProgram, SearchKind};
pub use extract::{extract_space, SpaceInfo};
pub use interp::{HostError, Interp, RunOutput, TransformHost};
pub use parser::{parse, LocusParseError};
pub use printer::print_program;
pub use specialize::specialize;
pub use value::Value;
