//! `inc-lint` — the workspace determinism & sans-IO contract checker.
//!
//! Every headline claim this reproduction makes — the
//! [`FleetController`]'s incremental ≡ full-re-score and engine ≡ flat
//! oracle equivalences bit-for-bit, streaming ≡ full-row telemetry
//! `to_bits()` equality, decode-never-panics, chaos-scenario
//! replayability under a seed —
//! rests on *determinism contracts*: the decision-path crates must be
//! pure functions of observed state. Property tests probe those
//! contracts; this tool pins them at build time, the way P4's
//! compile-time restrictions make in-network programs analyzable.
//!
//! The checker is a self-contained static-analysis pass: a hand-rolled
//! Rust tokenizer ([`lexer`], aware of strings, raw strings, char
//! literals and nested comments — no `syn`, the vendor tree is
//! offline) feeding a declarative per-crate rule table ([`rules`]).
//! The six rules:
//!
//! | rule | contract |
//! |------|----------|
//! | `unordered-iter` | no iteration over `HashMap`/`HashSet` in `inc-sim`/`inc-hw`/`inc-paxos`/`inc-ondemand` |
//! | `wall-clock` | no `Instant::now`/`SystemTime` anywhere (simulated time only) |
//! | `ambient-rng` | no `thread_rng`/`rand::random`/`RandomState`; randomness is seeded |
//! | `panicking-decode` | no `unwrap`/`expect`/`panic!`/indexing in codec decode paths |
//! | `float-eq` | no `==`/`!=` against float literals outside tests |
//! | `slot-keyed-tree` | no `BTreeMap<u64, _>`/`BTreeSet<u64>` in `inc-paxos::multi` outside tests and `encode_pvalues`' signature |
//!
//! Violations are waived in-source with
//! `// inc-lint: allow(<rule>): <reason>` (reason mandatory, waiver
//! recorded in `lint.json`); the four sans-IO decision crates may not
//! carry waivers at all — there, the fix is the only way out.
//!
//! [`FleetController`]: https://example.invalid/inc-on-demand

pub mod lexer;
pub mod report;
pub mod rules;

pub use report::{lint_workspace, to_human, to_json, Report};
pub use rules::{scan_source, FileReport, Rule, Violation, Waiver, DECISION_CRATES, RULES};
