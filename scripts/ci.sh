#!/usr/bin/env bash
# Tier-1 gate. The workspace has no external dependencies, so everything
# runs with --offline: a build that reaches for the network is a bug.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --check
cargo build --release --offline --workspace
# The benchmark harness in perfbench/ is a workspace of its own, so the
# build above never compiles it. It calls two tuning entry points by
# name — LocusSystem::tune_parallel_with_store_and_tracer and
# LocusSystem::tune_parallel_with_sharded_store — and a core API change
# that breaks them must fail here, not at benchmark time.
cargo build --release --offline --manifest-path perfbench/Cargo.toml
cargo test -q --offline --workspace
# The store round-trip named explicitly: write, drop, reopen, warm-start
# to the identical best point with zero re-measurements.
cargo test -q --offline --test store_persistence
# Verifier-pruned search named explicitly: racy points are refused before
# the machine ever simulates them, bit-identically to the sequential run.
cargo test -q --offline --test verify_pruning
# Engine differential suite named explicitly: the register VM must return
# bit-identical measurements to the tree interpreter on the whole corpus.
cargo test -q --offline --test vm_equivalence
# Deterministic fuzz suite (pinned seeds): parse(print(ast)) is a fixpoint
# for randomly generated mini-C programs, pragmas and omp clauses included.
cargo test -q --offline --test srcir_fuzz
# Legality-vs-dependence differential: no transform may be declared legal
# that a reported dependence forbids — now swept over the whole corpus
# registry, triangular PolyBench entries included — plus the one-sided
# precision invariant (exact refusals ⊆ conservative refusals) and
# checksum-identical execution of every newly-legal variant.
cargo test -q --offline --test legality_vs_deps
# Fourier–Motzkin property suite (pinned seeds): the engine's 3-valued
# feasibility verdict against brute-force enumeration over boxed and
# triangular integer domains, and decidedness on unimodular systems.
cargo test -q --offline --test polyhedron_props
# Corpus registry conformance: every entry round-trips the printer,
# prepares into a non-empty space, runs on every machine profile, and
# restructuring a non-rectangular region is refused or checksum-preserving.
cargo test -q --offline --test corpus_conformance
# Tracing layer: golden locus-report output, observation-only invariants,
# and counter accounting (proposed == memo + store + fresh + pruned).
cargo test -q --offline --test report_golden
cargo test -q --offline --test parallel_determinism
# Search-module conformance: every module passes the shared trait suite
# (per-seed determinism, batch ≡ repeated propose, seeded priors and
# refused points never re-proposed, NaN robustness, tiny-space
# termination) plus the trace-sampler model properties and pinned fit.
cargo test -q --offline --test search_conformance
cargo test -q --offline --test trace_sampler_props
# Tuning service: N concurrent daemon clients bit-identical to direct
# library calls, a poisoned request isolated by the supervisor, and the
# wire protocol surviving seeded fuzz without ever dropping a reply.
cargo test -q --offline --test daemon_service
cargo test -q --offline --test daemon_protocol
cargo clippy --offline --workspace --all-targets -- -D warnings
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace
# Private items too: intra-doc links between internal modules (the
# compiler, bytecode and VM) must not dangle either.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace --document-private-items

# Engine bench smoke in check mode: refuses to pass unless every kernel
# is bit-identical across tree, register VM *and* the batched register
# path, the register VM clears its speedup floors (7x geomean batched,
# 6x sequential), and the disabled-tracer run_traced path stays under
# 1% overhead.
./target/release/bench_interp /tmp/locus_bench_interp.json --check

# Cross-machine corpus sweep smoke: two entries over two profiles;
# every non-donor row must transfer its recipe from the store.
./target/release/bench_corpus --check

# Verdict-precision smoke: at least one triangular registry entry must
# admit a legal restructuring the conservative engine refused.
./target/release/bench_verify --check

# Search shoot-out in check mode: MCTS or the trace sampler must beat
# both the bandit and the annealer on evaluations-to-best-known for at
# least one corpus family, and the extended portfolio must not regress
# against its pre-extension composition on any family.
./target/release/bench_search --check

# Daemon bench smoke in check mode: zero error replies, the warm phase
# re-measures nothing and beats the cold wall-clock, and a poisoned
# request is refused as a structured panic while the daemon lives on.
./target/release/bench_daemon /tmp/locus_bench_daemon.json --check

# locus-report smoke: the committed fixture traces validate, and a
# malformed input is refused with a nonzero exit.
./target/release/locus-report --check tests/fixtures/session_trace.jsonl
./target/release/locus-report --check tests/fixtures/synthetic_trace.jsonl
if ./target/release/locus-report --check /dev/null; then
    echo "locus-report accepted an empty trace — it must refuse it" >&2
    exit 1
fi

# locus-lint smoke: the clean example lints clean, the racy one is
# refused with a nonzero exit.
./target/release/locus-lint examples/lint_clean.c
if ./target/release/locus-lint examples/lint_racy.c; then
    echo "locus-lint accepted examples/lint_racy.c — it must refuse it" >&2
    exit 1
fi
