#!/usr/bin/env sh
# Runs the committed perf benches and writes stable JSON:
#
#  * routing_ablation — ISSUE-7 mesh-vs-torus II ablation at
#    max_route_hops in {1, 2}, every mapping sim-validated end-to-end
#    (-> BENCH_PR7.json);
#  * persistence_bench — ISSUE-9 restart path: warm-start replay of the
#    disk log vs cold re-solving the 17-kernel suite
#    (-> BENCH_PR9.json);
#  * compile_bench — ISSUE-10 frontend: compiling the committed .mk
#    corpus vs cold-solving it; exits nonzero if compilation stops
#    being noise next to the solve (-> BENCH_PR10.json).
#
# Usage: scripts/bench_summary.sh
set -eu
cd "$(dirname "$0")/.."
cargo build --release -q -p cgra-bench --bin routing_ablation --bin persistence_bench --bin compile_bench
./target/release/routing_ablation --out BENCH_PR7.json
./target/release/persistence_bench --out BENCH_PR9.json
./target/release/compile_bench --out BENCH_PR10.json
