"""The repository's system benchmark (see bench/README.md and BENCHMARK.json)."""
