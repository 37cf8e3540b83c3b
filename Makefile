.PHONY: all check test lint bench bench-e2e bench-churn bench-hotpath bench-faults bench-recovery bench-telemetry bench-verify bench-footprint clean

all:
	dune build

# Tier-1 verification: everything compiles (including benches and examples),
# the static-analysis pass is clean, and the full suite passes.
check:
	dune build @all @lint && dune runtest

test: check

# elmo-lint over every library's typed AST (incremental: per-library alias
# rules depend on the .cmt files, so only touched libraries re-lint).
lint:
	dune build @lint

bench:
	dune exec bench/main.exe -- all

# The repository's end-to-end benchmark (perfbench/, declared by
# BENCHMARK.json): every workload for the full 60 s, with its correctness
# gates; prints every end-to-end metric and exits nonzero on a gate failure.
bench-e2e:
	python3 perfbench/run.py --workload all --seed 1 --seconds 60

# Churn microbenchmark for the incremental encoding engine; writes
# BENCH_churn.json (events/sec, fast-path hit rate, p99 re-encode time).
bench-churn:
	dune exec bench/main.exe -- churn

# Hot-path kernel benchmark: raw apply_delta churn throughput with a
# Gc.minor_words allocation probe (exits nonzero if the zero-alloc claim
# breaks at runtime); writes BENCH_hotpath.json and compares events/sec
# against the incremental controller in BENCH_churn.json when present.
bench-hotpath:
	dune exec bench/main.exe -- hotpath

# Fault-injection sweep for the fault-tolerant control plane; writes
# BENCH_faults.json (degradation-induced extra traffic vs fault rate, with
# blackhole counts that must stay at zero).
bench-faults:
	dune exec bench/main.exe -- faults

# Durable-recovery benchmark: fenced failover latency vs snapshot cadence
# plus a seeded bit-flip/torn-write corruption sweep; every recovery is
# re-verified symbolically (exits nonzero on any violation); writes
# BENCH_recovery.json (ELMO_RECOVERY_EVENTS / ELMO_RECOVERY_TRIALS scale it).
bench-recovery:
	dune exec bench/main.exe -- recovery

# Telemetry baseline: Zipf-skewed packet workload through the oblivious
# encoder with the dataplane recorder attached; writes BENCH_telemetry.json
# (per-link max/mean utilization, elephant groups vs exact counts, sketch
# bound validation — the "before" number for a TE-aware encoder;
# ELMO_TE_GROUPS / ELMO_TE_PACKETS scale the workload).
bench-telemetry:
	dune exec bench/main.exe -- te-baseline

# Symbolic-verification throughput: compile every installed group to its
# canonical delivery predicate and check it against the membership intent;
# writes BENCH_verify.json (ELMO_VERIFY_GROUPS scales the group count).
bench-verify:
	dune exec bench/main.exe -- verify

# Per-group controller footprint: installs 10k groups on the Facebook
# fabric at P=12 and P=1 and reports live words per group (between two
# Gc.compact calls), minor words per group and groups/s; writes
# BENCH_footprint.json and exits nonzero above 450 live words per group
# at P=12 or 1,100 at P=1.
bench-footprint:
	dune exec bench/main.exe -- footprint

clean:
	dune clean
