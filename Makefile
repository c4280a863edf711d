PYTHON ?= python
export PYTHONPATH := src

.PHONY: test chaos-smoke serve-smoke bench-smoke bench-all build-native

# Best-effort build of the E20 compiled kernels into src/ (optional: the
# NumPy fallback is verdict-identical when this fails or is skipped).
build-native:
	$(PYTHON) setup.py build_ext --inplace

test:
	$(PYTHON) -m pytest -x -q

# Seeded chaos matrix: every site of repro.runtime.faults.KNOWN_SITES.
# The fault-injection suite replays under several fault schedules
# (solver-timeout, nonconvergence, store-write, store-sql-write and
# native-load), plus the gateway chaos matrix (conn-drop,
# journal-torn-write, slow-tenant, drain-flush, and the scale-out sites:
# commit-fsync-fail crashes a group-commit round with every verdict in
# it withheld, executor-crash SIGKILLs a gateway executor mid-batch).
# Verdicts must stay identical at every seed.
chaos-smoke:
	for seed in 0 1 2; do \
		echo "== chaos seed $$seed =="; \
		REPRO_FAULTS_SEED=$$seed $(PYTHON) -m pytest tests/runtime tests/service -x -q || exit 1; \
	done

# End-to-end gateway smoke: boot `repro serve` on ephemeral ports, replay
# a 1k-event two-tenant trace over real sockets, SIGTERM, assert a clean
# drain with full per-tenant accounting.  A second leg reruns with
# `--workers 2` and `kill -9`s the owning executor mid-replay: every
# event must still decide, and the footer must show the restart + replay.
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

# The benchmark's own tests, including a short smoke run of every epbench
# workload in both trace modes (the same command as the CI epbench job).
bench-smoke:
	python3 -m pytest epbench/tests

bench-all:
	cd benchmarks && PYTHONPATH=../src $(PYTHON) -m pytest -q
