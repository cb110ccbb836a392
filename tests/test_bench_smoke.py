"""The benchmark's own smoke check: every workload's small version, once
untraced and once traced, so a probe that no longer finds the callable it
wraps fails here rather than in a benchmark run."""

from conftest import REPO, run_python


def test_bench_smoke():
    done = run_python(["bench/run.py", "--smoke"], cwd=REPO, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
