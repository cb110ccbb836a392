"""Every demo script runs to completion against the current package."""

import pytest

from conftest import REPO, run_python

DEMOS = sorted((REPO / "demos").glob("*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    done = run_python([str(demo)], cwd=tmp_path)
    assert done.returncode == 0, done.stderr
