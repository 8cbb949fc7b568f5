"""The tree itself must stay lint-clean — the empty-baseline contract.

CI runs ``python -m repro.analysis lint src tests examples benchmarks
tools``; this test holds the same invariant from inside the suite, so a
violation fails locally before it ever reaches the lint job.
"""

from pathlib import Path

import pytest

from repro.analysis.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]


#: Every Python tree the repo ships, as the CI lint job lists them.
LINTED_TREES = ("src", "tests", "examples", "benchmarks", "tools")


@pytest.fixture(scope="module")
def repo_dirs():
    src = REPO_ROOT / "src"
    tests = REPO_ROOT / "tests"
    if not (src / "repro").is_dir() or not tests.is_dir():
        pytest.skip("not running from a source checkout")
    return src, tests


def test_tree_is_lint_clean(repo_dirs):
    trees = [REPO_ROOT / name for name in LINTED_TREES]
    assert all(tree.is_dir() for tree in trees)
    violations = lint_paths(trees, project_rules=False)
    assert violations == [], "\n" + "\n".join(v.format() for v in violations)


def test_project_rules_hold(repo_dirs):
    """RL005 (config coverage) on the real tree."""
    src, tests = repo_dirs
    from repro.analysis.lint import check_config_coverage

    for class_name in ("ServingConfig", "BalancingConfig"):
        coverage = check_config_coverage(
            src / "repro" / "engine" / "serving.py", tests, class_name
        )
        assert coverage == [], "\n" + "\n".join(v.format() for v in coverage)
