"""Fixture tests for every repro-lint rule: one firing + one quiet case each."""

import textwrap

from repro.analysis.lint import (
    RULES,
    Violation,
    check_config_coverage,
    lint_file,
    lint_paths,
)


def _write(tmp_path, relative, source):
    path = tmp_path / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))
    return path


def _rules(violations):
    return [violation.rule for violation in violations]


class TestRL001LruCache:
    def test_fires_on_functools_lru_cache(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/util.py",
            """
            import functools

            @functools.lru_cache(maxsize=None)
            def lookup(self, key):
                return key
            """,
        )
        assert _rules(lint_file(path)) == ["RL001"]

    def test_fires_on_from_import_and_bare_cache(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/util.py",
            """
            from functools import cache, lru_cache

            @lru_cache
            def a(x):
                return x

            @cache
            def b(x):
                return x
            """,
        )
        assert _rules(lint_file(path)) == ["RL001", "RL001"]

    def test_quiet_on_instance_memo_and_wraps(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/util.py",
            """
            import functools
            from repro.memo import instance_memo

            class Thing:
                @instance_memo("_memo")
                def lookup(self, key):
                    return key

            @functools.wraps(print)
            def wrapped(*args):
                return None
            """,
        )
        assert lint_file(path) == []


class TestRL002SeededRng:
    def test_fires_on_unseeded_default_rng(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/util.py",
            """
            import numpy as np

            def draw():
                return np.random.default_rng().normal()
            """,
        )
        assert _rules(lint_file(path)) == ["RL002"]

    def test_fires_on_legacy_global_api(self, tmp_path):
        path = _write(
            tmp_path,
            "tests/test_x.py",
            """
            import numpy as np

            def test_draw():
                np.random.seed(0)
                return np.random.binomial(4, 0.5)
            """,
        )
        assert _rules(lint_file(path)) == ["RL002", "RL002"]

    def test_fires_through_from_import_alias(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/util.py",
            """
            from numpy.random import default_rng as mk_rng

            def draw():
                return mk_rng()
            """,
        )
        assert _rules(lint_file(path)) == ["RL002"]

    def test_quiet_on_seeded_constructions(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/util.py",
            """
            import numpy as np

            def draw(seed):
                a = np.random.default_rng(seed)
                b = np.random.default_rng(seed=seed)
                c = np.random.Generator(np.random.PCG64(seed))
                return a, b, c
            """,
        )
        assert lint_file(path) == []

    def test_quiet_outside_src_and_tests(self, tmp_path):
        path = _write(
            tmp_path,
            "scripts/adhoc.py",
            """
            import numpy as np

            rng = np.random.default_rng()
            """,
        )
        assert lint_file(path) == []


class TestRL003WallClock:
    def test_fires_inside_sim_packages(self, tmp_path):
        for package in (
            "engine",
            "network",
            "workload",
            "mapping",
            "faults",
            "serving",
            "balancer",
            "topology",
        ):
            path = _write(
                tmp_path,
                f"src/repro/{package}/mod.py",
                """
                import time

                def stamp():
                    return time.perf_counter()
                """,
            )
            assert _rules(lint_file(path)) == ["RL003"], package

    def test_fires_on_datetime_now(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/engine/mod.py",
            """
            import datetime

            def stamp():
                return datetime.datetime.now()
            """,
        )
        assert _rules(lint_file(path)) == ["RL003"]

    def test_quiet_outside_sim_packages(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/experiments/mod.py",
            """
            import time

            def stamp():
                return time.perf_counter()
            """,
        )
        assert lint_file(path) == []

    def test_quiet_on_simulated_time_attribute(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/engine/mod.py",
            """
            def advance(state):
                state.time = state.time + 1.0
                return state.clock.time()
            """,
        )
        assert lint_file(path) == []


class TestRL004BuiltinHash:
    def test_fires_on_hash_call(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/util.py",
            """
            def derive(seed, layer):
                return hash((seed, layer)) % 2**32
            """,
        )
        assert _rules(lint_file(path)) == ["RL004"]

    def test_quiet_on_dunder_hash_and_hashlib(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/util.py",
            """
            import hashlib

            class Key:
                def __hash__(self):
                    return 7

            def digest(payload):
                return hashlib.sha256(payload).hexdigest()
            """,
        )
        assert lint_file(path) == []


class TestSuppression:
    def test_disable_with_reason_silences_rule(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/util.py",
            """
            def derive(key):
                return hash(key)  # repro-lint: disable=RL004 -- interning probe
            """,
        )
        assert lint_file(path) == []

    def test_disable_without_reason_is_rl000(self, tmp_path):
        # The reason-less disable is spliced in at runtime so this test
        # file's own source never carries one (the repo-wide line scan
        # would flag it here otherwise — fixture strings are still lines).
        path = _write(
            tmp_path,
            "src/repro/util.py",
            """
            def derive(key):
                return hash(key)  # repro-lint: MARKER
            """.replace("MARKER", "disable=RL004"),
        )
        assert _rules(lint_file(path)) == ["RL000", "RL004"]

    def test_disable_only_silences_named_rule(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/util.py",
            """
            def derive(key):
                return hash(key)  # repro-lint: disable=RL002 -- wrong id
            """,
        )
        assert _rules(lint_file(path)) == ["RL004"]

    def test_disable_multiple_ids(self, tmp_path):
        path = _write(
            tmp_path,
            "src/repro/engine/mod.py",
            """
            import time

            def stamp(key):
                return hash(key) + time.time()  # repro-lint: disable=RL003, RL004 -- fixture
            """,
        )
        assert lint_file(path) == []


class TestRL005ConfigCoverage:
    CONFIG = """
    from dataclasses import dataclass

    @dataclass
    class ServingConfig:
        num_iterations: int = 10
        shadow_slots: int = 2
        unreferenced_flag: bool = False
    """

    def test_fires_on_unreferenced_field(self, tmp_path):
        config = _write(tmp_path, "src/repro/engine/serving.py", self.CONFIG)
        _write(
            tmp_path,
            "tests/test_cfg.py",
            """
            def test_cfg(make):
                cfg = make(num_iterations=3)
                assert cfg.shadow_slots >= 0
            """,
        )
        violations = check_config_coverage(config, tmp_path / "tests")
        assert _rules(violations) == ["RL005"]
        assert "unreferenced_flag" in violations[0].message

    def test_quiet_when_all_fields_referenced(self, tmp_path):
        config = _write(tmp_path, "src/repro/engine/serving.py", self.CONFIG)
        _write(
            tmp_path,
            "tests/test_cfg.py",
            """
            def test_cfg(make):
                cfg = make(num_iterations=3, unreferenced_flag=True)
                assert cfg.shadow_slots >= 0
            """,
        )
        assert check_config_coverage(config, tmp_path / "tests") == []

    def test_fires_on_missing_class(self, tmp_path):
        """A config class deleted from the module is reported, not
        silently treated as fully covered."""
        config = _write(tmp_path, "src/repro/engine/serving.py", self.CONFIG)
        _write(tmp_path, "tests/test_cfg.py", "def test_cfg():\n    pass\n")
        violations = check_config_coverage(
            config, tmp_path / "tests", "PricingConfig"
        )
        assert _rules(violations) == ["RL005"]
        assert "PricingConfig is not defined" in violations[0].message


class TestDriver:
    def test_unparsable_file_reports_rl000(self, tmp_path):
        path = _write(tmp_path, "src/repro/bad.py", "def broken(:\n")
        violations = lint_file(path)
        assert _rules(violations) == ["RL000"]
        assert "does not parse" in violations[0].message

    def test_lint_paths_walks_directories(self, tmp_path):
        _write(
            tmp_path,
            "src/repro/a.py",
            """
            def derive(key):
                return hash(key)
            """,
        )
        _write(
            tmp_path,
            "src/repro/b.py",
            """
            import numpy as np

            def draw():
                return np.random.default_rng()
            """,
        )
        violations = lint_paths([tmp_path / "src"], project_rules=False)
        assert sorted(_rules(violations)) == ["RL002", "RL004"]

    def test_violation_format_and_rule_table(self):
        violation = Violation("src/x.py", 7, "RL004", "message")
        assert violation.format() == "src/x.py:7: RL004 message"
        assert set(RULES) == {
            "RL000",
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
        }

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.analysis.lint import main

        bad = _write(
            tmp_path,
            "src/repro/bad.py",
            """
            def derive(key):
                return hash(key)
            """,
        )
        assert main([str(bad), "--no-project-rules"]) == 1
        assert "RL004" in capsys.readouterr().out
        good = _write(tmp_path, "src/repro/good.py", "VALUE = 1\n")
        assert main([str(good), "--no-project-rules"]) == 0
        assert "clean" in capsys.readouterr().out
