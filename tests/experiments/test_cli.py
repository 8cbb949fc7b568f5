"""CLI-level tests for ``python -m repro.experiments`` cache management."""

from repro.experiments.cache import ResultCache
from repro.experiments.cli import main
from repro.experiments.result import RunResult
from repro.experiments.spec import ExperimentSpec


def _orphan_entry(cache_dir):
    """One cache entry whose spec is not in the live registry."""
    spec = ExperimentSpec(
        name="no-such-spec",
        figure="test",
        description="orphaned spec",
        grid={"x": [1]},
        point=lambda params: {},
    )
    cache = ResultCache(cache_dir)
    return cache.put(
        spec, RunResult(spec=spec.name, params={"x": 1}, metrics={})
    )


class TestCacheGcCommand:
    def test_prunes_orphaned_entry(self, tmp_path, capsys):
        path = _orphan_entry(tmp_path)
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 stale cached results" in capsys.readouterr().out
        assert not path.exists()

    def test_dry_run_reports_without_deleting(self, tmp_path, capsys):
        path = _orphan_entry(tmp_path)
        assert (
            main(["cache", "gc", "--cache-dir", str(tmp_path), "--dry-run"])
            == 0
        )
        assert "would remove 1" in capsys.readouterr().out
        assert path.exists()

    def test_empty_cache_ok(self, tmp_path, capsys):
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 0" in capsys.readouterr().out

    def test_live_registry_entry_kept(self, tmp_path, capsys):
        from repro.experiments.registry import all_specs

        spec = all_specs()[0]
        cache = ResultCache(tmp_path)
        params = dict(spec.points()[0]) if hasattr(spec, "points") else {}
        path = cache.put(
            spec, RunResult(spec=spec.name, params=params, metrics={})
        )
        assert main(["cache", "gc", "--cache-dir", str(tmp_path)]) == 0
        assert "1 current entries kept" in capsys.readouterr().out
        assert path.exists()


class TestClearCacheCommand:
    def test_clear_removes_everything(self, tmp_path, capsys):
        _orphan_entry(tmp_path)
        assert main(["clear-cache", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 1 cached results" in capsys.readouterr().out
        assert not list(tmp_path.glob("*.json"))
