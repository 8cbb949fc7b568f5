"""repro-lint: AST enforcement of the repo's determinism contracts.

Eight PRs of "make the simulator honest and fast" piled up invariants
that existed only as convention: a fixed seed fixes the draw,
pinned oracles behind every ``ServingConfig`` flag, version-keyed caches
that must never serve stale or aliased arrays, per-instance memos instead
of method-level ``lru_cache``.  This module turns each convention into a
machine-checked rule over the stdlib ``ast`` — no third-party
dependencies — run as ``python -m repro.analysis lint src tests examples
benchmarks tools`` (a CI job, and ``tests/analysis/test_lint_repo.py``
holds the tree lint-clean from inside the suite too).

Rules
-----

RL001
    No ``functools.lru_cache`` / ``functools.cache``.  A method-level
    ``lru_cache`` keys on ``self`` and pins every instance it ever saw
    alive for the process lifetime (the PR 4 leak: retired mappings kept
    their route tables and silently defeated every weakref-keyed cache
    above them); a module-level one keyed on instances does the same.
    Use :func:`repro.memo.instance_memo`, or an explicit module dict
    with weak keys when the cache really is global.
RL002
    Every ``np.random.default_rng()`` / ``Generator`` / bit-generator
    construction must take an explicit seed expression, and the legacy
    ``np.random.*`` global API (``seed``, ``rand``, ``binomial``, ...)
    is banned outright — module-global RNG state is invisible to the
    fixed-seed contract.
RL003
    No wall-clock reads (``time.time``, ``perf_counter``,
    ``datetime.now``, ...) inside the simulation packages (``engine/``,
    ``network/``, ``workload/``, ``mapping/``, ``faults/``, ``serving/``,
    ``balancer/``, ``topology/``).  Simulated time is the *output* of
    those packages; timing code belongs in ``benchmarks/`` and
    ``experiments/``.
RL004
    No builtin ``hash()`` in ``src/``.  Int/tuple hashes happen to
    ignore ``PYTHONHASHSEED`` but str/bytes hashes do not, so seed and
    cache-key derivation through ``hash()`` is one refactor away from
    per-process randomization (see
    :func:`repro.workload.scenarios.stable_seed_mix` for the explicit
    mix that replaced the one historical use).
RL005
    Every ``ServingConfig`` field must be referenced by at least one
    test under ``tests/`` — each flag guards a pinned oracle, and an
    unreferenced flag is an oracle nothing would catch regressing.

Escape hatch
------------

A violating line may carry ``# repro-lint: disable=RLxxx -- <reason>``;
the reason is mandatory (a bare disable is itself reported, as RL000).
Multiple ids separate with commas.  The comment must sit on the exact
line the violation is reported at.

Static limits: alias tracking covers ``import``/``from`` bindings
(including ``as`` renames) but not runtime rebinding; calls through
intermediate variables (``rng_factory = np.random.default_rng``) resolve
through the import table only when bound directly by an import.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "RULES",
    "Violation",
    "lint_file",
    "lint_paths",
    "check_config_coverage",
]

#: rule id -> one-line summary (the documented contract lives in
#: ``docs/static-analysis.md``).
RULES: dict[str, str] = {
    "RL000": "repro-lint disable comment must carry a reason (`-- <why>`)",
    "RL001": "method-/instance-keyed functools.lru_cache (use repro.memo)",
    "RL002": "RNG must take an explicit seed; legacy np.random.* API banned",
    "RL003": "wall-clock read inside a simulation package",
    "RL004": "builtin hash() in seed/key derivation (PYTHONHASHSEED footgun)",
    "RL005": "serving config field not referenced by any test",
}

#: packages whose simulated time must never read the host clock.
SIM_PACKAGES = (
    "engine", "network", "workload", "mapping", "faults", "serving", "balancer", "topology"
)

_CACHE_DECORATORS = {"functools.lru_cache", "functools.cache"}

#: numpy.random constructors that demand an explicit seed argument.
_SEEDED_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.Generator",
    "numpy.random.SeedSequence",
    "numpy.random.PCG64",
    "numpy.random.PCG64DXSM",
    "numpy.random.Philox",
    "numpy.random.SFC64",
    "numpy.random.MT19937",
}

_WALL_CLOCK = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_DISABLE_RE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Z]{2}\d{3}(?:\s*,\s*[A-Z]{2}\d{3})*)"
    r"(?:\s*--\s*(.*))?"
)


@dataclass(frozen=True)
class Violation:
    """One rule breach at a source location."""

    path: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _parse_suppressions(
    path: str, source: str
) -> tuple[dict[int, set[str]], list[Violation]]:
    """Per-line disabled rule ids, plus RL000 for reason-less disables."""
    suppressions: dict[int, set[str]] = {}
    violations: list[Violation] = []
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _DISABLE_RE.search(text)
        if match is None:
            continue
        reason = (match.group(2) or "").strip()
        if not reason:
            violations.append(
                Violation(path, lineno, "RL000", RULES["RL000"])
            )
            continue
        ids = {part.strip() for part in match.group(1).split(",")}
        suppressions.setdefault(lineno, set()).update(ids)
    return suppressions, violations


class _Aliases:
    """Dotted-name resolution through the module's import bindings."""

    def __init__(self, tree: ast.AST) -> None:
        self.map: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    if item.asname:
                        self.map[item.asname] = item.name
                    # A plain `import a.b` binds only `a`, which already
                    # resolves to itself — nothing to record.
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                module = node.module or ""
                for item in node.names:
                    if item.name == "*":
                        continue
                    bound = item.asname or item.name
                    self.map[bound] = (
                        f"{module}.{item.name}" if module else item.name
                    )

    def resolve(self, node: ast.AST) -> str | None:
        """Fully-resolved dotted name of a Name/Attribute chain, or None."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        head = self.map.get(parts[0])
        if head is not None:
            parts[0] = head
        return ".".join(parts)


@dataclass(frozen=True)
class _Scope:
    """Which rule families apply to one file, from its path."""

    in_src: bool
    in_tests: bool
    in_sim_package: bool

    @classmethod
    def of(cls, path: Path) -> "_Scope":
        parts = path.parts
        in_src = "src" in parts
        in_tests = "tests" in parts
        in_sim = False
        if "repro" in parts:
            tail = parts[parts.index("repro") + 1 :]
            in_sim = in_src and bool(tail) and tail[0] in SIM_PACKAGES
        return cls(in_src=in_src, in_tests=in_tests, in_sim_package=in_sim)


class _FileChecker(ast.NodeVisitor):
    def __init__(self, path: str, aliases: _Aliases, scope: _Scope) -> None:
        self.path = path
        self.aliases = aliases
        self.scope = scope
        self.violations: list[Violation] = []

    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(
            Violation(self.path, node.lineno, rule, message)
        )

    # -- RL001 -----------------------------------------------------------
    def _check_decorators(self, node) -> None:
        if not (self.scope.in_src or self.scope.in_tests):
            return
        for decorator in node.decorator_list:
            target = decorator.func if isinstance(decorator, ast.Call) else decorator
            resolved = self.aliases.resolve(target)
            if resolved in _CACHE_DECORATORS:
                self._add(
                    decorator,
                    "RL001",
                    f"@{resolved} pins every instance/argument it ever saw "
                    "(the PR 4 leak); use repro.memo.instance_memo or an "
                    "explicit weak-keyed module cache",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_decorators(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_decorators(node)
        self.generic_visit(node)

    # -- RL002 / RL003 / RL004 ------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.aliases.resolve(node.func)
        if resolved is not None:
            self._check_rng(node, resolved)
            self._check_wall_clock(node, resolved)
        if (
            (self.scope.in_src or self.scope.in_tests)
            and isinstance(node.func, ast.Name)
            and self.aliases.resolve(node.func) == "hash"
        ):
            self._add(
                node,
                "RL004",
                "builtin hash() is PYTHONHASHSEED-dependent for str/bytes "
                "lanes; derive seeds/keys with an explicit mix "
                "(repro.workload.scenarios.stable_seed_mix) or hashlib",
            )
        self.generic_visit(node)

    def _check_rng(self, node: ast.Call, resolved: str) -> None:
        if not (self.scope.in_src or self.scope.in_tests):
            return
        if resolved in _SEEDED_CONSTRUCTORS:
            if not node.args and not node.keywords:
                self._add(
                    node,
                    "RL002",
                    f"{resolved}() without an explicit seed draws from OS "
                    "entropy — every construction must pass a seed "
                    "expression (fixed seed = fixed draw)",
                )
        elif resolved.startswith("numpy.random."):
            self._add(
                node,
                "RL002",
                f"legacy global-state API {resolved}() is banned; construct "
                "a seeded Generator via numpy.random.default_rng(seed)",
            )

    def _check_wall_clock(self, node: ast.Call, resolved: str) -> None:
        if self.scope.in_sim_package and resolved in _WALL_CLOCK:
            self._add(
                node,
                "RL003",
                f"{resolved}() reads the host clock inside a simulation "
                "package; simulated time is an output here — timing belongs "
                "in benchmarks/ or repro.experiments",
            )


def lint_file(path: Path | str) -> list[Violation]:
    """All rule violations in one file (project rules excluded)."""
    path = Path(path)
    source = path.read_text()
    display = str(path)
    try:
        tree = ast.parse(source, filename=display)
    except SyntaxError as error:
        return [
            Violation(
                display,
                error.lineno or 1,
                "RL000",
                f"file does not parse: {error.msg}",
            )
        ]
    suppressions, violations = _parse_suppressions(display, source)
    checker = _FileChecker(display, _Aliases(tree), _Scope.of(path))
    checker.visit(tree)
    violations.extend(
        violation
        for violation in checker.violations
        if violation.rule not in suppressions.get(violation.line, set())
    )
    return violations


# -- project rules ----------------------------------------------------------


def check_config_coverage(
    config_path: Path,
    tests_root: Path,
    class_name: str = "ServingConfig",
) -> list[Violation]:
    """RL005: every ``class_name`` dataclass field referenced by a test.

    A field counts as referenced when any test module passes it as a
    keyword argument (``BalancingConfig(shadow_slots=2)``, including
    through ``dataclasses.replace``) or reads it as an attribute
    (``config.shadow_slots``).  A ``class_name`` missing from the config
    module is itself a violation, so a deleted class cannot pass unchecked.
    """
    tree = ast.parse(config_path.read_text(), filename=str(config_path))
    class_node = next(
        (
            node
            for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == class_name
        ),
        None,
    )
    if class_node is None:
        return [
            Violation(
                str(config_path),
                1,
                "RL005",
                f"{class_name} is not defined in {config_path} — nothing "
                "left to check for test coverage",
            )
        ]
    fields = [
        (statement.target.id, statement.lineno)
        for statement in class_node.body
        if isinstance(statement, ast.AnnAssign)
        and isinstance(statement.target, ast.Name)
    ]
    referenced: set[str] = set()
    for test_path in sorted(tests_root.rglob("*.py")):
        try:
            test_tree = ast.parse(test_path.read_text())
        except SyntaxError:
            continue  # the per-file pass reports unparsable files
        for node in ast.walk(test_tree):
            if isinstance(node, ast.Call):
                referenced.update(
                    keyword.arg
                    for keyword in node.keywords
                    if keyword.arg is not None
                )
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return [
        Violation(
            str(config_path),
            lineno,
            "RL005",
            f"{class_name}.{name} is never referenced by any test under "
            f"{tests_root} — every serving flag guards a pinned oracle and "
            "needs at least one test exercising it",
        )
        for name, lineno in fields
        if name not in referenced
    ]


# -- driver ------------------------------------------------------------------


def _iter_python_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def lint_paths(
    paths: list[Path | str], project_rules: bool = True
) -> list[Violation]:
    """Lint every ``*.py`` under ``paths``; append applicable project rules.

    RL005 runs when the paths cover both the serving config
    (``repro/engine/serving.py``) and a ``tests`` root.
    """
    paths = [Path(path) for path in paths]
    violations: list[Violation] = []
    for file_path in _iter_python_files(paths):
        violations.extend(lint_file(file_path))
    if not project_rules:
        return violations
    config_path = None
    tests_root = None
    for path in paths:
        candidate = path / "repro" / "engine" / "serving.py"
        if candidate.is_file():
            config_path = candidate
        if path.name == "tests" and path.is_dir():
            tests_root = path
    if config_path is not None and tests_root is not None:
        # The grouped serving surface: the top-level config plus its
        # sub-config — every flag still guards a pinned oracle.
        for class_name in ("ServingConfig", "BalancingConfig"):
            violations.extend(
                check_config_coverage(config_path, tests_root, class_name)
            )
    return violations


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.analysis lint`` entry point."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis lint",
        description="Check the repo's determinism contracts (RL001-RL005).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--no-project-rules",
        action="store_true",
        help="skip the repo-level rule (RL005 config coverage)",
    )
    args = parser.parse_args(argv)
    violations = lint_paths(
        [Path(path) for path in args.paths],
        project_rules=not args.no_project_rules,
    )
    for violation in sorted(
        violations, key=lambda v: (v.path, v.line, v.rule)
    ):
        print(violation.format())
    if violations:
        print(f"repro-lint: {len(violations)} violation(s)")
        return 1
    print("repro-lint: clean")
    return 0
