"""CI installs every third-party module the package and its tests import."""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Installed by the CI matrix itself, at its oldest supported pin or latest.
MATRIX_PACKAGES = {"numpy"}


def imported_modules(*roots: str) -> set[str]:
    """Top-level names of every absolute import under ``roots``."""
    names = set()
    for root in roots:
        for path in (ROOT / root).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    names.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    names.add(node.module.split(".")[0])
    return names


def normalized(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def ci_requirements() -> set[str]:
    """Distribution names listed in ``requirements-ci.txt``."""
    names = set()
    for line in (ROOT / "requirements-ci.txt").read_text(encoding="utf-8").splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            names.add(normalized(re.split(r"[\s\[<>=!~;@]", line, maxsplit=1)[0]))
    return names


def test_ci_requirements_list_every_third_party_import():
    first_party = {path.stem for path in (ROOT / "src").iterdir()}
    first_party |= {path.stem for path in (ROOT / "tests").rglob("*.py")}
    third_party = (
        imported_modules("src", "tests")
        - set(sys.stdlib_module_names)
        - first_party
        - MATRIX_PACKAGES
    )
    assert third_party, "no third-party imports found: the scan is broken"
    missing = sorted(
        name for name in third_party if normalized(name) not in ci_requirements()
    )
    assert not missing, f"requirements-ci.txt does not list {missing}"
