"""``python -m repro.analysis`` — static-analysis entry point.

Subcommands:

``lint [paths...]``
    Run repro-lint (RL001-RL005) over the given files/directories
    (default ``src tests``); exit 1 on any violation.
``rules``
    List the rule ids and their one-line summaries.
"""

import argparse

from repro.analysis.lint import RULES
from repro.analysis.lint import main as lint_main


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Static analysis for the repo's determinism contracts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    lint_parser = sub.add_parser(
        "lint", help="check determinism contracts (RL001-RL005)"
    )
    lint_parser.add_argument("paths", nargs="*", default=["src", "tests"])
    lint_parser.add_argument("--no-project-rules", action="store_true")
    sub.add_parser("rules", help="list rule ids and summaries")

    args, _ = parser.parse_known_args(argv)
    if args.command == "rules":
        for rule_id in sorted(RULES):
            print(f"{rule_id}  {RULES[rule_id]}")
        return 0
    lint_argv = list(args.paths)
    if args.no_project_rules:
        lint_argv.append("--no-project-rules")
    return lint_main(lint_argv)


if __name__ == "__main__":
    raise SystemExit(main())
