"""Record `cli_golden.json`: exit code, stdout and stderr of
`coxangle.cli.run` on a fixed list of command lines, which
`tests/test_cli.py::TestGoldenCorpus` replays byte for byte.

Run it from this directory, with the `coxangle` whose answers are to be
recorded on the path:

    PYTHONPATH=../../src python make_cli_golden.py

Spec paths in the command lines are relative to this directory. argparse
wraps its usage text at `COLUMNS`, so the recording and the replay both set
it to 80 and unset `COXANGLE_ORBIT_BUDGET`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

from coxangle.cli import run

COLUMNS = "80"
FORMATS = ("table", "json", "csv")
BUILTINS = {"B3": 3, "D4": 4, "E6": 6, "E7": 7}
SPEC_COMMANDS = (["validate"], ["angle", "--node", "1"], ["min-angle"], ["fold"],
                 ["opposition"], ["orbit", "--node", "1"], ["enumerate"])
ERRORS = (
    ["min-angle", "specs/no-such.spec"],
    ["angle", "--node", "1"],
    ["angle", "--diagram", "Q7", "--node", "1"],
    ["angle", "--diagram", "A0", "--node", "1"],
    ["angle", "--diagram", "B3", "--node", "9"],
    ["angle", "--diagram", "H3", "--node", "1"],
    ["min-angle", "--diagram", "H3"],
    ["fold", "--diagram", "H3"],
    ["opposition", "--diagram", "H3"],
    ["orbit", "--diagram", "H3", "--node", "1"],
    ["enumerate", "--diagram", "H3"],
    ["orbit", "--diagram", "E7", "--node", "4", "--orbit-budget", "10"],
    ["angle", "--diagram", "B3"],
    ["orbit", "--diagram", "B3"],
    ["enumerate", "--diagram", "B3", "--rel-rank", "99"],
    ["catalog", "--diagram", "E6"],
    ["catalog", "specs/H3.spec"],
    ["angle", "--diagram", "B3", "--bogus"],
    ["bogus"],
)


def command_lines():
    for name, rank in BUILTINS.items():
        for command, *tail in (*SPEC_COMMANDS, ["angle", "--node", str(rank)],
                               ["orbit", "--node", str(rank)],
                               ["enumerate", "--rel-rank", "1"]):
            for fmt in FORMATS:
                yield [command, "--diagram", name, *tail, "--format", fmt]
    for spec in sorted(os.listdir("specs")):
        for command, *tail in SPEC_COMMANDS:
            for fmt in FORMATS:
                yield [command, f"specs/{spec}", *tail, "--format", fmt]
    for fmt in FORMATS:
        yield ["catalog", "--format", fmt]
    for argv in ERRORS:
        for fmt in ("table", "json"):
            yield [*argv, "--format", fmt]


def record(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    os.environ["COLUMNS"] = COLUMNS
    os.environ.pop("COXANGLE_ORBIT_BUDGET", None)
    cases = [record(argv) for argv in command_lines()]
    with open("cli_golden.json", "w", encoding="utf-8") as fh:
        json.dump({"columns": COLUMNS, "cases": cases}, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
    print(f"{len(cases)} command lines")


if __name__ == "__main__":
    main()
