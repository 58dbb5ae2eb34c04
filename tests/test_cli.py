from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import coxangle.cli as cli
import coxangle.diagram as diag
import coxangle.errors as errors_mod
import coxangle.tits as tits_mod
import coxangle.weyl as weyl_mod
import helpers
from coxangle.angle import Angle
from coxangle.cli import EXIT_CATALOG, EXIT_DOMAIN, EXIT_OK, EXIT_PARSE, run
from coxangle.errors import NotAnAutomorphism
from coxangle.weyl import DEFAULT_ORBIT_BUDGET, ORBIT_BUDGET_ENV, orbit_budget
from test_acceptance import ANGLE_SCHEMA, ERROR_SCHEMA, MIN_ANGLE_SCHEMA, jsonschema
from test_diagram import sums_with_gamma

A7_SPEC = "diagram A7\nanisotropic 1 3 5 7\n"
A5_FOLDED_SPEC = "diagram A5\ngamma (1 5)(2 4)\nanisotropic 1 2 4 5\n"
BAD_OPPOSITION_SPEC = "diagram A3\nanisotropic 2 3\n"
SYNTAX_ERROR_SPEC = "diagram A3\nfrobnicate 1\n"
NOT_UTF8_SPEC = b"\xff\xfe\x00bad"
DATA_DIR = Path(__file__).resolve().parent / "data"
B3_NODE3_JSON = '{"kind":"exact_cos","cos":"1/3","radians_approx":1.23095941734}\n'


@pytest.fixture
def invoke(capsys):
    def _invoke(*args: str):
        code = run(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _invoke


def write(tmp_path, text, name="input.spec"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestAngle:
    def test_b3_json_exact(self, invoke):
        code, out, err = invoke("angle", "--diagram", "B3", "--node", "3",
                                "--format", "json")
        assert code == EXIT_OK
        assert out == B3_NODE3_JSON
        assert err == ""

    def test_table(self, invoke):
        code, out, _ = invoke("angle", "--diagram", "A3", "--node", "2")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split() == ["angle", "cos", "radians_approx"]
        assert lines[2].split() == ["pi/2", "0", "1.57079632679"]

    def test_from_spec_file(self, invoke, tmp_path):
        path = write(tmp_path, "diagram custom\nnodes 1 2\nedge 1 2 5\n")
        code, out, _ = invoke("angle", path, "--node", "1", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc == {"kind": "rational_pi", "pi_fraction": "2/5",
                       "radians_approx": pytest.approx(2 * math.pi / 5)}

    def test_large_rank_closed_form(self, invoke):
        code, out, _ = invoke("angle", "--diagram", "A400", "--node", "200")
        assert code == EXIT_OK
        assert out.splitlines()[2].split()[0] == "arccos(39799/40200)"

    def test_missing_node_flag(self, invoke):
        code, _, err = invoke("angle", "--diagram", "A3")
        assert code == EXIT_DOMAIN
        assert "--node" in err

    def test_noncrystallographic_domain_error(self, invoke):
        code, _, err = invoke("angle", "--diagram", "H3", "--node", "1")
        assert code == EXIT_DOMAIN

    def test_json_error_envelope(self, invoke):
        code, out, err = invoke("angle", "--diagram", "H3", "--node", "1",
                                "--format", "json")
        assert code == EXIT_DOMAIN
        assert out == ""
        doc = json.loads(err)
        assert doc["error"]["code"] == "NonCrystallographic"
        assert "message" in doc["error"]


class TestMinAngle:
    def test_a7_table(self, invoke, tmp_path):
        path = write(tmp_path, A7_SPEC)
        code, out, _ = invoke("min-angle", path)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split() == ["angle", "cos", "radians_approx",
                                    "verdict", "achieved_by"]
        assert lines[2].split() == ["pi/2", "0", "1.57079632679", "GT_PI_3",
                                    "{2}", "{4}", "{6}"]

    def test_a5_folded_json(self, invoke, tmp_path):
        path = write(tmp_path, A5_FOLDED_SPEC)
        code, out, _ = invoke("min-angle", path, "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["angle"]["kind"] == "exact_cos"
        assert doc["angle"]["cos"] == "1/3"
        assert doc["verdict"] == "GT_PI_3"
        assert doc["achieved_by"] == [[3]]

    def test_zero_relative_rank(self, invoke, tmp_path):
        path = write(tmp_path, "diagram B3\nanisotropic 1 2 3\n")
        code, _, err = invoke("min-angle", path)
        assert code == EXIT_DOMAIN
        assert "undefined" in err

    def test_quasi_split_builtin(self, invoke):
        code, out, _ = invoke("min-angle", "--diagram", "E8")
        assert code == EXIT_OK
        assert out.splitlines()[2].split()[0] == "pi"


class TestValidate:
    def test_ok(self, invoke, tmp_path):
        path = write(tmp_path, A5_FOLDED_SPEC)
        code, out, _ = invoke("validate", path)
        assert code == EXIT_OK
        assert out.strip() == "ok"

    def test_violations_exit_domain(self, invoke, tmp_path):
        path = write(tmp_path, BAD_OPPOSITION_SPEC)
        code, out, _ = invoke("validate", path)
        assert code == EXIT_DOMAIN
        assert "opposition-violated" in out

    def test_violations_json(self, invoke, tmp_path):
        path = write(tmp_path, BAD_OPPOSITION_SPEC)
        code, out, _ = invoke("validate", path, "--format", "json")
        assert code == EXIT_DOMAIN
        doc = json.loads(out)
        assert doc["ok"] is False
        assert doc["violations"][0]["clause"] == "opposition-violated"
        assert doc["violations"][0]["orbit"] == [1]

    def test_valid_json(self, invoke, tmp_path):
        path = write(tmp_path, A7_SPEC)
        code, out, _ = invoke("validate", path, "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["ok"] is True


class TestFoldCommand:
    def test_table(self, invoke, tmp_path):
        path = write(tmp_path, A5_FOLDED_SPEC)
        code, out, _ = invoke("fold", path)
        assert code == EXIT_OK
        row = out.splitlines()[2].split()
        assert row[0] == "B3"
        assert "4->2" in out and "5->1" in out

    def test_json(self, invoke, tmp_path):
        path = write(tmp_path, A5_FOLDED_SPEC)
        code, out, _ = invoke("fold", path, "--format", "json")
        doc = json.loads(out)
        assert doc["folded"]["type"] == "B3"
        assert doc["folded"]["edges"] == [[1, 2, 3], [2, 3, 4]]
        assert doc["node_map"] == {"1": 1, "2": 2, "3": 3, "4": 2, "5": 1}
        assert doc["anisotropic"] == [1, 2]

    def test_trivial(self, invoke):
        code, out, _ = invoke("fold", "--diagram", "B4")
        assert code == EXIT_OK
        assert out.splitlines()[2].split()[0] == "B4"


FOLD_ERRORS = [
    # (spec, message), one per validation clause
    ("diagram A5\ngamma (1 5)(2 4)\nanisotropic 2 3 4 5\n",
     "orbit {1, 5} meets the anisotropic set without being contained in it"),
    (BAD_OPPOSITION_SPEC, "opposition maps orbit {1} to {3} in the restriction to [1, 2, 3]"),
    ("diagram B3\ngamma (1 3)\n", "(1 3) is not an automorphism of the diagram"),
]


class TestFoldCommandErrors:
    @pytest.mark.parametrize("text,message", FOLD_ERRORS)
    def test_table(self, invoke, counted, tmp_path, text, message):
        code, out, err = invoke("fold", write(tmp_path, text))
        assert (code, out, err) == (EXIT_DOMAIN, "", f"error: {message}\n")
        assert counted["validate"] == 1

    @pytest.mark.parametrize("text,message", FOLD_ERRORS)
    def test_json(self, invoke, counted, tmp_path, text, message):
        code, out, err = invoke("fold", write(tmp_path, text), "--format", "json")
        doc = {"error": {"code": "InvalidTitsDiagram", "message": message}}
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == json.dumps(doc, separators=(",", ":")) + "\n"
        assert counted["validate"] == 1


class TestOppositionCommand:
    def test_e6(self, invoke):
        code, out, _ = invoke("opposition", "--diagram", "E6")
        assert code == EXIT_OK
        assert out.splitlines()[2].startswith("(1 6)(3 5)")

    def test_json(self, invoke):
        code, out, _ = invoke("opposition", "--diagram", "A4", "--format", "json")
        doc = json.loads(out)
        assert doc["mapping"] == {"1": 4, "2": 3, "3": 2, "4": 1}


class TestOrbitCommand:
    def test_e7_node7(self, invoke):
        code, out, _ = invoke("orbit", "--diagram", "E7", "--node", "7")
        assert code == EXIT_OK
        assert out.splitlines()[2].split() == ["7", "E7", "56", "2903040"]

    def test_budget_flag_causes_domain_error(self, invoke):
        code, _, err = invoke("orbit", "--diagram", "E6", "--node", "2",
                              "--orbit-budget", "5")
        assert code == EXIT_DOMAIN

    def test_budget_flag_boundary(self, invoke):
        # the E6 node 2 orbit has 72 weights
        args = ("orbit", "--diagram", "E6", "--node", "2", "--orbit-budget")
        code, out, _ = invoke(*args, "72")
        assert code == EXIT_OK
        assert out.splitlines()[2].split() == ["2", "E6", "72", "51840"]
        code, out, err = invoke(*args, "71")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert err == "error: orbit exceeded the safety budget of 71 vectors\n"

    def test_every_e8_node_gives_index_of_parabolic(self, invoke):
        from coxangle.diagram import builtin, restrict
        from coxangle.weyl import group_order

        d = builtin("E8")
        for i in d.nodes:
            code, out, _ = invoke("orbit", "--diagram", "E8", "--node", str(i),
                                  "--format", "json")
            assert code == EXIT_OK
            stab = group_order(restrict(d, [j for j in d.nodes if j != i]))
            assert json.loads(out)["orbit_size"] == group_order(d) // stab, i

    def test_budget_restored_after_run(self, invoke):
        invoke("orbit", "--diagram", "E6", "--node", "2", "--orbit-budget", "5")
        assert orbit_budget() == DEFAULT_ORBIT_BUDGET

    def test_budget_flag_and_env_json_error(self, invoke, monkeypatch):
        args = ("orbit", "--diagram", "E6", "--node", "2", "--format", "json")
        code, out, err = invoke(*args, "--orbit-budget", "5")
        assert (code, out) == (EXIT_DOMAIN, "")
        assert json.loads(err)["error"]["code"] == "OrbitBudgetExceeded"
        monkeypatch.setenv(ORBIT_BUDGET_ENV, "5")
        code, out, err = invoke(*args)
        assert (code, out) == (EXIT_DOMAIN, "")
        assert json.loads(err)["error"]["code"] == "OrbitBudgetExceeded"


# every crystallographic builtin of rank <= 7 (C_n is the B_n diagram)
ORBIT_CASES = (
    [(f"A{n}", i) for n in range(1, 8) for i in range(1, n + 1)]
    + [(f"B{n}", i) for n in range(2, 8) for i in range(1, n + 1)]
    + [(f"D{n}", i) for n in range(4, 8) for i in range(1, n + 1)]
    + [(name, i) for name, n in (("E6", 6), ("E7", 7), ("F4", 4), ("G2", 2))
       for i in range(1, n + 1)]
    + [("E8", 1), ("E8", 8)]
)


class TestOrbitRefusedBeforeWalk:
    """orbit_size answers from the index |W|/|W_J| and refuses one above
    the budget; the walk alone (helpers.walk_only_orbit_size) gives the
    same exit code, stdout and stderr at budgets n - 1 and n."""

    @pytest.mark.parametrize("name,node", ORBIT_CASES)
    def test_same_as_walk_only_at_budget_boundary(self, invoke, monkeypatch, name, node):
        from coxangle.diagram import builtin

        n = helpers.walk_only_orbit_size(builtin(name), node)
        for budget in (n - 1, n):
            args = ("orbit", "--diagram", name, "--node", str(node),
                    "--orbit-budget", str(budget))
            refused = invoke(*args)
            with monkeypatch.context() as m:
                m.setattr(weyl_mod, "orbit_size", helpers.walk_only_orbit_size)
                walked = invoke(*args)
            assert refused == walked
            assert refused[0] == (EXIT_OK if budget == n else EXIT_DOMAIN)

    def test_a30_refused_at_once(self, invoke):
        # C(31, 15), about 3e8 weights: the walk would run for about a minute
        start = time.perf_counter()
        code, out, err = invoke("orbit", "--diagram", "A30", "--node", "15",
                                "--format", "json")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (EXIT_DOMAIN, "")
        assert json.loads(err) == {"error": {
            "code": "OrbitBudgetExceeded",
            "message": f"orbit exceeded the safety budget of {DEFAULT_ORBIT_BUDGET} vectors"}}

    def test_noncrystallographic_comes_first(self, invoke):
        code, _, err = invoke("orbit", "--diagram", "H3", "--node", "1",
                              "--orbit-budget", "1", "--format", "json")
        assert code == EXIT_DOMAIN
        assert json.loads(err)["error"]["code"] == "NonCrystallographic"

    def test_unknown_node_comes_first(self, invoke):
        code, _, err = invoke("orbit", "--diagram", "H3", "--node", "9",
                              "--orbit-budget", "1", "--format", "json")
        assert code == EXIT_DOMAIN
        assert json.loads(err)["error"] == {"code": "UnknownNode",
                                            "message": "node 9 not in diagram"}


class TestEnumerateCommand:
    def test_csv_header(self, invoke):
        code, out, _ = invoke("enumerate", "--diagram", "A3",
                              "--rel-rank", "1", "--format", "csv")
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert lines[0] == "anisotropic,rel_rank,angle,cos,radians_approx,verdict"
        assert len(lines) == 2
        assert lines[1].startswith("1 3,1,pi/2,0,")

    def test_json_has_caveat_note(self, invoke):
        code, out, _ = invoke("enumerate", "--diagram", "B2", "--format", "json")
        doc = json.loads(out)
        assert doc["note"] == ("combinatorial validity only; "
                               "arithmetic existence not checked")
        kernels = [e["anisotropic"] for e in doc["entries"]]
        assert [] in kernels and [1] in kernels and [2] in kernels
        assert [1, 2] not in kernels

    def test_every_angle_json_has_exact_and_approx(self, invoke):
        code, out, _ = invoke("enumerate", "--diagram", "A3", "--format", "json")
        doc = json.loads(out)
        for e in doc["entries"]:
            angle = e["angle"]
            assert "radians_approx" in angle
            assert ("cos" in angle) != ("pi_fraction" in angle)

    @pytest.mark.parametrize("rel_rank", ["0", "-1", "4"])
    @pytest.mark.parametrize("fmt", ["table", "json", "csv"])
    def test_unreachable_rel_rank_is_empty(self, invoke, rel_rank, fmt):
        # A3 has three orbits, so relative rank 4 cannot occur
        code, out, err = invoke("enumerate", "--diagram", "A3",
                                f"--rel-rank={rel_rank}", "--format", fmt)
        assert (code, err) == (EXIT_OK, "")
        if fmt == "json":
            assert json.loads(out)["entries"] == []
        else:
            assert len(out.strip().splitlines()) == (2 if fmt == "table" else 1)

    @pytest.mark.parametrize("name,kernels", [
        ("A16", [[]]),
        ("A24", [[], [i for i in range(1, 25) if i % 5]]),
    ])
    def test_large_type_a(self, invoke, name, kernels):
        code, out, _ = invoke("enumerate", "--diagram", name, "--format", "json")
        assert code == EXIT_OK
        assert [e["anisotropic"] for e in json.loads(out)["entries"]] == kernels


class TestCatalogCommand:
    def test_all_pass_exit_zero(self, invoke):
        code, out, _ = invoke("catalog")
        assert code == EXIT_OK
        rows = [ln for ln in out.splitlines()[2:] if ln.strip()]
        assert len(rows) >= 15
        assert all("PASS" in r for r in rows)
        assert "FAIL" not in out

    def test_json(self, invoke):
        code, out, _ = invoke("catalog", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["ok"] is True
        assert all(e["ok"] for e in doc["entries"])
        assert all("expected" in e and "computed" in e for e in doc["entries"])

    def test_mismatch_exits_three(self, invoke, monkeypatch):
        from coxangle.angle import PI
        real = tits_mod.reference_catalog()
        broken = [tits_mod.CatalogEntry(real[0].name, real[0].tits, PI)] + real[1:]
        if real[0].expected == PI:  # ensure the tamper actually breaks it
            from coxangle.angle import PI_OVER_2
            broken[0] = tits_mod.CatalogEntry(real[0].name, real[0].tits, PI_OVER_2)
        monkeypatch.setattr(tits_mod, "reference_catalog", lambda: broken)
        code, out, _ = invoke("catalog")
        assert code == EXIT_CATALOG
        assert "FAIL" in out


class TestErrorPaths:
    def test_parse_error_exit_two(self, invoke, tmp_path):
        path = write(tmp_path, SYNTAX_ERROR_SPEC)
        code, _, err = invoke("min-angle", path)
        assert code == EXIT_PARSE
        assert "line 2" in err

    def test_parse_error_json_envelope(self, invoke, tmp_path):
        path = write(tmp_path, SYNTAX_ERROR_SPEC)
        code, out, err = invoke("min-angle", path, "--format", "json")
        assert code == EXIT_PARSE
        doc = json.loads(err)
        assert doc["error"]["code"] == "ParseError"
        assert "line 2" in doc["error"]["message"]

    def test_unknown_subcommand(self, invoke):
        code, _, err = invoke("frobnicate")
        assert code == EXIT_PARSE

    def test_missing_file(self, invoke, tmp_path):
        code, _, err = invoke("validate", str(tmp_path / "nope.spec"))
        assert code == EXIT_DOMAIN

    def test_unknown_builtin(self, invoke):
        code, _, err = invoke("angle", "--diagram", "Z9", "--node", "1")
        assert code == EXIT_DOMAIN

    def test_rank_out_of_range(self, invoke):
        code, _, err = invoke("angle", "--diagram", "E9", "--node", "1")
        assert code == EXIT_DOMAIN

    def test_invalid_tits_via_min_angle(self, invoke, tmp_path):
        path = write(tmp_path, BAD_OPPOSITION_SPEC)
        code, _, err = invoke("min-angle", path)
        assert code == EXIT_DOMAIN

    def test_no_diagram_and_no_file(self, invoke):
        code, _, err = invoke("min-angle")
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("command", ["validate", "min-angle", "fold", "enumerate"])
    def test_non_utf8_spec_is_a_parse_error(self, invoke, tmp_path, command):
        path = tmp_path / "input.spec"
        path.write_bytes(NOT_UTF8_SPEC)
        code, out, err = invoke(command, str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert err == (f"error: cannot read {path}: "
                       "not UTF-8 text (invalid start byte at byte 0)\n")

    @pytest.mark.parametrize("command", ["validate", "min-angle"])
    def test_non_utf8_spec_json_envelope(self, invoke, tmp_path, command):
        path = tmp_path / "input.spec"
        path.write_bytes(NOT_UTF8_SPEC)
        code, out, err = invoke(command, str(path), "--format", "json")
        assert code == EXIT_PARSE
        assert out == ""
        assert json.loads(err) == {"error": {
            "code": "ParseError",
            "message": f"cannot read {path}: not UTF-8 text (invalid start byte at byte 0)",
        }}


GOLDEN = json.loads((DATA_DIR / "cli_golden.json").read_text(encoding="utf-8"))


class TestGoldenCorpus:
    """Exit code, stdout and stderr of each command line recorded in
    tests/data/cli_golden.json by tests/data/make_cli_golden.py: every
    command in every format on builtins and specs, and the error paths."""

    @pytest.mark.parametrize("case", GOLDEN["cases"], ids=lambda c: " ".join(c["argv"]))
    def test_matches_recording(self, invoke, monkeypatch, case):
        monkeypatch.chdir(DATA_DIR)
        monkeypatch.setenv("COLUMNS", GOLDEN["columns"])
        monkeypatch.delenv(ORBIT_BUDGET_ENV, raising=False)
        assert invoke(*case["argv"]) == (case["code"], case["stdout"], case["stderr"])


class TestClosedPipe:
    def test_reader_closing_early_gets_no_traceback(self):
        # 4,095 rows, far more than a pipe buffer holds, so the write meets
        # the closed pipe
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "coxangle", "enumerate", "--diagram", "+".join(["A1"] * 12)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=str(src)),
        )
        assert proc.stdout.read(200).startswith(b"anisotropic")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""


# after each command: no options, help, then the parse errors argparse can
# raise there (unknown option, bad int, bad choice, missing value, extra
# positional)
PARSER_TAILS = [[], ["-h"], ["--bogus"], ["--node", "x"], ["--format", "xml"],
                ["--format"], ["a", "b"]]
TOP_LEVEL_ARGVS = [[], ["-h"], ["bogus"], ["--format", "json"], ["--", "angle"]]
DIFFERENTIAL_ARGVS = [
    *([command, *tail] for command in cli._COMMANDS for tail in PARSER_TAILS),
    *TOP_LEVEL_ARGVS,
]


class TestNarrowedParser:
    """`run` builds only the named command's subparser; every command line
    must behave exactly as under the full parser."""

    @pytest.mark.parametrize("columns", ["80", "200"])
    @pytest.mark.parametrize("argv", DIFFERENTIAL_ARGVS, ids=" ".join)
    def test_matches_full_parser(self, invoke, monkeypatch, argv, columns):
        monkeypatch.setenv("COLUMNS", columns)
        narrowed = invoke(*argv)
        full_parser = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
        assert narrowed == invoke(*argv)

    @pytest.mark.parametrize("argv, built", [
        (["angle", "--diagram", "B3", "--node", "3"], "angle"),
        (["catalog", "-h"], "catalog"),
        (["--format", "json", "angle"], None),
        (["-h"], None),
        (["bogus"], None),
        ([], None),
    ], ids=["angle", "catalog-help", "option-first", "help", "unknown-command", "empty"])
    def test_builds_only_the_named_command(self, invoke, monkeypatch, argv, built):
        calls = []
        build = cli.build_parser

        def recording(command=None):
            calls.append(command)
            return build(command)

        monkeypatch.setattr(cli, "build_parser", recording)
        invoke(*argv)
        assert calls == [built]

    @pytest.mark.parametrize("argv, message", [
        ([], "error: the following arguments are required: command\n"),
        (["bogus"], "error: argument command: invalid choice: 'bogus'"),
    ], ids=["no-command", "unknown-command"])
    def test_full_parser_names_the_command_in_errors(self, invoke, argv, message):
        code, out, err = invoke(*argv)
        assert (code, out) == (EXIT_PARSE, "")
        assert message in err

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_narrowed_parser_knows_only_its_command(self, capsys, command):
        parser = cli.build_parser(command)
        assert parser.parse_args([command]).command == command
        for other in cli._COMMANDS.keys() - {command}:
            with pytest.raises(SystemExit):
                parser.parse_args([other])
            assert "invalid choice" in capsys.readouterr().err

    def test_reads_sys_argv_when_no_argv_given(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["coxangle", "angle", "--diagram", "B3",
                                          "--node", "3", "--format", "json"])
        assert run() == EXIT_OK
        assert capsys.readouterr() == (B3_NODE3_JSON, "")


class TestRunLeaksNoState:
    """Two requests in one process answer as each does alone."""

    ENUMERATE = ("enumerate", "--diagram", "A3", "--rel-rank", "1")
    ANGLE = ("angle", "--diagram", "B3", "--node", "3", "--format", "json")

    def test_consecutive_runs_answer_as_alone(self, invoke):
        angle_alone = invoke(*self.ANGLE)
        enumerate_first = invoke(*self.ENUMERATE)
        angle_after = invoke(*self.ANGLE)
        enumerate_after = invoke(*self.ENUMERATE)
        assert angle_alone == angle_after == (EXIT_OK, B3_NODE3_JSON, "")
        assert enumerate_first == enumerate_after
        code, out, err = enumerate_after
        assert (code, err) == (EXIT_OK, "")
        assert [line.split() for line in out.splitlines()[2:]] == [
            ["1", "3", "1", "pi/2", "0", "1.57079632679", "GT_PI_3"]
        ]


@pytest.fixture
def counted(monkeypatch):
    """Count calls of tits.validate, and the folds with a nontrivial Gamma:
    calls of fold._fold, which fold and fold_tits look up in coxangle.fold
    and enumerate_indices in coxangle.tits."""
    calls = {"validate": 0, "fold": 0}
    # the package root rebinds the name coxangle.fold to the function
    fold_mod = sys.modules["coxangle.fold"]
    validate, fold = tits_mod.validate, fold_mod._fold

    def counting_validate(*args, **kwargs):
        calls["validate"] += 1
        return validate(*args, **kwargs)

    def counting_fold(d, g):
        calls["fold"] += not g.is_trivial
        return fold(d, g)

    monkeypatch.setattr(tits_mod, "validate", counting_validate)
    for module in (fold_mod, tits_mod):
        monkeypatch.setattr(module, "_fold", counting_fold)
    return calls


# commands that read only the diagram, whose parse validates a Tits spec
DIAGRAM_ONLY_ARGVS = [["angle", "--node", "2"], ["opposition"], ["orbit", "--node", "2"]]


class TestWorkOncePerRequest:
    def test_enumerate_builtin_never_validates(self, invoke, counted):
        code, out, _ = invoke("enumerate", "--diagram", "A3", "--format", "json")
        assert code == EXIT_OK and len(json.loads(out)["entries"]) == 2
        # the search checks opposition clauses itself; trivial gamma never folded
        assert counted == {"validate": 0, "fold": 0}

    def test_enumerate_spec_validates_once_and_folds_once(
        self, invoke, counted, tmp_path
    ):
        path = write(tmp_path, "diagram D5\ngamma (4 5)\n")
        code, out, _ = invoke("enumerate", path, "--format", "json")
        assert code == EXIT_OK and len(json.loads(out)["entries"]) > 1
        # only the spec's own validation
        assert counted == {"validate": 1, "fold": 1}

    def test_enumerate_with_no_valid_kernel_never_folds(self, invoke, counted, tmp_path):
        # two swapped I2(5): the rank-one kernels {1, 3} and {2, 4} both break
        # the opposition clause, so nothing is folded, and the fold that would
        # raise NonCrystallographic is never attempted
        path = write(tmp_path, "diagram I2(5)+I2(5)\ngamma (1 3)(2 4)\n")
        code, out, _ = invoke("enumerate", path, "--rel-rank", "1", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out)["entries"] == []
        assert counted["fold"] == 0
        code, _, err = invoke("enumerate", path, "--format", "json")
        assert code == EXIT_DOMAIN
        assert json.loads(err)["error"]["code"] == "NonCrystallographic"

    @pytest.mark.parametrize(
        "text", [A7_SPEC, A5_FOLDED_SPEC, "diagram E6\n", "diagram D4\ngamma (1 3 4)\n"]
    )
    def test_min_angle_spec_validates_once(self, invoke, counted, tmp_path, text):
        code, _, _ = invoke("min-angle", write(tmp_path, text), "--format", "json")
        assert code == EXIT_OK
        assert counted["validate"] == 1
        assert counted["fold"] == (1 if "gamma" in text else 0)

    def test_min_angle_builtin_validates_once(self, invoke, counted):
        code, _, _ = invoke("min-angle", "--diagram", "E7", "--format", "json")
        assert code == EXIT_OK
        assert counted == {"validate": 1, "fold": 0}

    def test_min_angle_invalid_spec_still_rejected(self, invoke, counted, tmp_path):
        code, _, err = invoke("min-angle", write(tmp_path, BAD_OPPOSITION_SPEC),
                              "--format", "json")
        assert code == EXIT_DOMAIN
        assert json.loads(err)["error"]["code"] == "InvalidTitsDiagram"
        assert counted["validate"] == 1

    @pytest.mark.parametrize("argv", DIAGRAM_ONLY_ARGVS, ids=" ".join)
    @pytest.mark.parametrize("text", [A7_SPEC, A5_FOLDED_SPEC, BAD_OPPOSITION_SPEC])
    def test_parse_validates_tits_spec_once(self, invoke, counted, tmp_path, argv, text):
        code, _, _ = invoke(argv[0], write(tmp_path, text), *argv[1:])
        assert code == (EXIT_DOMAIN if text == BAD_OPPOSITION_SPEC else EXIT_OK)
        assert counted["validate"] == 1

    @pytest.mark.parametrize("argv", DIAGRAM_ONLY_ARGVS, ids=" ".join)
    def test_builtin_never_validates(self, invoke, counted, argv):
        code, _, _ = invoke(argv[0], "--diagram", "E6", *argv[1:])
        assert code == EXIT_OK
        assert counted["validate"] == 0

    @pytest.mark.parametrize("text", [A7_SPEC, BAD_OPPOSITION_SPEC])
    def test_validate_command_validates_once(self, invoke, counted, tmp_path, text):
        code, _, _ = invoke("validate", write(tmp_path, text), "--format", "json")
        assert code == (EXIT_DOMAIN if text == BAD_OPPOSITION_SPEC else EXIT_OK)
        assert counted["validate"] == 1

    def test_catalog_validates_once_per_entry(self, invoke, counted):
        code, out, _ = invoke("catalog", "--format", "json")
        assert code == EXIT_OK
        assert counted["validate"] == len(json.loads(out)["entries"]) == 17


E6_FLIP_SPEC = "diagram E6\ngamma (1 6)(3 5)\nanisotropic 2 4\n"
BENCH_SPECS = Path(__file__).resolve().parents[1] / "bench" / "specs"
ENUM_D5_FLIP = str(BENCH_SPECS / "enum-D5-flip.spec")
MATRIX_FUNCTIONS = (("geometry", "realize"), ("weyl", "longest_element"),
                   ("weyl", "element_order"))


def count_calls(monkeypatch, functions) -> dict[str, int]:
    """Count calls of each (module, name) in functions wherever a coxangle
    module binds it; a dotted name, Class.method, is counted on its class."""
    calls = {name: 0 for _, name in functions}
    for module, name in functions:
        *path, attr = name.split(".")
        owner = functools.reduce(getattr, path, sys.modules[f"coxangle.{module}"])
        fn = getattr(owner, attr)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        if path:
            monkeypatch.setattr(owner, attr, counting)
            continue
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "coxangle" and getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, counting)
    return calls


@pytest.fixture
def matrix_calls(monkeypatch):
    """Calls of realize, longest_element and element_order."""
    return count_calls(monkeypatch, MATRIX_FUNCTIONS)


@pytest.fixture
def restrict_calls(monkeypatch):
    """Calls of diagram.restrict."""
    return count_calls(monkeypatch, (("diagram", "restrict"),))


class TestRequestPathBuildsNoMatrix:
    @pytest.mark.parametrize("command", ["min-angle", "fold"])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_e6_flip_spec(self, invoke, matrix_calls, tmp_path, command, fmt):
        code, _, _ = invoke(command, write(tmp_path, E6_FLIP_SPEC), "--format", fmt)
        assert code == EXIT_OK
        assert matrix_calls == {"realize": 0, "longest_element": 0, "element_order": 0}

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_orbit_e7(self, invoke, matrix_calls, fmt):
        code, _, _ = invoke("orbit", "--diagram", "E7", "--node", "4", "--format", fmt)
        assert code == EXIT_OK
        assert matrix_calls == {"realize": 0, "longest_element": 0, "element_order": 0}

    def test_enumerate_d5_flip(self, invoke, matrix_calls):
        code, out, _ = invoke("enumerate", ENUM_D5_FLIP, "--format", "json")
        assert code == EXIT_OK and len(json.loads(out)["entries"]) > 1
        assert matrix_calls == {"realize": 0, "longest_element": 0, "element_order": 0}


ENUMERATIVE_FUNCTIONS = (("weyl", "_walk"), ("weyl", "weyl_orbit"),
                         ("diagram", "AutGroup.elements"))


class TestRequestPathEnumeratesNothing:
    """Every request is answered from type tables and closed forms: no
    command line of the golden corpus walks an orbit or lists a group."""

    def test_golden_corpus(self, invoke, monkeypatch):
        monkeypatch.chdir(DATA_DIR)
        monkeypatch.delenv(ORBIT_BUDGET_ENV, raising=False)
        calls = count_calls(monkeypatch, ENUMERATIVE_FUNCTIONS)
        for case in GOLDEN["cases"]:
            assert invoke(*case["argv"])[0] == case["code"]
        assert calls == dict.fromkeys(calls, 0)

    def test_counter_sees_each_function(self, monkeypatch):
        from coxangle.geometry import realize

        calls = count_calls(monkeypatch, ENUMERATIVE_FUNCTIONS)
        d = diag.builtin("A3")
        assert len(helpers.diagram_automorphisms(d).elements()) == 2
        r = realize(d)
        assert len(weyl_mod.weyl_orbit(r, r.fundamental_weights[1])) == 4
        assert calls == dict.fromkeys(calls, 1)


class TestRequestPathRestrictsNothing:
    """Rank-one pieces, candidate components, orbit pairs and the component
    of an orbit are classified in place, with no restricted copy."""

    @pytest.mark.parametrize(
        "argv", [["validate"], ["min-angle"], ["fold"], ["enumerate"], ["orbit", "--node", "2"]],
        ids=" ".join)
    @pytest.mark.parametrize("spec", ["E6-flip", "enum-D5-flip"])
    def test_no_restrict(self, invoke, restrict_calls, tmp_path, argv, spec):
        path = write(tmp_path, E6_FLIP_SPEC) if spec == "E6-flip" else ENUM_D5_FLIP
        code, _, _ = invoke(argv[0], path, *argv[1:], "--format", "json")
        assert code == EXIT_OK
        assert restrict_calls == {"restrict": 0}

    def test_counter_sees_component_of(self, restrict_calls):
        from coxangle.diagram import builtin, component_of

        assert component_of(builtin("E7"), 7).rank == 7
        assert restrict_calls == {"restrict": 1}


@pytest.fixture
def derivations(monkeypatch):
    """Count the derived facts a request computes: component
    classifications by (diagram, node set), automorphism checks of one
    generator, and orbit partitions of a group."""
    classified: Counter = Counter()
    calls = {"classified": classified, "automorphism": 0, "partition": 0}
    classify_component, is_automorphism = diag._classify_component, diag.is_automorphism
    partition = diag.AutGroup.__dict__["_orbits"].func

    def counting_classify(d, adjacency, nodes):
        classified[d, nodes] += 1
        return classify_component(d, adjacency, nodes)

    def counting_is_automorphism(d, p):
        calls["automorphism"] += 1
        return is_automorphism(d, p)

    def counting_partition(g):
        calls["partition"] += 1
        return partition(g)

    orbits = functools.cached_property(counting_partition)
    orbits.__set_name__(diag.AutGroup, "_orbits")
    monkeypatch.setattr(diag, "_classify_component", counting_classify)
    monkeypatch.setattr(diag, "is_automorphism", counting_is_automorphism)
    monkeypatch.setattr(diag.AutGroup, "_orbits", orbits)
    return calls


# spec sources of the classification count: a rank-one piece that is a
# whole component (B3), pieces met by both the opposition clause and the
# angle (A7, E6 and A5 with their flips), and enumerate's search (D5 flip)
CLASSIFIED_SPECS = {
    "A7-spec": A7_SPEC,
    "E6-flip-spec": E6_FLIP_SPEC,
    "B3-aniso-23-spec": "diagram B3\nanisotropic 2 3\n",
    "A5-flip-aniso-1245-spec": A5_FOLDED_SPEC,
    "enum-D5-flip-spec": None,
}
SPEC_ARGVS = [["validate"], ["min-angle"], ["fold"], ["enumerate"], *DIAGRAM_ONLY_ARGVS]


class TestDerivedOncePerRequest:
    """Each connected node set of a diagram is classified once and a
    group's orbits are partitioned once per request: later layers read the
    kept values."""

    @pytest.mark.parametrize("argv", SPEC_ARGVS, ids=" ".join)
    @pytest.mark.parametrize("source", ["E6", "B3+A2", "D4+A1+A1", *CLASSIFIED_SPECS])
    def test_no_command_classifies_a_node_set_twice(
        self, invoke, derivations, tmp_path, argv, source
    ):
        if source in CLASSIFIED_SPECS:
            text = CLASSIFIED_SPECS[source]
            path = ENUM_D5_FLIP if text is None else write(tmp_path, text)
            code, _, _ = invoke(argv[0], path, *argv[1:])
        else:
            code, _, _ = invoke(argv[0], "--diagram", source, *argv[1:])
        assert code == EXIT_OK
        classified = derivations["classified"]
        assert classified and max(classified.values()) == 1, classified

    @pytest.mark.parametrize("name,node,stabilizer", [
        ("E6", 2, [(1, 3, 4, 5, 6)]),
        ("E6", 4, [(1, 3), (2,), (5, 6)]),
        ("B3+A2", 2, [(1,), (3,)]),
        ("B3+A2", 5, [(4,)]),
        ("A1+A1", 1, []),
    ])
    def test_orbit_classifies_the_diagram_and_the_stabilizer(
        self, invoke, derivations, name, node, stabilizer
    ):
        code, _, _ = invoke("orbit", "--diagram", name, "--node", str(node))
        assert code == EXIT_OK
        classified = Counter(derivations["classified"])  # before builtin classifies again
        d = diag.builtin(name)
        whole = [tuple(c.nodes) for c in helpers.connected_components(d)]
        assert classified == Counter((d, c) for c in whole + stabilizer)

    @pytest.mark.parametrize("command", ["min-angle", "fold"])
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_gamma_checked_and_partitioned_once(
        self, invoke, derivations, tmp_path, command, fmt
    ):
        # E6-flip has one generator, (1 6)(3 5)
        code, _, _ = invoke(command, write(tmp_path, E6_FLIP_SPEC), "--format", fmt)
        assert code == EXIT_OK
        assert (derivations["automorphism"], derivations["partition"]) == (1, 1)

    @pytest.mark.parametrize("spec", ["enum-D5-flip", "enum-D4-triality"])
    def test_enumerate_checks_gamma_twice(self, invoke, derivations, spec):
        # one generator each: checked by the spec's validation, which
        # decides the exit code of an invalid spec, and by enumerate_indices
        code, _, _ = invoke("enumerate", str(BENCH_SPECS / f"{spec}.spec"), "--format", "json")
        assert code == EXIT_OK
        assert derivations["automorphism"] == 2

    def test_relative_rank_checks_gamma_once(self, derivations):
        t = helpers.tits("E6", [(1, 6), (3, 5)], (2, 4))
        assert tits_mod.relative_rank(t) == 2
        assert derivations["automorphism"] == 1

    @pytest.mark.parametrize("name", ["B3", "H3"])
    def test_fold_checks_generators_first(self, derivations, name):
        # on H3, NotAnAutomorphism comes before NonCrystallographic
        from coxangle.fold import fold

        d = diag.builtin(name)
        g = diag.AutGroup.generated_by(
            [diag.Permutation.from_cycles([(1, 3)], d.nodes)], d.nodes)
        with pytest.raises(NotAnAutomorphism):
            fold(d, g)
        assert derivations["partition"] == 0


@st.composite
def tits_specs(draw):
    """DSL text of a relabelled spherical sum (sums_with_gamma) with a Gamma
    from its automorphism group and a Gamma-invariant A, or of one of two
    invalid variants: an A that is not Gamma-invariant, or a gamma that is
    not an automorphism. Returns the text, the orbits of Gamma, found by
    closing the group, and A."""
    d, g = draw(sums_with_gamma())
    elements = g.elements()
    orbits = sorted({tuple(sorted({e(i) for e in elements})) for i in d.nodes})
    aniso = {i for orbit in orbits if draw(st.booleans()) for i in orbit}
    gens = [p.cycle_string() for p in g.generators]
    variant = draw(st.sampled_from(["valid", "A not invariant", "not an automorphism"]))
    if variant == "A not invariant" and any(len(orbit) > 1 for orbit in orbits):
        orbit = draw(st.sampled_from([orbit for orbit in orbits if len(orbit) > 1]))
        aniso ^= {draw(st.sampled_from(orbit))}
    elif variant == "not an automorphism":
        images = draw(st.permutations(d.nodes))
        if any(d.m(images[a], images[b]) != d.m(i, j) for a, i in enumerate(d.nodes)
               for b, j in enumerate(d.nodes)):
            gens.append(diag.Permutation.from_dict(dict(zip(d.nodes, images))).cycle_string())
    lines = ["diagram custom", "nodes " + " ".join(map(str, d.nodes))]
    lines += [f"edge {i} {j} {m}" for i, j, m in sorted(d.edges)]
    lines += [f"gamma {cycles}" for cycles in gens]
    if aniso:
        lines.append("anisotropic " + " ".join(map(str, sorted(aniso))))
    return "\n".join(lines) + "\n", orbits, frozenset(aniso)


def _run_format(fmt: str, *argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one command line run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([*argv, "--format", fmt])
    assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_PARSE, EXIT_CATALOG)
    return code, out.getvalue(), err.getvalue()


def _exact_object(**properties) -> dict:
    """Schema of a JSON object with exactly the given properties."""
    return {"type": "object", "properties": properties, "required": list(properties),
            "additionalProperties": False}


_INTS = {"type": "array", "items": {"type": "integer"}}
_INT_MAP = {"type": "object", "propertyNames": {"pattern": r"^\d+$"},
            "additionalProperties": {"type": "integer"}}
_DIAGRAM_SCHEMA = _exact_object(type={"type": "string"}, nodes=_INTS,
                                edges={"type": "array", "items": _INTS})
# the envelope of each command's JSON stdout, as the README gives it
STDOUT_SCHEMAS = {
    "validate": _exact_object(ok={"type": "boolean"}, violations={
        "type": "array", "items": _exact_object(
            clause={"enum": ["gamma-not-automorphism", "A-not-invariant",
                             "opposition-violated"]},
            orbit=_INTS, message={"type": "string"})}),
    "angle": ANGLE_SCHEMA,
    "min-angle": MIN_ANGLE_SCHEMA,
    "fold": _exact_object(folded=_DIAGRAM_SCHEMA, node_map=_INT_MAP, anisotropic=_INTS),
    "opposition": _exact_object(opposition={"type": "string"}, mapping=_INT_MAP),
    "orbit": _exact_object(node={"type": "integer"}, component={"type": "string"},
                           orbit_size={"type": "integer"}, group_order={"type": "integer"}),
    "enumerate": _exact_object(diagram=_DIAGRAM_SCHEMA, note={"type": "string"}, entries={
        "type": "array", "items": _exact_object(
            anisotropic=_INTS, rel_rank={"type": "integer"}, angle=ANGLE_SCHEMA,
            verdict=MIN_ANGLE_SCHEMA["properties"]["verdict"])}),
    "catalog": _exact_object(ok={"type": "boolean"}, entries={
        "type": "array", "items": _exact_object(
            name={"type": "string"}, expected=ANGLE_SCHEMA, computed=ANGLE_SCHEMA,
            ok={"type": "boolean"})}),
}
_VALIDATORS = {name: jsonschema.Draft202012Validator(schema)
               for name, schema in [*STDOUT_SCHEMAS.items(), ("error", ERROR_SCHEMA)]}


def _run_json(*argv: str):
    """Exit code and parsed JSON document of one command line run in
    process: the payload on stdout, which must match its command's schema,
    or the error document on stderr, which must be one document whose code
    names a CoxangleError subclass."""
    code, out, err = _run_format("json", *argv)
    if out:
        assert err == ""
        doc = json.loads(out)
        _VALIDATORS[argv[0]].validate(doc)
    else:
        doc = json.loads(err)
        _VALIDATORS["error"].validate(doc)
        assert issubclass(getattr(errors_mod, doc["error"]["code"]), errors_mod.CoxangleError)
    return code, doc


def _cells(fmt: str, text: str) -> list[list[str]]:
    """The header and rows of a table or CSV document, cell by cell; a
    table's columns are read off the widths of its rule of dashes."""
    if fmt == "csv":
        return list(csv.reader(io.StringIO(text)))
    header, rule, *rows = text.splitlines()
    spans, start = [], 0
    for dashes in rule.split("  "):
        spans.append((start, start + len(dashes)))
        start += len(dashes) + 2
    return [[line[a:b].strip() for a, b in spans] for line in (header, *rows)]


def _ints(cell: str) -> list[int]:
    return [] if cell == "-" else [int(x) for x in cell.split()]


def _json_angle(doc: dict) -> Angle:
    if doc["kind"] == "rational_pi":
        return Angle("pi", Fraction(doc["pi_fraction"]))
    return Angle.exact_cos(Fraction(doc["cos"]))


def _text_angle(text: str) -> Angle:
    if text.startswith("arccos("):
        return Angle.exact_cos(Fraction(text[len("arccos("):-1]))
    p, _, q = text.partition("pi")  # pi, pi/q or p*pi/q
    return Angle.rational_pi(int(p.rstrip("*") or 1), int(q.lstrip("/") or 1))


def _assert_angle_cells(cells: list[str], doc: dict) -> None:
    """The angle, cos and radians_approx cells carry the exact angle of the
    JSON angle document."""
    text, cos, radians = cells
    want = _json_angle(doc)
    assert _text_angle(text) == want
    assert (None if cos == "-" else Fraction(cos)) == want.cos_exact
    assert float(radians) == doc["radians_approx"]


def _assert_text_agrees(argv: list[str], code: int, doc: dict) -> None:
    """The command line argv in table and CSV format exits with the JSON
    run's code, and its cells carry the exact values of the JSON document
    doc."""
    command = argv[0]
    for fmt in ("table", "csv"):
        got_code, out, err = _run_format(fmt, *argv)
        assert got_code == code, fmt
        if code != EXIT_OK:
            assert (out, err) == ("", f"error: {doc['error']['message']}\n"), fmt
            continue
        _, *rows = _cells(fmt, out)
        if command == "angle":
            (cells,) = rows
            _assert_angle_cells(cells, doc)
        elif command == "opposition":
            ((cycles, mapping),) = rows
            assert cycles == doc["opposition"]
            assert dict(pair.split("->") for pair in mapping.split()) \
                == {k: str(v) for k, v in doc["mapping"].items()}
        elif command == "orbit":
            (cells,) = rows
            assert cells == [str(v) for v in doc.values()]
        elif command == "min-angle":
            ((*angle, verdict, achieved),) = rows
            _assert_angle_cells(angle, doc["angle"])
            assert verdict == doc["verdict"]
            assert [_ints(orb.strip("{}").replace(",", " "))
                    for orb in achieved.split()] == doc["achieved_by"]
        elif command == "fold":
            ((name, nodes, edges, node_map, aniso),) = rows
            assert name == doc["folded"]["type"]
            assert _ints(nodes) == doc["folded"]["nodes"]
            assert [_ints(e.strip("()").replace(",", " "))
                    for e in edges.split()] == doc["folded"]["edges"]
            assert {k: int(v) for k, v in (pair.split("->") for pair in node_map.split())} \
                == doc["node_map"]
            assert _ints(aniso) == doc["anisotropic"]
        elif command == "enumerate":
            assert len(rows) == len(doc["entries"]), fmt
            for (aniso, rel, *angle, verdict), entry in zip(rows, doc["entries"]):
                assert _ints(aniso) == entry["anisotropic"]
                assert int(rel) == entry["rel_rank"]
                _assert_angle_cells(angle, entry["angle"])
                assert verdict == entry["verdict"]
        else:  # catalog; the JSON has no type or anisotropic column
            assert len(rows) == len(doc["entries"]), fmt
            for (name, _, _, expected, computed, status), entry in zip(rows, doc["entries"]):
                assert name == entry["name"]
                assert _text_angle(expected) == _json_angle(entry["expected"])
                assert _text_angle(computed) == _json_angle(entry["computed"])
                assert status == ("PASS" if entry["ok"] else "FAIL")


class TestCommandsAgree:
    """validate, min-angle, fold, enumerate, and angle, opposition and orbit
    at a drawn node, on one random Tits spec, answer consistently with each
    other and with the spec itself, and every command but validate carries
    the same values in every format. No exception escapes run, every exit
    code is 0, 1, 2 or 3 (_run_format), and every JSON document matches
    the README's schema (_run_json). catalog answers the same way."""

    def test_catalog_agrees(self):
        code, doc = _run_json("catalog")
        assert (code, doc["ok"], len(doc["entries"])) == (EXIT_OK, True, 17)
        _assert_text_agrees(["catalog"], code, doc)

    @settings(deadline=10_000, max_examples=60)
    @given(case=tits_specs(), data=st.data())
    def test_commands_agree(self, tmp_path_factory, case, data):
        text, orbits, aniso = case
        nodes = sorted(i for orbit in orbits for i in orbit)
        node = data.draw(st.sampled_from(nodes), label="node")
        path = tmp_path_factory.mktemp("spec") / "input.spec"
        path.write_text(text)
        path = str(path)
        code, report = _run_json("validate", path)
        assert code == (EXIT_OK if report["ok"] else EXIT_DOMAIN)

        code, angle = _run_json("min-angle", path)
        assert report["ok"] == (code == EXIT_OK or
                                angle["error"]["code"] != "InvalidTitsDiagram")

        fold_code, folded = _run_json("fold", path)
        assert report["ok"] == (fold_code == EXIT_OK or
                                folded["error"]["code"] != "InvalidTitsDiagram")
        if fold_code == EXIT_OK:
            node_map = {i: min(orbit) for orbit in orbits for i in orbit}
            assert folded["node_map"] == {str(i): v for i, v in sorted(node_map.items())}
            assert folded["anisotropic"] == sorted({node_map[a] for a in aniso})

        enum_code, listing = _run_json("enumerate", path)
        if code == EXIT_OK and enum_code == EXIT_OK:
            (row,) = [e for e in listing["entries"] if e["anisotropic"] == sorted(aniso)]
            assert row["angle"] == angle["angle"]

        _assert_text_agrees(["min-angle", path], code, angle)
        _assert_text_agrees(["fold", path], fold_code, folded)
        _assert_text_agrees(["enumerate", path], enum_code, listing)

        # angle, opposition and orbit read a valid spec only; angle and
        # orbit refuse a node of a non-crystallographic component, except
        # that angle answers on I2(m)
        at_node = ["--node", str(node)]
        outcomes = {}
        for command, extra in (("angle", at_node), ("opposition", []), ("orbit", at_node)):
            argv = [command, path, *extra]
            outcomes[command] = _run_json(*argv)
            got_code, doc = outcomes[command]
            if not report["ok"]:
                assert (got_code, doc["error"]["code"]) == (EXIT_DOMAIN, "InvalidTitsDiagram")
            elif got_code != EXIT_OK:
                assert command != "opposition"
                assert (got_code, doc["error"]["code"]) == (EXIT_DOMAIN, "NonCrystallographic")
            _assert_text_agrees(argv, got_code, doc)
        (angle_code, _), (opp_code, opposition), (orbit_code, orbit) = outcomes.values()
        if orbit_code == EXIT_OK:
            assert angle_code == EXIT_OK
            assert orbit["node"] == node
            assert orbit["group_order"] % orbit["orbit_size"] == 0
        if opp_code == EXIT_OK:
            mapping = {int(k): v for k, v in opposition["mapping"].items()}
            assert sorted(mapping) == sorted(mapping.values()) == nodes
            assert all(mapping[mapping[i]] == i for i in mapping)
