"""Acceptance suite: one test per shipping criterion.

Run `pytest tests/test_acceptance.py -v` for a one-line pass/fail view
of each criterion.
"""

from __future__ import annotations

import json
import resource
import time
from fractions import Fraction

import pytest

import helpers
from coxangle.angle import PI, PI_OVER_2, PI_OVER_3, Angle, Verdict, verdict_against_pi_over_3
from coxangle.diagram import AutGroup, builtin, restrict
from coxangle.dsl import parse_spec, render
from coxangle.fold import fold
from coxangle.geometry import realize
from coxangle.tits import (
    TitsDiagram,
    admissibility,
    angular_distance,
    enumerate_indices,
    minimal_angle,
    reference_catalog,
    tits_diagram,
)
from coxangle.weyl import group_order, opposition, weyl_orbit

jsonschema = pytest.importorskip("jsonschema")


def test_criterion_1_golden_values():
    # bare node and dihedral values
    assert angular_distance(builtin("A1"), 1) == PI
    for m in range(3, 13):
        name = {3: "A2", 4: "B2", 6: "G2"}.get(m, f"I2({m})")
        d = builtin(name)
        for i in d.nodes:
            assert angular_distance(d, i) == Angle.rational_pi(2, m)

    # chain ends and middles
    assert angular_distance(builtin("A3"), 1) == Angle.exact_cos(Fraction(-1, 3))
    assert angular_distance(builtin("A3"), 2) == PI_OVER_2
    for n in range(2, 9):
        assert angular_distance(builtin(f"B{n}"), 1) == PI_OVER_2
    for n in range(4, 9):
        assert angular_distance(builtin(f"D{n}"), 1) == PI_OVER_2

    # the arccos(1/3) family; on E7 the value sits at the node whose
    # weight orbit has 56 elements (the end of the long branch), while
    # the opposite end node gives exactly pi/3
    assert angular_distance(builtin("A5"), 3) == Angle.exact_cos(Fraction(1, 3))
    assert angular_distance(builtin("B3"), 3) == Angle.exact_cos(Fraction(1, 3))
    assert angular_distance(builtin("E7"), 7) == Angle.exact_cos(Fraction(1, 3))
    assert angular_distance(builtin("E7"), 1) == PI_OVER_3

    # minimal angles
    assert minimal_angle(tits_diagram(builtin("A7"), anisotropic=[1, 3, 5, 7])) == PI_OVER_2
    d5 = builtin("A5")
    g5 = helpers.gen_group(d5, [(1, 5), (2, 4)])
    assert minimal_angle(TitsDiagram(d5, g5, frozenset({1, 2, 4, 5}))) == \
        Angle.exact_cos(Fraction(1, 3))
    for name in ("A1", "A4", "B2", "B6", "D5", "E6", "E7", "E8", "F4",
                 "G2", "H3", "H4", "I2(5)", "I2(11)"):
        assert minimal_angle(tits_diagram(builtin(name))) == PI

    # boundary cases at exactly pi/3 exist at relative rank 2
    for name, rank in (("E7", 7), ("E8", 8)):
        d = builtin(name)
        rows = enumerate_indices(d, AutGroup.trivial(d.nodes), rel_rank=2)
        assert any(v is Verdict.EqualPiOver3 for _, _, v in rows), name

    # and the whole reference catalog clears the threshold strictly
    for entry in reference_catalog():
        assert minimal_angle(entry.tits) == entry.expected, entry.name
        assert admissibility(entry.tits) is Verdict.GreaterThanPiOver3, entry.name


def test_criterion_2_orbit_size_identity():
    names = [f"A{n}" for n in range(1, 9)]
    names += [f"B{n}" for n in range(2, 9)]
    names += [f"D{n}" for n in range(4, 9)]
    names += ["E6", "E7", "E8", "F4", "G2"]
    for name in names:
        d = builtin(name)
        r = realize(d)
        total = group_order(d)
        for i in d.nodes:
            # the vector sets of the large rank-8 orbits are only counted,
            # by the walk alone: orbit_size reads the index off the degrees
            if d.rank < 8 or (name, i) in (("E8", 1), ("E8", 8)):
                size = len(weyl_orbit(r, r.fundamental_weights[i]))
            else:
                size = helpers.walk_only_orbit_size(d, i)
            stab = group_order(restrict(d, [j for j in d.nodes if j != i]))
            assert size * stab == total, (name, i)


def test_criterion_3_brute_force_oracle():
    for name in ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "G2"):
        d = builtin(name)
        r = realize(d)
        for i in d.nodes:
            want = (PI if d.rank == 1
                    else Angle.exact_cos(helpers.brute_max_cos(r, i)))
            assert angular_distance(d, i) == want, (name, i)


def test_criterion_4_folding_and_opposition():
    from coxangle.diagram import type_name

    folds = [
        ("A3", [(1, 3)], "B2"),
        ("A4", [(1, 4), (2, 3)], "B2"),
        ("A5", [(1, 5), (2, 4)], "B3"),
        ("D5", [(4, 5)], "B4"),
        ("D4", [(1, 3, 4)], "G2"),
        ("E6", [(1, 6), (3, 5)], "F4"),
        ("F4", [(1, 4), (2, 3)], "I2(8)"),
    ]
    for name, cycles, want in folds:
        d = builtin(name)
        res = fold(d, helpers.gen_group(d, cycles))
        assert type_name(res.folded) == want, name

    expected_opp = {
        "A2": "(1 2)", "A3": "(1 3)", "A4": "(1 4)(2 3)", "A5": "(1 5)(2 4)",
        "A6": "(1 6)(2 5)(3 4)", "B4": "id", "D4": "id", "D5": "(4 5)",
        "D6": "id", "D7": "(6 7)", "E6": "(1 6)(3 5)", "E7": "id", "E8": "id",
        "F4": "id", "G2": "id", "H3": "id", "H4": "id",
        "I2(5)": "(1 2)", "I2(8)": "id",
    }
    for name, cyc in expected_opp.items():
        assert opposition(builtin(name)).cycle_string() == cyc, name

    # cross-check against the exhaustive w_0 search at small rank
    for name in ("A2", "A3", "A4", "B2", "B3", "B4", "D4", "F4", "G2"):
        d = builtin(name)
        got = opposition(d)
        want = helpers.brute_opposition(realize(d))
        assert {i: got(i) for i in d.nodes} == want, name
    for m in range(3, 13):
        name = {3: "A2", 4: "B2", 6: "G2"}.get(m, f"I2({m})")
        d = builtin(name)
        swapped = opposition(d)(d.nodes[0]) == d.nodes[1]
        assert swapped == helpers.dihedral_opposition(m), m


def test_criterion_5_performance_envelope():
    d = builtin("E8")
    start = time.monotonic()
    angles = {i: angular_distance(d, i) for i in d.nodes}
    elapsed = time.monotonic() - start
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert elapsed < 300.0, f"E8 sweep took {elapsed:.1f}s"
    assert peak_kb < 4 * 1024 * 1024, f"peak RSS {peak_kb} kB"
    assert angles[8] == PI_OVER_3
    assert angles[1] == Angle.exact_cos(Fraction(3, 4))
    assert angles[2] == Angle.exact_cos(Fraction(7, 8))


def test_criterion_6_exactness():
    assert verdict_against_pi_over_3(Angle.exact_cos(Fraction(1, 2))) is \
        Verdict.EqualPiOver3
    assert verdict_against_pi_over_3(Angle.rational_pi(1, 3)) is \
        Verdict.EqualPiOver3

    cases = [
        tits_diagram(builtin("A7"), anisotropic=[1, 3, 5, 7]),
        tits_diagram(builtin("E7"), anisotropic=[2, 3, 4, 5, 7]),
        tits_diagram(builtin("E8"), anisotropic=[2, 3, 4, 5, 6, 7]),
        tits_diagram(builtin("B4")),
    ]

    def snapshot() -> str:
        rows = []
        for t in cases:
            a = minimal_angle(t)
            rows.append({"angle": a.to_json(), "verdict": admissibility(t).code})
        return json.dumps(rows, sort_keys=True)

    first, second = snapshot(), snapshot()
    assert first == second

    # a cosine within one part in 10^40 of the threshold must still be
    # classified strictly, which no float comparison could do
    eps = Fraction(1, 10**40)
    assert verdict_against_pi_over_3(Angle.exact_cos(Fraction(1, 2) + eps)) is \
        Verdict.LessThanPiOver3
    assert verdict_against_pi_over_3(Angle.exact_cos(Fraction(1, 2) - eps)) is \
        Verdict.GreaterThanPiOver3


ANGLE_SCHEMA = {
    "type": "object",
    "oneOf": [
        {
            "properties": {
                "kind": {"const": "exact_cos"},
                "cos": {"type": "string", "pattern": r"^-?\d+(/\d+)?$"},
                "radians_approx": {"type": "number"},
            },
            "required": ["kind", "cos", "radians_approx"],
            "additionalProperties": False,
        },
        {
            "properties": {
                "kind": {"const": "rational_pi"},
                "pi_fraction": {"type": "string", "pattern": r"^\d+(/\d+)?$"},
                "radians_approx": {"type": "number"},
            },
            "required": ["kind", "pi_fraction", "radians_approx"],
            "additionalProperties": False,
        },
    ],
}

MIN_ANGLE_SCHEMA = {
    "type": "object",
    "properties": {
        "angle": ANGLE_SCHEMA,
        "verdict": {"enum": ["GT_PI_3", "EQ_PI_3", "LT_PI_3"]},
        "achieved_by": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "integer"}},
        },
    },
    "required": ["angle", "verdict", "achieved_by"],
    "additionalProperties": False,
}

ERROR_SCHEMA = {
    "type": "object",
    "properties": {
        "error": {
            "type": "object",
            "properties": {
                "code": {"type": "string"},
                "message": {"type": "string"},
            },
            "required": ["code", "message"],
        },
    },
    "required": ["error"],
    "additionalProperties": False,
}


def test_criterion_7_cli_contract(capsys, tmp_path):
    from coxangle.cli import run

    def invoke(*args):
        code = run(list(args))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    # catalog: all PASS, exit 0
    code, out, _ = invoke("catalog")
    assert code == 0
    assert "FAIL" not in out
    assert out.count("PASS") == len(reference_catalog())

    # the three documented DSL examples parse and round-trip
    examples = [
        "diagram A5\ngamma (1 5)(2 4)\nanisotropic 1 2 4 5\n",
        "diagram E7\nanisotropic 2 3 4 5 6 7\n",
        "diagram custom\nnodes 1 2\nedge 1 2 5\n",
    ]
    for text in examples:
        doc = parse_spec(text)
        assert parse_spec(render(doc.payload)).payload == doc.payload

    # JSON outputs validate against the documented schemas
    code, out, _ = invoke("angle", "--diagram", "B3", "--node", "3",
                          "--format", "json")
    assert code == 0
    jsonschema.validate(json.loads(out), ANGLE_SCHEMA)

    spec_file = tmp_path / "a7.spec"
    spec_file.write_text("diagram A7\nanisotropic 1 3 5 7\n")
    code, out, _ = invoke("min-angle", str(spec_file), "--format", "json")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, MIN_ANGLE_SCHEMA)
    jsonschema.validate(doc["angle"], ANGLE_SCHEMA)

    code, out, _ = invoke("enumerate", "--diagram", "A3", "--format", "json")
    assert code == 0
    for entry in json.loads(out)["entries"]:
        jsonschema.validate(entry["angle"], ANGLE_SCHEMA)

    # failure path stays a single JSON document with the error envelope
    code, out, err = invoke("angle", "--diagram", "H3", "--node", "1",
                            "--format", "json")
    assert code == 1 and out == ""
    jsonschema.validate(json.loads(err), ERROR_SCHEMA)
