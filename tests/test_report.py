"""json_text writes the text json.dumps(indent=2, sort_keys=True) gives,
and it is the one JSON writer of the package."""

import json
import math
import pathlib
import re
import tracemalloc

import pytest

import fillgeo
from fillgeo import cli, polygeom, reducer, surfmap
from fillgeo.report import json_text

PACKAGE = pathlib.Path(fillgeo.__file__).parent


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


class FloatSubclass(float):
    pass


@pytest.mark.parametrize(
    "value",
    [
        0,
        -5,
        10**30,
        True,
        "a \"quoted\" é\n",
        [],
        {},
        (),
        [[], {}],
        [1, True, False],
        [True, 1],
        (3, -1, 2),
        {"b": {"a": [1, (2, 3)], "c": "x"}, "a": []},
        [["x"], [1, 2], {"k": True}],
        0.0,
        -0.0,
        5e-324,
        1e300,
        0.1 + 0.2,
        math.pi,
        math.inf,
        -math.inf,
        math.nan,
        [1, 2.0],
        None,
        [None, 1],
        {"a": None, "b": {"c": [None, 0.5]}},
        (5,),
        [-7],
        [(4,), [10**20, -3]],
    ],
)
def test_text_matches_json_dumps(value):
    assert json_text(value) == dumps(value)


def test_certificate_and_map_text_match_json_dumps():
    cmap = surfmap.build_map(surfmap.canonical_word(3))
    cert = reducer.reduce(reducer.validate_input(cmap, 3))
    assert cert.to_json() == dumps(cert.as_dict())
    data = surfmap.to_interchange(cmap)
    assert json_text(data) == dumps(data)


@pytest.mark.parametrize("flags", [
    ("--samples", "1000", "--steps", "10", "--count", "300"),
    (),
], ids=["digest density", "default density"])
def test_verify_reports_match_json_dumps(flags):
    args = cli.build_parser().parse_args(["verify", "--all", *flags])
    for report in cli._verify_reports("all", args):
        data = report.as_dict()
        assert json_text(data) == dumps(data), report.check_id


def test_cli_tables_and_reports_match_json_dumps():
    values = [
        [polygeom.extremal_report(g).as_dict() for g in range(2, 13)],
        polygeom.RegularPolygonSpec.from_angle(4, math.pi / 2.0).as_dict(),
        polygeom.RegularPolygonSpec.from_area(7.5, 3.0).as_dict(),
    ]
    values += [surfmap.verify_canonical(g).as_dict() for g in range(2, 7)]
    for value in values:
        assert json_text(value) == dumps(value)


def test_int_list_peak_stays_near_its_text():
    # the text is about 0.71 MB; one str per item traced about 4.7 MB
    values = list(range(-32000, 32000))
    tracemalloc.start()
    try:
        text = json_text({"sigma": values})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == dumps({"sigma": values})
    assert peak < 2.5 * len(text), (peak, len(text))


@pytest.mark.parametrize(
    "value",
    [
        pytest.param({1: 2}, id="int key"),
        pytest.param({"a": 1, 2: 3}, id="mixed keys"),
        b"x",
        pytest.param({1, 2}, id="set"),
        pytest.param(FloatSubclass(0.5), id="float subclass"),
    ],
)
def test_other_types_are_refused(value):
    with pytest.raises(TypeError):
        json_text(value)


def test_json_text_is_the_only_writer():
    # certificates, reports, tables and map files all go through json_text
    call = re.compile(r"\bjson\.dumps?\(|from json import [^\n]*\bdumps?\b")
    stray = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if call.search(line)
    ]
    assert not stray, f"JSON written outside report.json_text: {stray}"
