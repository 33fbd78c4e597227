"""json_text writes the text json.dumps(indent=2, sort_keys=True) gives."""

import json

import pytest

from fillgeo import reducer, surfmap
from fillgeo.report import json_text


def dumps(value):
    return json.dumps(value, indent=2, sort_keys=True)


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


@pytest.mark.parametrize("value", [1.5, None, [None], {"a": 0.5}, {1: 2}, {"a": 1, 2: 3}, b"x"])
def test_other_types_are_refused(value):
    with pytest.raises(TypeError):
        json_text(value)
