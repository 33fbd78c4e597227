"""Every numerical tolerance is named once, in ``fillgeo/tolerances.py``.

The package source is scanned with ``tokenize``: a float literal in
exponent form (such as ``1e-12``) anywhere else is a tolerance written
in place, and fails the test.  Name it in ``tolerances.py`` instead.
Each name there must be read, as ``tol.NAME``, by another module of the
package: a tolerance nothing reads is deleted, not kept.
"""

import ast
import pathlib
import tokenize

import fillgeo

PACKAGE = pathlib.Path(fillgeo.__file__).parent


def exponent_literals(path):
    """``file:line: literal`` for each exponent-form number in path."""
    found = []
    with tokenize.open(path) as handle:
        for tok in tokenize.generate_tokens(handle.readline):
            text = tok.string.lower()
            if tok.type == tokenize.NUMBER and "e" in text and not text.startswith("0x"):
                found.append(f"{path.name}:{tok.start[0]}: {tok.string}")
    return found


def test_tolerance_table_holds_the_exponent_literals():
    assert exponent_literals(PACKAGE / "tolerances.py")


def test_no_exponent_literal_outside_the_tolerance_table():
    stray = [
        hit
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tolerances.py"
        for hit in exponent_literals(path)
    ]
    assert not stray, f"tolerance literals outside tolerances.py: {stray}"


def tolerance_names():
    tree = ast.parse((PACKAGE / "tolerances.py").read_text())
    return {
        target.id
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }


def tol_reads(path):
    """The names read as ``tol.NAME`` in path."""
    return {
        node.attr
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "tol"
    }


def test_every_tolerance_is_read():
    names = tolerance_names()
    assert names
    read = set().union(
        *(tol_reads(path) for path in PACKAGE.glob("*.py") if path.name != "tolerances.py")
    )
    assert not names - read, f"tolerances nothing reads: {sorted(names - read)}"
    assert not read - names, f"tol names with no entry: {sorted(read - names)}"
