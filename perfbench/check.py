"""Output checks for the benchmark ops, independent of the code under test.

Every check recomputes what it needs from the op's own output with the
orbit code in ``corpus``; nothing here imports fillgeo.  Each function
returns a list of problems, empty when the output is right.
"""

import json
import math

from corpus import face_orbits, orbits

VERIFY_REPORT_LINES = 27
LENGTH_REL_TOL = 1e-12


def min_length(g):
    """Closed form L(g) = (8g-4) acosh(sqrt(2) cos(pi/(8g-4)))."""
    n = 8 * g - 4
    return n * math.acosh(math.sqrt(2.0) * math.cos(math.pi / n))


def check_verify(stdout):
    reports = [line for line in stdout.splitlines() if line.startswith("[")]
    problems = []
    if len(reports) != VERIFY_REPORT_LINES:
        problems.append(f"{len(reports)} report lines, expected {VERIFY_REPORT_LINES}")
    failing = [line for line in reports if not line.startswith("[PASS]")]
    if failing:
        problems.append(f"{len(failing)} report lines not [PASS], first: {failing[0]}")
    return problems


def check_canonical_map(data, g):
    """The emitted map of the canonical genus-g gluing."""
    alpha, sigma = data["alpha"], data["sigma"]
    n = len(alpha)
    problems = []
    if data["dart_count"] != n or len(sigma) != n:
        return ["dart_count disagrees with the permutation lengths"]
    if sorted(alpha) != list(range(n)) or sorted(sigma) != list(range(n)):
        return ["alpha or sigma is not a permutation"]
    if any(alpha[d] == d or alpha[alpha[d]] != d for d in range(n)):
        return ["alpha is not a fixed-point-free involution"]
    if n != 8 * g - 4:
        problems.append(f"{n} darts, expected {8 * g - 4}")
    vertices = orbits(sigma)
    if len(vertices) != 2 * g - 1 or any(len(v) != 4 for v in vertices):
        problems.append(
            f"vertex valences {sorted(len(v) for v in vertices)}, "
            f"expected {2 * g - 1} four-valent vertices"
        )
    faces = face_orbits(alpha, sigma)
    if len(faces) != 1:
        problems.append(f"{len(faces)} faces, expected one")
    euler = len(vertices) - n // 2 + len(faces)
    if euler != 2 - 2 * g:
        problems.append(f"Euler characteristic {euler}, expected {2 - 2 * g}")
    return problems


def check_gluing(stdout, map_text, g):
    """``gluing --genus g --emit-map F --json``: the map and the length."""
    problems = check_canonical_map(json.loads(map_text), g)
    report = json.loads(stdout)
    if not report["passed"]:
        problems.append("gluing report did not pass")
    length = report["details"]["geodesic_length"]
    expected = min_length(g)
    rel = abs(length - expected) / expected
    if not rel <= LENGTH_REL_TOL:
        problems.append(f"length {length!r} off L({g}) = {expected!r} by {rel:.3g}")
    return problems


def check_svg(stdout, svg_text, g):
    """``gluing --genus g --svg F``: a passing summary and one side per edge."""
    problems = []
    if f"[PASS] canonical_g{g} " not in stdout:
        problems.append("no passing canonical summary line")
    sides = 8 * g - 4
    for tag in ("<polyline ", "<text "):
        count = svg_text.count(tag)
        if count != sides:
            problems.append(f"{count} {tag.strip()} elements, expected {sides}")
    return problems


def effective_degrees(data):
    """Face degrees of a map with straight corners discounted.

    A face passes the corner between alpha(d) and sigma(alpha(d)) after
    each of its darts d; that corner is not counted when alpha(d) is a
    straight corner.
    """
    alpha, sigma = data["alpha"], data["sigma"]
    straight = set(data.get("straight_corners", ()))
    return sorted(
        (sum(1 for d in face if alpha[d] not in straight)
         for face in face_orbits(alpha, sigma)),
        reverse=True,
    )


def check_certificate(cert, g):
    """``reduce F --genus g --json``: recompute the certificate's claims."""
    reduced = cert["reduced_map"]
    degrees = effective_degrees(reduced)
    problems = []
    if degrees != list(cert["face_degrees"]):
        problems.append(f"recomputed degrees {degrees} != claimed {cert['face_degrees']}")
    if any(m < 5 for m in degrees):
        problems.append(f"face of degree below five in {degrees}")
    excess = sum(m - 4 for m in degrees)
    if excess != 8 * g - 8:
        problems.append(f"sum(m-4) = {excess}, expected {8 * g - 8}")
    alpha, sigma = reduced["alpha"], reduced["sigma"]
    euler = len(orbits(sigma)) - len(alpha) // 2 + len(face_orbits(alpha, sigma))
    if euler != 2 - 2 * g:
        problems.append(f"reduced map has Euler characteristic {euler}, expected {2 - 2 * g}")
    return problems


def check_reduce(stdout, g):
    return check_certificate(json.loads(stdout), g)
