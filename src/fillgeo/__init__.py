"""Tools for extremal filling geodesics on closed hyperbolic surfaces.

The package has four working parts:

* ``polygeom``: lengths, angles and areas of regular hyperbolic polygons,
  and the extremal length of a filling geodesic as a function of genus.
* ``isoperim``: numerical verification of a sharp isoperimetric inequality
  for unions of regular polygons, with equality classification.
* ``surfmap``: combinatorial maps (rotation systems) built from polygon
  edge gluings, surface invariants, and the canonical minimal gluing
  for each genus.
* ``reducer``: reduction of a filling multi-curve map to a triangle-free
  filling graph by repeatedly adding essential cutting curves.

Every record is a named tuple or a slotted class, not a dataclass:
``dataclasses`` imports ``inspect`` and with it ``ast``, ``dis`` and
``tokenize``, which would add to the start of every ``fillgeo``
command, while ``collections`` is loaded by then.  A record compares,
hashes and prints by its fields, assigning a field raises
AttributeError, and a record that checks its fields does so once, when
it is made.
"""

from .errors import DomainError, ValidationError, InternalInvariantError

__all__ = [
    "DomainError",
    "ValidationError",
    "InternalInvariantError",
]

__version__ = "0.1.0"
