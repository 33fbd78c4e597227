"""Verification report records and the package's one JSON writer.

Every sweep verifier returns one CheckReport: what was swept, how
densely, the worst value found and where, and whether the check
passed.  Reports serialize to key=value text lines and to JSON.
json_text writes every JSON text fillgeo prints or writes.
"""

from collections import namedtuple
from json.encoder import encode_basestring_ascii

# the json module's spellings of the floats whose repr is nan, inf and -inf
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def json_text(value, indent: str = "") -> str:
    """What the json module's dumps writes with indent=2, sort_keys=True
    for None, bool, int, float, str, list, tuple and str-keyed dict
    values; indent is that of the line the value starts on.  A list of
    ints is written from its repr, with no str made per item.  Any other
    type, a subclass of one of these too, raises TypeError."""
    kind, inner = type(value), indent + "  "
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if kind is float:
        text = repr(value)
        return _NON_FINITE.get(text, text)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            # a list's repr, since a one-item tuple's ends in ",)"
            body = repr(value if kind is list else list(value))[1:-1].replace(", ", ",\n" + inner)
        else:
            body = (",\n" + inner).join(json_text(item, inner) for item in value)
        return f"[\n{inner}{body}\n{indent}]"  # one copy, where + makes one per +
    if kind is dict:
        if not value:
            return "{}"
        if set(map(type, value)) != {str}:
            raise TypeError("JSON object keys must be str")
        items = (
            encode_basestring_ascii(key) + ": " + json_text(value[key], inner)
            for key in sorted(value)
        )
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "}"
    raise TypeError(f"{kind.__name__} is not written as JSON")


class CheckReport(namedtuple(
    "CheckReport", "check_id passed domain grid_size min_value argmin tolerance details"
)):
    """One check; min_value and argmin are None where it has no worst value."""

    __slots__ = ()

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        extra = ""
        if self.min_value is not None:
            extra = f" min_value={self.min_value:.6g}"
        return f"[{verdict}] {self.check_id}{extra} grid={self.grid_size}"

    def text(self) -> str:
        lines = [
            f"check={self.check_id}",
            f"passed={str(self.passed).lower()}",
            f"domain={self.domain}",
            f"grid_size={self.grid_size}",
            f"min_value={'none' if self.min_value is None else repr(self.min_value)}",
            f"argmin={'none' if self.argmin is None else repr(self.argmin)}",
            f"tolerance={self.tolerance!r}",
        ]
        for key in sorted(self.details):
            lines.append(f"detail.{key}={self.details[key]!r}")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return self._asdict()
