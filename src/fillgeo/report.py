"""Verification report records.

Every sweep verifier returns one CheckReport: what was swept, how
densely, the worst value found and where, and whether the check
passed.  Reports serialize to key=value text lines and to JSON.
json_text writes the JSON of certificates and map files.
"""

import json
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii


def json_text(value, indent: str = "") -> str:
    """The text json.dumps(value, indent=2, sort_keys=True) gives, for
    the bool, int, str, list, tuple and str-keyed dict values that
    certificates and map files hold; indent is that of the line the
    value starts on.  A list of ints is joined as one string instead of
    encoded item by item.  Any other type raises TypeError."""
    kind, inner = type(value), indent + "  "
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        if set(map(type, value)) == {int}:
            items = map(str, value)
        else:
            items = (json_text(item, inner) for item in value)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"
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


@dataclass
class CheckReport:
    check_id: str
    passed: bool
    domain: str
    grid_size: int
    min_value: float | None
    argmin: tuple | None
    tolerance: float
    details: dict = field(default_factory=dict)

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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True, default=repr)
