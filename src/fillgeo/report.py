"""Verification report records.

Every sweep verifier returns one CheckReport: what was swept, how
densely, the worst value found and where, and whether the check
passed.  Reports serialize to key=value text lines and to JSON.
"""

import json
from dataclasses import dataclass, field, fields


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
