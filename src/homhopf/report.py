"""Check reports: pass/fail lists with witnesses, shared by all verifiers."""

from __future__ import annotations

from typing import Any, Optional, Sequence

from .records import field, record


@record(frozen=True)
class Witness:
    """First violating basis tuple of a failed identity, with both sides."""

    basis: tuple[str, ...]
    lhs: Any
    rhs: Any

    def to_dict(self) -> dict:
        return {"basis": list(self.basis), "lhs": str(self.lhs), "rhs": str(self.rhs)}


@record(frozen=True)
class CheckResult:
    name: str
    status: str                     # "pass" | "fail" | "skipped"
    witness: Optional[Witness] = None
    detail: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        d: dict[str, Any] = {"name": self.name, "status": self.status}
        if self.witness is not None:
            d["witness"] = self.witness.to_dict()
        if self.detail is not None:
            d["detail"] = self.detail
        return d


@record
class Report:
    title: str
    results: list[CheckResult] = field(default_factory=list)
    certificates: dict[str, Any] = field(default_factory=dict)

    def record(self, name: str, passed: bool,
               witness: Optional[Witness] = None, detail: Optional[str] = None) -> None:
        self.results.append(
            CheckResult(name, "pass" if passed else "fail", witness, detail))

    def skip(self, name: str, detail: Optional[str] = None) -> None:
        self.results.append(CheckResult(name, "skipped", detail=detail))

    def skip_unless(self, met: bool, gated: Sequence[str],
                    reason: str = "hypothesis not satisfied") -> bool:
        """Skip each gated conclusion, for reason, unless met; return met."""
        if not met:
            for name in gated:
                self.skip(name, reason)
        return met

    def extend(self, other: "Report", prefix: str = "") -> None:
        for r in other.results:
            self.results.append(CheckResult(prefix + r.name, r.status, r.witness, r.detail))
        self.certificates.update(other.certificates)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.status == "fail"]

    def to_dict(self) -> dict:
        return {
            "title": self.title,
            "ok": self.ok,
            "results": [r.to_dict() for r in self.results],
            "certificates": self.certificates,
        }

    def pretty(self) -> str:
        lines = [self.title]
        for r in self.results:
            mark = {"pass": "ok  ", "fail": "FAIL", "skipped": "skip"}[r.status]
            line = f"  [{mark}] {r.name}"
            if r.detail:
                line += f"  ({r.detail})"
            lines.append(line)
            if r.witness is not None:
                lines.append(f"         at {', '.join(r.witness.basis)}: "
                             f"{r.witness.lhs} != {r.witness.rhs}")
        return "\n".join(lines)
