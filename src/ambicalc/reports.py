"""Verdict containers produced by every axiom checker."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Witness:
    """Location of a failed check.

    ``subset_a``/``subset_b`` are proposition masks when the axiom quantifies
    over subsets, ``situation`` is a situation index for coverage-style
    failures, and ``detail`` is a human-readable account of the offending sets.
    """

    subset_a: int | None = None
    subset_b: int | None = None
    situation: int | None = None
    detail: str = ""

    def key(self) -> tuple:
        # detail strings are presentation, not identity
        return (self.subset_a, self.subset_b, self.situation)


@dataclass(frozen=True)
class Verdict:
    axiom: str
    ok: bool
    witness: Witness | None = None


@dataclass(frozen=True)
class AxiomReport:
    """Ordered list of per-axiom verdicts; witnesses are present iff failed."""

    verdicts: tuple[Verdict, ...]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def find(self, axiom: str) -> Verdict:
        for v in self.verdicts:
            if v.axiom == axiom:
                return v
        raise KeyError(axiom)

    def agreement_key(self) -> tuple:
        """Comparable summary: axiom names, outcomes, and witness locations."""
        return tuple(
            (v.axiom, v.ok, v.witness.key() if v.witness else None) for v in self.verdicts
        )

    def to_lines(self) -> list[str]:
        lines = []
        for v in self.verdicts:
            if v.ok:
                lines.append(f"{v.axiom} ✓")
            else:
                lines.append(f"{v.axiom} ✗ witness: {v.witness.detail}")
        return lines

    def to_json_obj(self) -> dict:
        verdicts = []
        for v in self.verdicts:
            entry: dict = {"axiom": v.axiom, "ok": v.ok}
            if v.witness is not None:
                entry["witness"] = {
                    "A": v.witness.subset_a,
                    "B": v.witness.subset_b,
                    "situation": v.witness.situation,
                    "detail": v.witness.detail,
                }
            verdicts.append(entry)
        return {"ok": self.ok, "verdicts": verdicts}


def merge(*reports: AxiomReport) -> AxiomReport:
    out: list[Verdict] = []
    for rep in reports:
        out.extend(rep.verdicts)
    return AxiomReport(tuple(out))
