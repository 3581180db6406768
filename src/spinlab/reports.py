"""Scenario configuration and machine-readable residual reports.

A scenario is a JSON-compatible description of one verification run: the
two factor curvatures, a catalog hypersurface with parameters, a sample
count and seed, optional tolerance overrides and an optional subset of
check names.  A report echoes the scenario and carries one record per
check with its anchor string, worst residual, tolerance and verdict.

Determinism contract: identical scenario + seed produce a byte-identical
JSON report except for the runtime field.  JSON reports match
``json.dumps(..., indent=2, sort_keys=True)`` plus a newline byte for
byte.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii


class ScenarioError(ValueError):
    pass


def _json_number(x, what):
    """``x`` as a float if it is a JSON number; true, false and numeric
    strings are not numbers."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ScenarioError(f"{what} must be a number, got {x!r}")
    try:
        return float(x)
    except OverflowError:  # an integer beyond the float range
        raise ScenarioError(f"{what} must be finite") from None


@dataclass
class Scenario:
    name: str
    c1: float
    c2: float
    hypersurface: dict
    samples: int = 40
    seed: int = 0
    checks: list | None = None
    tolerances: dict = field(default_factory=dict)
    structure_pairing: str = "standard"

    @staticmethod
    def from_dict(d: dict) -> "Scenario":
        if not isinstance(d, dict):
            raise ScenarioError(
                f"a scenario must be a JSON object, got {type(d).__name__}")
        checks = d.get("checks")
        if checks is not None and (
                not isinstance(checks, (list, tuple))
                or not all(isinstance(c, str) for c in checks)):
            raise ScenarioError(
                f"checks must be a list of check names, got {checks!r}")
        repeated = [c for i, c in enumerate(checks or ()) if c in checks[:i]]
        if repeated:
            raise ScenarioError(f"check {repeated[0]!r} is named twice")
        tolerances = d.get("tolerances", {})
        if not isinstance(tolerances, dict):
            raise ScenarioError("tolerances must map check names to numbers, "
                                f"got {tolerances!r}")
        for key in ("name", "c1", "c2", "hypersurface"):
            if key not in d:
                raise ScenarioError(f"invalid scenario: missing {key!r}")
        if not isinstance(d["hypersurface"], dict):
            raise ScenarioError("hypersurface must be an object, got "
                                f"{d['hypersurface']!r}")
        sc = Scenario(
            name=str(d["name"]),
            c1=_json_number(d["c1"], "c1"),
            c2=_json_number(d["c2"], "c2"),
            hypersurface=dict(d["hypersurface"]),
            samples=d.get("samples", 40),
            seed=d.get("seed", 0),
            checks=list(checks) if checks is not None else None,
            tolerances={str(k): _json_number(v, f"tolerance of {k!r}")
                        for k, v in tolerances.items()},
            structure_pairing=str(d.get("structure_pairing", "standard")),
        )
        sc.validate()
        return sc

    def validate(self):
        from .catalog import CATALOG
        if not (math.isfinite(self.c1) and math.isfinite(self.c2)):
            raise ScenarioError("curvatures c1 and c2 must be finite")
        # a float or a boolean is not a count (bool is a subclass of int)
        if type(self.samples) is not int or self.samples < 1:
            raise ScenarioError(
                f"sample count must be an integer >= 1, got {self.samples!r}")
        if type(self.seed) is not int or self.seed < 0:
            raise ScenarioError(
                f"seed must be an integer >= 0, got {self.seed!r}")
        # an infinite tolerance could never fail and is not valid JSON
        if any(not (t > 0 and math.isfinite(t))
               for t in self.tolerances.values()):
            raise ScenarioError("tolerances must be positive and finite")
        kind = self.hypersurface.get("kind")
        if not isinstance(kind, str) or kind not in CATALOG:
            raise ScenarioError(f"unknown hypersurface kind {kind!r}")
        if self.structure_pairing not in ("standard", "flipped"):
            raise ScenarioError("structure_pairing must be standard or flipped")

    def to_dict(self) -> dict:
        return {
            "name": self.name, "c1": self.c1, "c2": self.c2,
            "hypersurface": self.hypersurface, "samples": self.samples,
            "seed": self.seed, "checks": self.checks,
            "tolerances": self.tolerances,
            "structure_pairing": self.structure_pairing,
        }


@dataclass
class CheckRecord:
    name: str
    anchor: str
    max_residual: float
    tolerance: float
    verdict: str  # "pass" | "fail"
    points_evaluated: int = 0
    notes: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "name": self.name, "anchor": self.anchor,
            "max_residual": self.max_residual, "tolerance": self.tolerance,
            "verdict": self.verdict,
            "points_evaluated": self.points_evaluated, "notes": self.notes,
        }


@dataclass
class ResidualReport:
    scenario: dict
    checks: list
    overall_verdict: str
    runtime_seconds: float
    warnings: list = field(default_factory=list)

    def to_dict(self):
        return {
            "scenario": self.scenario,
            "checks": [c.to_dict() for c in self.checks],
            "overall_verdict": self.overall_verdict,
            "runtime_seconds": self.runtime_seconds,
            "warnings": self.warnings,
        }

    @property
    def passed(self):
        return self.overall_verdict == "pass"


# float.__repr__ of the floats json writes as words
_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _key_text(key):
    """A number, bool or None dict key as json writes it: as a string."""
    if not isinstance(key, (int, float)) and key is not None:
        raise TypeError(f"keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return encode_basestring_ascii(_encode(key, ""))


def _encode(x, newline):
    """``x`` as ``json.dumps(x, indent=2, sort_keys=True)`` writes it at the
    depth whose line break and indent is ``newline``.  Types are tested in
    json's order, so a float subclass such as ``np.float64`` is a float and
    any other type raises json's ``TypeError``.  json's own encoder runs in
    pure Python whenever it indents; this one joins each container once.
    There is no cycle check: reports hold none."""
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float):
        text = float.__repr__(x)
        return _FLOAT_WORDS.get(text, text)
    inner = newline + "  "
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        return ("[" + inner + ("," + inner).join([_encode(v, inner) for v in x])
                + newline + "]")
    if isinstance(x, dict):
        if not x:
            return "{}"
        return "{" + inner + ("," + inner).join([
            (encode_basestring_ascii(k) if isinstance(k, str) else _key_text(k))
            + ": " + _encode(x[k], inner) for k in sorted(x)]) + newline + "}"
    raise TypeError(f"Object of type {x.__class__.__name__} "
                    f"is not JSON serializable")


def _json_text(x) -> str:
    """``json.dumps(x, indent=2, sort_keys=True) + "\\n"``, byte for byte."""
    return _encode(x, "\n") + "\n"


def emit_json(report: ResidualReport) -> str:
    return _json_text(report.to_dict())


def emit_csv(report: ResidualReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["scenario", "check", "anchor", "max_residual",
                     "tolerance", "verdict", "points_evaluated"])
    name = report.scenario.get("name", "")
    for c in report.checks:
        writer.writerow([name, c.name, c.anchor, repr(c.max_residual),
                         repr(c.tolerance), c.verdict, c.points_evaluated])
    return buf.getvalue()


def emit_text(report: ResidualReport) -> str:
    lines = []
    sc = report.scenario
    lines.append(f"scenario {sc.get('name')}  c1={sc.get('c1')} "
                 f"c2={sc.get('c2')}  hypersurface="
                 f"{sc.get('hypersurface', {}).get('kind')}  "
                 f"samples={sc.get('samples')} seed={sc.get('seed')}")
    for w in report.warnings:
        lines.append(f"  warning: {w}")
    for c in report.checks:
        mark = {"pass": "ok", "fail": "FAIL"}[c.verdict]
        lines.append(f"  [{mark:4s}] {c.name:34s} max={c.max_residual:.3e} "
                     f"tol={c.tolerance:.1e} pts={c.points_evaluated}")
        if c.verdict == "fail":
            lines.append(f"         anchor: {c.anchor}")
        if c.notes:
            lines.append(f"         notes: {json.dumps(c.notes, sort_keys=True)}")
    lines.append(f"overall: {report.overall_verdict}  "
                 f"({report.runtime_seconds:.2f} s)")
    return "\n".join(lines) + "\n"


def emit(report: ResidualReport, fmt: str) -> str:
    if fmt == "json":
        return emit_json(report)
    if fmt == "csv":
        return emit_csv(report)
    if fmt == "text":
        return emit_text(report)
    raise ScenarioError(f"unknown format {fmt!r}")
