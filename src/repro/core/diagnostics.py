"""Structured diagnostics: the one finding vocabulary of every check.

The conversion pre-flight (:mod:`repro.core.plan`), the layout's tiling
proof (:mod:`repro.parallel.layout`) and every ``repro lint-*`` /
``repro explore`` checker report through the same three types: a
:class:`Diagnostic` (one finding, carrying a stable rule ID), a
:class:`LintReport` (an ordered collection with text/JSON rendering),
and :class:`LayoutLintError` (the typed exception raised when a caller
needs a hard failure — e.g. ``ucp_convert``'s mandatory pre-flight).
Only the standard library and :mod:`repro.core.errors` are imported, so
production code carries these types without loading a checker.

Rule IDs are part of the tool's contract: scripts and CI gates key off
them, so an ID is never renumbered or reused.  The catalogue lives in
:data:`RULES`; ``docs/ANALYSIS.md`` documents the rationale per rule.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.errors import UCPFormatError

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

RULES: Dict[str, str] = {
    "UCP001": "missing-atom",
    "UCP002": "unknown-atom",
    "UCP003": "padding-mismatch",
    "UCP004": "shard-shape-mismatch",
    "UCP005": "overlapping-partition-slices",
    "UCP006": "partition-gap",
    "UCP007": "fragment-indivisible",
    "UCP008": "missing-rank-file",
    "UCP009": "unknown-rank-file",
    "UCP010": "manifest-mismatch",
    "UCP011": "flat-extent-mismatch",
    "UCP012": "expert-count-mismatch",
    "UCP013": "config-mismatch",
    # the collective-trace analyzer, retired: the simulator runs every
    # collective group-wide, and the collectives refuse members whose
    # shapes or dtypes differ; UCP014/UCP023/UCP024 stay reserved
    "UCP014": "collective-order-mismatch",
    "UCP015": "cross-rank-divergence",
    "UCP016": "uncommitted-tag",
    "UCP017": "provenance-gap",
    "UCP018": "provenance-overlap",
    "UCP019": "padding-leak",
    "UCP020": "provenance-dtype-mismatch",
    # retired with the header-driven source composition: the header
    # check refuses a segment or flat array the layout does not derive
    # (UCP004 / UCP011) before any row is read; the ID stays reserved
    "UCP021": "fragment-out-of-bounds",
    "UCP022": "provenance-unverifiable",
    "UCP023": "collective-deadlock",
    "UCP024": "collective-arg-mismatch",
    # the runtime memory sanitizer, retired: every collective hands each
    # rank a private result and plain tests pin it per op, and after
    # build, training and every restart path; the ID stays reserved
    "UCP025": "cross-rank-writable-aliasing",
    # the snapshot/replica sanitizer boundary, retired with the
    # CheckFreq/Gemini baselines; the ID stays reserved
    "UCP026": "snapshot-aliases-live-state",
    # retired in PR 22 (no registrant since PR 14); the IDs stay reserved
    "UCP027": "cache-return-mutation",
    "UCP028": "loaded-param-aliases-cache",
    # the runtime lock witness, retired: lock order is UCP037, guarded
    # access UCP038
    "UCP029": "lock-order-cycle",
    "UCP030": "unguarded-state-access",
    "UCP031": "lock-held-across-blocking-io",
    "UCP032": "publish-observed-before-durable",
    "UCP033": "crash-state-recovery-failure",
    "UCP034": "tmp-leaked-after-clean-exit",
    "UCP035": "crash-enumeration-bounded",
    "UCP036": "schedule-dependent-divergence",
    "UCP037": "deadlock-schedule",
    "UCP038": "unsynchronized-access-pair",
    "UCP039": "bounded-exploration",
    # retired with the memory sanitizer, like UCP025: the per-op
    # isolation tests pin what it guessed at; the ID stays reserved
    "SRC001": "collective-result-no-copy",
    # retired with the AST source lint: plain tests of the program's
    # outputs pin each property (decoded and extracted arrays own their
    # memory; byte-identical output under any hash seed; no mutable
    # default argument); the IDs stay reserved
    "SRC002": "frombuffer-escape",
    "SRC003": "unordered-set-iteration",
    "SRC004": "mutable-default-argument",
    # the static lock-discipline lint, retired: the schedule explorer
    # (UCP036-UCP038) checks the threaded code; the IDs stay reserved
    "SRC005": "guarded-attr-outside-lock",
    "SRC006": "inconsistent-lock-order",
    "SRC007": "blocking-call-under-lock",
    "SRC008": "guarded-container-escape",
    # the static crash-consistency lint, retired: CommitGroup.publish is
    # the one publish site and the runtime checks own each finding
    "SRC009": "publish-without-durable-temp",
    "SRC010": "missing-dir-fsync-after-publish",
    "SRC011": "temp-file-leak-on-exception",
    "SRC012": "commit-order-violation",
    # retired with the static lock-discipline lint, like SRC005-SRC008
    "SRC013": "check-then-act-on-guarded-state",
    "SRC014": "compound-op-spans-critical-sections",
}
"""Stable rule ID -> short kebab-case name.  Append-only.

``UCP0xx`` rules are produced by the checkpoint/runtime analyzers.
``SRC0xx`` rules belonged to the retired source lints; every one is
reserved, and no analyzer produces it.
"""


@dataclasses.dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    Attributes:
        rule_id: stable ID from :data:`RULES` (e.g. ``"UCP001"``).
        severity: ``"error"`` or ``"warning"``.
        message: human-readable description of the finding.
        location: what the finding is anchored to — a store-relative
            file path, a parameter name, or a rank/group label.
    """

    rule_id: str
    severity: str
    message: str
    location: str = ""

    def __post_init__(self) -> None:
        if self.rule_id not in RULES:
            raise ValueError(f"unknown rule id {self.rule_id!r}")
        if self.severity not in (SEVERITY_ERROR, SEVERITY_WARNING):
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def rule_name(self) -> str:
        """The rule's kebab-case name (e.g. ``missing-atom``)."""
        return RULES[self.rule_id]

    @property
    def sort_key(self) -> Tuple[str, str, str, str]:
        """Total order over findings: (rule, location, severity, message).

        The location string embeds rank/file/tensor identity, so sorting
        on this key makes report output independent of the traversal
        order that produced the findings — the contract behind
        byte-identical ``--format json`` output across runs.
        """
        return (self.rule_id, self.location, self.severity, self.message)

    def render(self) -> str:
        """One-line text form, e.g. ``error UCP001 [missing-atom] ...``."""
        where = f" at {self.location}" if self.location else ""
        return (
            f"{self.severity} {self.rule_id} [{self.rule_name}]"
            f"{where}: {self.message}"
        )

    def to_dict(self) -> Dict:
        """JSON-friendly form (used by ``--format json`` and CI gates)."""
        return {
            "rule_id": self.rule_id,
            "rule_name": self.rule_name,
            "severity": self.severity,
            "message": self.message,
            "location": self.location,
        }


def error(rule_id: str, message: str, location: str = "") -> Diagnostic:
    """Shorthand for an error-severity diagnostic."""
    return Diagnostic(rule_id, SEVERITY_ERROR, message, location)


def warning(rule_id: str, message: str, location: str = "") -> Diagnostic:
    """Shorthand for a warning-severity diagnostic."""
    return Diagnostic(rule_id, SEVERITY_WARNING, message, location)


class LintReport:
    """An ordered collection of diagnostics from one analysis run."""

    def __init__(
        self,
        subject: str = "",
        diagnostics: Optional[Iterable[Diagnostic]] = None,
    ) -> None:
        self.subject = subject
        self.diagnostics: List[Diagnostic] = list(diagnostics or [])

    def add(self, diagnostic: Diagnostic) -> None:
        """Append one finding."""
        self.diagnostics.append(diagnostic)

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        """Append several findings."""
        self.diagnostics.extend(diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        """Error-severity findings only."""
        return [d for d in self.diagnostics if d.severity == SEVERITY_ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        """Warning-severity findings only."""
        return [d for d in self.diagnostics if d.severity == SEVERITY_WARNING]

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was reported."""
        return not self.errors

    def rule_ids(self) -> List[str]:
        """Distinct rule IDs reported, sorted."""
        return sorted({d.rule_id for d in self.diagnostics})

    def by_rule(self, rule_id: str) -> List[Diagnostic]:
        """All findings for one rule ID."""
        return [d for d in self.diagnostics if d.rule_id == rule_id]

    def sorted_diagnostics(self) -> List[Diagnostic]:
        """Findings in canonical order (:attr:`Diagnostic.sort_key`).

        Every rendering (text and JSON) goes through this, so two runs
        that produce the same finding *set* produce byte-identical
        output regardless of hash seeds or traversal order.  The sort
        is stable, so findings sharing a key keep insertion order.
        """
        return sorted(self.diagnostics, key=lambda d: d.sort_key)

    def summary(self) -> str:
        """One-line outcome, e.g. ``2 errors, 1 warning``."""
        n_err, n_warn = len(self.errors), len(self.warnings)
        if not n_err and not n_warn:
            return "clean"
        parts = []
        if n_err:
            parts.append(f"{n_err} error{'s' if n_err != 1 else ''}")
        if n_warn:
            parts.append(f"{n_warn} warning{'s' if n_warn != 1 else ''}")
        return ", ".join(parts)

    def render_text(self) -> str:
        """Multi-line human-readable rendering."""
        lines = []
        head = f"lint {self.subject}: " if self.subject else "lint: "
        lines.append(head + self.summary())
        for diag in self.sorted_diagnostics():
            lines.append(f"  {diag.render()}")
        return "\n".join(lines)

    def to_dict(self) -> Dict:
        """JSON-friendly form."""
        return {
            "subject": self.subject,
            "ok": self.ok,
            "num_errors": len(self.errors),
            "num_warnings": len(self.warnings),
            "diagnostics": [d.to_dict() for d in self.sorted_diagnostics()],
        }

    def to_json(self) -> str:
        """Stable JSON rendering (for ``--format json`` and CI)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def raise_if_errors(self) -> "LintReport":
        """Raise :class:`LayoutLintError` when any error was found."""
        if self.errors:
            raise LayoutLintError(self)
        return self


class LayoutLintError(UCPFormatError):
    """A static layout check found error-severity diagnostics.

    Subclasses :class:`~repro.core.errors.UCPFormatError` so existing
    callers that treat "semantically inconsistent checkpoint" as one
    failure class keep working; the attached :class:`LintReport`
    preserves the individual findings and their rule IDs.
    """

    def __init__(self, report: LintReport, prefix: str = "") -> None:
        self.report = report
        errors = [
            d for d in report.sorted_diagnostics()
            if d.severity == SEVERITY_ERROR
        ]
        shown = "; ".join(d.render() for d in errors[:3])
        more = f" (+{len(errors) - 3} more)" if len(errors) > 3 else ""
        subject = f" {report.subject}" if report.subject else ""
        lead = prefix if prefix else f"layout lint failed for{subject}"
        super().__init__(f"{lead}: {shown}{more}")
