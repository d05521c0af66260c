"""Static analysis over checkpoint layouts and conversion plans.

A leaf: nothing outside it (bar ``repro.cli``) imports it.  What the
production path runs lives in the layer that runs it — the diagnostic
types in :mod:`repro.core.diagnostics`, the conversion and replan
pre-flight (``preflight_convert``, ``lint_plan``) in
:mod:`repro.core.plan`, the loss-continuity check in
:mod:`repro.dist.continuity` — and is re-exported here.  Two analyzers,
neither of which ever materializes a tensor:

- :mod:`~repro.analysis.layout_lint` — diff a tag's commit manifest
  against the disk, then run the conversion's own header pass and
  pre-flight over it: each rank file's header against the layout its
  configs derive (the check the strict loader also runs) and the
  byte-provenance proof (``repro lint-ckpt``).
- :mod:`~repro.analysis.provenance` — a symbolic shadow interpreter
  that executes a conversion plan over byte *intervals*: every target
  data byte must come from exactly one real (non-padding) source byte
  (``repro lint-plan --provenance`` and the conversion pre-flight).

The runtime witnesses below never reach into the code they watch: the
byte-moving layers name *events* on the one hook slot (:mod:`repro.obs`)
and a witness's activation context subscribes it there.

No checker reads the *code* itself: plain tests pin what the retired
source lint guessed at from syntax — byte-identical output under any
hash seed and worker count, decoded and extracted arrays that own
their memory, no mutable default argument (SRC002-SRC004, reserved) —
and every collective hands each rank a private result (UCP025,
reserved).

And one for the *concurrency* side (the threaded IO layer):

- :mod:`~repro.analysis.interleave` — the schedule explorer over the
  instrumented locks (:class:`repro.obs.WitnessedLock`) and guarded
  accesses: output divergence (UCP036), deadlocks (UCP037) and
  unsynchronized access pairs (UCP038) on every explored schedule of
  the real threaded code (``repro explore``).  It is the one
  concurrency checker; there is no static lock lint.

And one for the *crash-consistency* side (the commit protocol):

- :mod:`~repro.analysis.fswitness` — an FS-op recorder over every
  store file effect (:func:`~repro.analysis.fswitness.fstrace`) and an
  ALICE-style crash-state enumerator that checks every post-crash disk
  state recovery can tell apart by its store root's contract
  (UCP032-UCP035, ``repro lint-trace``).

All findings carry stable rule IDs (``UCP001``...); see
``docs/ANALYSIS.md`` for the catalogue.
"""

from repro.analysis.layout_lint import crosscheck_manifest, lint_checkpoint
from repro.analysis.provenance import (
    ProvenanceAnalysis,
    analyze_interchange,
    analyze_source,
    analyze_ucp_source,
    check_target_provenance,
)
from repro.analysis.fswitness import (
    CrashState,
    FSOp,
    FSOpRecorder,
    TraceFormatError,
    check_fs_trace,
    enumerate_crash_states,
    fstrace,
)
from repro.core.diagnostics import (
    RULES,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Diagnostic,
    LayoutLintError,
    LintReport,
    error,
    warning,
)
from repro.core.plan import (
    config_diagnostics,
    expected_tag_basenames,
    lint_plan,
    preflight_convert,
)
from repro.dist.continuity import (
    PAPER_LOSS_BAND,
    ContinuityError,
    ContinuityReport,
    assert_loss_continuity,
    check_loss_continuity,
)

__all__ = [
    "PAPER_LOSS_BAND",
    "RULES",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "ContinuityError",
    "ContinuityReport",
    "CrashState",
    "FSOp",
    "FSOpRecorder",
    "assert_loss_continuity",
    "check_loss_continuity",
    "Diagnostic",
    "LayoutLintError",
    "LintReport",
    "ProvenanceAnalysis",
    "TraceFormatError",
    "analyze_interchange",
    "analyze_source",
    "analyze_ucp_source",
    "check_fs_trace",
    "check_target_provenance",
    "config_diagnostics",
    "crosscheck_manifest",
    "enumerate_crash_states",
    "error",
    "expected_tag_basenames",
    "fstrace",
    "lint_checkpoint",
    "lint_plan",
    "preflight_convert",
    "warning",
]
