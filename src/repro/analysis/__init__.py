"""Static analysis over checkpoint layouts and collective schedules.

Four analyzers, none of which ever materializes a tensor:

- :mod:`~repro.analysis.layout_lint` — derive every rank's expected
  checkpoint contents from the configs and diff against a tag's commit
  manifest and rank-file headers (``repro lint-ckpt``).
- :mod:`~repro.analysis.interchange` — prove a source -> target
  reconfiguration well-formed before any IO (``repro lint-plan`` and
  ``ucp_convert``'s mandatory pre-flight).
- :mod:`~repro.analysis.provenance` — a symbolic shadow interpreter
  that executes a conversion plan over byte *intervals*: every target
  data byte must come from exactly one real (non-padding) source byte
  (``repro lint-plan --provenance`` and the conversion pre-flight).
- :mod:`~repro.analysis.collective_trace` — per-group ordering,
  cross-rank argument lint, and a vector-clock happens-before replay
  detecting deadlock cycles and critical-section overlaps over the
  trace a :class:`~repro.analysis.collective_trace.CollectiveTraceRecorder`
  records while subscribed to :mod:`repro.obs` (``repro lint-trace``).

The runtime witnesses below never reach into the code they watch: the
byte-moving layers name *events* on the one hook slot (:mod:`repro.obs`)
and a witness's activation context subscribes it there.

Two enforcement layers guard the *memory* side of the same contracts:

- :mod:`~repro.analysis.sanitizer` — runtime buffer-ownership checks
  at every isolation boundary of the simulated cluster (collectives,
  UCP loads); activate with :func:`~repro.analysis.sanitizer.sanitize` or
  ``REPRO_SANITIZE=1``.
- :mod:`~repro.analysis.srclint` — an AST lint over ``src/repro``
  itself that flags the code patterns *causing* those violations
  (``repro lint-src``).

And two for the *concurrency* side (the threaded IO layer):

- :mod:`~repro.analysis.locks` — the guarded-by/lock-discipline lint
  (SRC005-SRC008), run as part of ``repro lint-src``.
- :mod:`~repro.analysis.interleave` — the schedule explorer over the
  instrumented locks (:class:`repro.obs.WitnessedLock`) and guarded
  accesses: deadlocks (UCP037) and unsynchronized access pairs
  (UCP038) on every explored schedule (``repro explore``).

And one for the *crash-consistency* side (the commit protocol):

- :mod:`~repro.analysis.fswitness` — an FS-op recorder over every
  store file effect plus an ALICE-style crash-state enumerator that
  materializes every legal post-crash disk state of a trace and proves
  recovery from each one (UCP032-UCP035); activate with
  :func:`~repro.analysis.fswitness.fstrace`, replay with
  ``repro lint-trace --fs``.  The protocol it checks has one
  implementation, :class:`~repro.storage.store.CommitGroup`.

All findings carry stable rule IDs (``UCP001``... / ``SRC001``...); see
``docs/ANALYSIS.md`` for the catalogue.
"""

from repro.analysis.continuity import (
    PAPER_LOSS_BAND,
    ContinuityError,
    ContinuityReport,
    assert_loss_continuity,
    check_loss_continuity,
)
from repro.analysis.collective_trace import (
    CollectiveTraceRecorder,
    TraceEvent,
    TraceFormatError,
    check_collective_args,
    check_collective_ordering,
    check_happens_before,
    check_trace,
    numel_class,
    simulate_happens_before,
)
from repro.analysis.diagnostics import (
    RULES,
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    Diagnostic,
    LayoutLintError,
    LintReport,
    error,
    warning,
)
from repro.analysis.interchange import (
    config_diagnostics,
    lint_plan,
    preflight_convert,
)
from repro.analysis.layout_lint import (
    crosscheck_manifest,
    expected_tag_basenames,
    lint_checkpoint,
)
from repro.analysis.provenance import (
    ProvenanceAnalysis,
    analyze_interchange,
    analyze_source,
    analyze_ucp_source,
    check_plan_provenance,
    check_source_provenance,
    check_target_provenance,
)
from repro.analysis.fswitness import (
    CrashState,
    FSOp,
    FSOpRecorder,
    check_fs_trace,
    enumerate_crash_states,
    fstrace,
)
from repro.analysis.sanitizer import (
    MemorySanitizer,
    SanitizerError,
    check_engine_isolation,
    model_param_arrays,
    sanitize,
    zero_state_arrays,
)
from repro.analysis.srclint import lint_source_tree, stale_baseline_entries
from repro.analysis.locks import lint_locks

__all__ = [
    "PAPER_LOSS_BAND",
    "RULES",
    "SEVERITY_ERROR",
    "SEVERITY_WARNING",
    "CollectiveTraceRecorder",
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
    "MemorySanitizer",
    "ProvenanceAnalysis",
    "SanitizerError",
    "TraceEvent",
    "TraceFormatError",
    "analyze_interchange",
    "analyze_source",
    "analyze_ucp_source",
    "check_collective_args",
    "check_collective_ordering",
    "check_engine_isolation",
    "check_fs_trace",
    "check_happens_before",
    "check_plan_provenance",
    "check_source_provenance",
    "check_target_provenance",
    "check_trace",
    "config_diagnostics",
    "crosscheck_manifest",
    "enumerate_crash_states",
    "error",
    "expected_tag_basenames",
    "fstrace",
    "lint_checkpoint",
    "lint_locks",
    "lint_plan",
    "lint_source_tree",
    "model_param_arrays",
    "numel_class",
    "preflight_convert",
    "sanitize",
    "simulate_happens_before",
    "stale_baseline_entries",
    "warning",
    "zero_state_arrays",
]
