"""Universal Checkpointing (UCP) — the paper's contribution.

The flow (paper Figs 2-4):

1. A training run saves ordinary *distributed* checkpoints
   (:mod:`repro.ckpt`) — UCP adds zero save-time cost.
2. When the parallelism strategy or hardware changes, the **UCP
   language** (:mod:`repro.core.language`) identifies each parameter's
   pattern and the converter (:mod:`repro.core.convert`, Algorithm 1)
   runs Extract / Union / StripPadding to produce **atom checkpoints**
   (:mod:`repro.core.atom`) — one consolidated fp32 weight + Adam
   moments per parameter.
3. ``GenUcpMetadata`` lowers the *target* partitions into one load plan
   and ``Load`` streams atoms into each new rank's flat buffers
   (:mod:`repro.core.loader`).

High-level entry points live in :mod:`repro.core.resume`.
"""

from repro.core.errors import (
    AtomMissingError,
    PatternMatchError,
    UCPError,
    UCPFormatError,
    UCPIncompatibleError,
)
from repro.core.atom import AtomCheckpoint, AtomStore, STATE_KINDS
from repro.core.patterns import PatternProgram, PatternRule, program_for_config
from repro.core.metadata import UCPMetadata
from repro.core.ops import (
    ParamFragment,
    LoadPlan,
    extract,
    gen_ucp_metadata,
    load,
    strip_padding,
    union,
)
from repro.core.convert import ConversionReport, ucp_convert
from repro.core.loader import load_ucp_into_engine
from repro.core.resume import ElasticResumeManager, resume_training
from repro.core.adapters import (
    ADAPTERS,
    FrameworkAdapter,
    available_adapters,
    export_weights,
    import_foreign_state,
)
from repro.core.inspect import inspect_directory, verify_directory

__all__ = [
    "UCPError",
    "PatternMatchError",
    "AtomMissingError",
    "UCPFormatError",
    "UCPIncompatibleError",
    "AtomCheckpoint",
    "AtomStore",
    "STATE_KINDS",
    "PatternProgram",
    "PatternRule",
    "program_for_config",
    "UCPMetadata",
    "ParamFragment",
    "LoadPlan",
    "extract",
    "union",
    "strip_padding",
    "gen_ucp_metadata",
    "load",
    "ConversionReport",
    "ucp_convert",
    "load_ucp_into_engine",
    "ElasticResumeManager",
    "resume_training",
    "ADAPTERS",
    "FrameworkAdapter",
    "available_adapters",
    "export_weights",
    "import_foreign_state",
    "inspect_directory",
    "verify_directory",
]
