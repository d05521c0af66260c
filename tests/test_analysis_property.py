"""Property sweep: the static analyzers agree with the saver, config-wide.

The layout linter re-derives every rank's expected checkpoint contents
symbolically; the saver materializes them.  Sweeping a seeded sample of
(model, tp, pp, dp, sp, zero, optimizer-layout) configurations and
asserting the two agree file-for-file is the strongest evidence that
the linter's model of the layout is the layout.

The byte-provenance checker makes a stronger claim — every data byte of
every saved checkpoint has exactly one non-padding source — so the same
sweep (which includes MoE expert-parallel and sequence-parallel points)
must also prove it, from headers alone, and the interchange sweep must
prove target coverage for reconfigurations the engine itself performs.
"""

from __future__ import annotations

import itertools
import random

from tests.helpers import make_engine
from repro.analysis import (
    analyze_interchange,
    analyze_source,
    expected_tag_basenames,
    lint_checkpoint,
)
from repro.ckpt import naming
from repro.ckpt.loader import read_job_config
from repro.ckpt.saver import save_distributed_checkpoint
from repro.core.convert import ucp_convert
from repro.dist.topology import ParallelConfig
from repro.models import get_config
from repro.storage.store import ObjectStore

MIN_CONFIGS = 50
MAX_WORLD = 16  # keeps the sweep fast while still exercising 3D layouts


def _candidate_configs():
    """Every valid sweep point, deterministically ordered."""
    candidates = []
    for model, tp, pp, dp, sp, zero in itertools.product(
        ("gpt3-mini", "llama-mini", "bloom-mini", "moe-mini"),
        (1, 2, 4),
        (1, 2, 4),
        (1, 2, 4),  # must divide the default global batch of 4
        (1, 2),
        (0, 1, 2, 3),
    ):
        if zero == 3 and (tp > 1 or pp > 1):
            continue  # unsupported composition (matches ParallelConfig)
        if tp * pp * dp * sp > MAX_WORLD:
            continue
        ep = model == "moe-mini" and tp > 1 and zero < 3
        # per_param (Megatron-classic, unpartitioned) only exists at zero0
        use_per_param = zero == 0 and (tp + pp + dp + sp) % 3 == 0
        optimizer_layout = "per_param" if use_per_param else "flat"
        parallel = ParallelConfig(
            tp=tp, pp=pp, dp=dp, sp=sp, zero_stage=zero, expert_parallel=ep
        )
        candidates.append((model, parallel, optimizer_layout))
    return candidates


def test_linter_and_saver_agree_across_seeded_config_sweep(tmp_path):
    candidates = _candidate_configs()
    rng = random.Random(20240805)
    rng.shuffle(candidates)
    sample = candidates[:MIN_CONFIGS]
    assert len(sample) >= MIN_CONFIGS

    for i, (model, parallel, optimizer_layout) in enumerate(sample):
        label = f"{model}/{parallel.describe()}/{optimizer_layout}"
        eng = make_engine(model, parallel=parallel)
        directory = str(tmp_path / f"cfg{i}")
        info = save_distributed_checkpoint(
            eng, directory, optimizer_layout=optimizer_layout
        )

        # atom-for-atom agreement: the file set the linter derives from
        # (ModelConfig, ParallelConfig) alone must equal what the saver
        # actually wrote (the commit manifest records exactly that)
        expected = expected_tag_basenames(
            parallel, eng.layout, optimizer_layout=optimizer_layout
        )
        store = ObjectStore(directory)
        manifest = store.load(f"{info.tag}/{naming.MANIFEST_FILE}")
        actual = set(manifest["files"])
        assert expected == actual, (
            f"{label}: linter expected {sorted(expected ^ actual)} "
            f"to differ from the saved file set"
        )

        report = lint_checkpoint(directory, store=store)
        assert report.ok, f"{label}:\n{report.render_text()}"

        # the stronger theorem: every data byte of this checkpoint has
        # exactly one non-padding source, proven from headers alone
        payload_read = store.bytes_read
        provenance = analyze_source(
            store, info.tag, get_config(model), parallel,
            optimizer_layout=optimizer_layout,
        ).report
        assert provenance.ok, f"{label}:\n{provenance.render_text()}"
        assert store.bytes_read - payload_read < 512 * 1024, (
            f"{label}: provenance read {store.bytes_read - payload_read} "
            f"bytes — header-only contract broken"
        )


# interchange pairs the engine itself performs in the resume tests,
# deliberately spanning MoE expert-parallel and sequence-parallel points
INTERCHANGE_PAIRS = [
    ("gpt3-mini",
     ParallelConfig(tp=2, pp=1, dp=2, sp=1, zero_stage=1),
     ParallelConfig(tp=1, pp=2, dp=2, sp=1, zero_stage=2)),
    ("gpt3-mini",
     ParallelConfig(tp=2, pp=1, dp=1, sp=2, zero_stage=1),
     ParallelConfig(tp=1, pp=1, dp=4, sp=1, zero_stage=1)),
    ("gpt3-mini",
     ParallelConfig(tp=1, pp=1, dp=2, sp=1, zero_stage=1),
     ParallelConfig(tp=2, pp=1, dp=1, sp=2, zero_stage=0)),
    ("moe-mini",
     ParallelConfig(tp=2, pp=1, dp=2, sp=1, zero_stage=1,
                    expert_parallel=True),
     ParallelConfig(tp=1, pp=2, dp=2, sp=1, zero_stage=1)),
    ("moe-mini",
     ParallelConfig(tp=1, pp=2, dp=2, sp=1, zero_stage=2),
     ParallelConfig(tp=2, pp=1, dp=2, sp=1, zero_stage=1,
                    expert_parallel=True)),
    ("llama-mini",
     ParallelConfig(tp=2, pp=2, dp=1, sp=1, zero_stage=1),
     ParallelConfig(tp=1, pp=1, dp=2, sp=2, zero_stage=1)),
]


def test_provenance_proves_every_engine_interchange(tmp_path):
    for i, (model, source, target) in enumerate(INTERCHANGE_PAIRS):
        label = f"{model}: {source.describe()} -> {target.describe()}"
        eng = make_engine(model, parallel=source)
        eng.train(1)
        directory = str(tmp_path / f"pair{i}")
        save_distributed_checkpoint(eng, directory)

        analysis = analyze_interchange(directory, target)
        assert analysis.report.ok, (
            f"{label}:\n{analysis.report.render_text()}"
        )

        # and the engine really performs this interchange: converting
        # and loading on the target topology goes through exactly the
        # dataflow the checker just proved byte-covered
        ucp = str(tmp_path / f"pair{i}-ucp")
        ucp_convert(directory, ucp)
        resumed = make_engine(model, parallel=target)
        resumed.load_universal(ucp)
        job = read_job_config(directory, None)
        assert job["iteration"] == resumed.iteration
