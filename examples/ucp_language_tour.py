"""A tour of the UCP language: patterns, sub-patterns, and operations.

Walks through the paper's §3.2 machinery on concrete tensors:

* the four parameter patterns of Table 1;
* the Fig 5 sub-patterns — variable-size fused QKV (GQA) and 3-dim
  expert tensors (MoE);
* the Table 2 operations — Extract, Union, StripPadding,
  GenUcpMetadata, Load — run by hand on a toy checkpoint;
* writing a custom PatternProgram rule.

Run:  python examples/ucp_language_tour.py
"""

import tempfile

import numpy as np

from repro import ParallelConfig, PatternProgram, PatternRule, get_config
from repro.core.atom import AtomStore
from repro.core.ops import extract, gen_ucp_metadata, load, strip_padding, union
from repro.core.patterns import program_for_config
from repro.parallel.layout import ModelParallelLayout
from repro.parallel.sharding import FusedSectionsFragment
from repro.parallel.tp import PATTERN_FRAGMENT, PATTERN_TO_AVERAGE
from repro.storage.store import ObjectStore
from repro.parallel.engine import TrainingEngine


def show_patterns() -> None:
    print("== Table 1: the parameter patterns, as a program ==")
    cfg = get_config("llama-mini")
    program = program_for_config(cfg)
    for name in [
        "embedding.weight",
        "blocks.0.attn.qkv.weight",
        "blocks.0.attn.out.weight",
        "blocks.0.norm1.weight",
    ]:
        rule = program.match(name)
        frag = f", sub-pattern {rule.fragmenter.kind}" if rule.fragmenter else ""
        print(f"  {name:32s} -> {rule.pattern}{frag}   ({rule.label})")


def show_gqa_subpattern() -> None:
    print("\n== Fig 5: variable-size fused QKV under GQA, TP=2 ==")
    cfg = get_config("llama-mini")  # 4 q heads, 2 kv heads
    q = cfg.num_heads * cfg.head_dim
    kv = cfg.num_kv_heads * cfg.head_dim
    frag = FusedSectionsFragment(dim=0, section_sizes=(q, kv, kv))
    full = np.arange((q + 2 * kv) * 4, dtype=np.float32).reshape(-1, 4)
    shard0 = frag.shard(full, 2, 0)
    print(f"  fused tensor rows: q={q}, k={kv}, v={kv} (unequal sections)")
    print(f"  rank 0 shard shape: {shard0.shape} "
          f"(half of each section, concatenated)")
    rejoined = frag.join([shard0, frag.shard(full, 2, 1)])
    print(f"  join(shards) == original: {np.array_equal(rejoined, full)}")


def run_operations_by_hand() -> None:
    print("\n== Table 2: Extract / Union / StripPadding / GenUcpMetadata / Load ==")
    with tempfile.TemporaryDirectory() as workdir:
        cfg = get_config("gpt3-mini")
        source = ParallelConfig(tp=2, pp=1, dp=2)
        engine = TrainingEngine(cfg, source, seed=3, global_batch_size=4, seq_len=16)
        engine.train(1)
        engine.save_checkpoint(f"{workdir}/ckpt")

        store = ObjectStore(f"{workdir}/ckpt")
        optim_files = [f for f in store.list() if "optim_states" in f]
        fragments = []
        for rel in optim_files:
            fragments.extend(extract(store.load(rel)))
        print(f"  Extract: {len(optim_files)} rank files -> "
              f"{len(fragments)} parameter-state fragments")

        name = "embedding.weight"
        spec = engine.layout.spec(name)
        mine = [f for f in fragments if f.name == name and f.kind == "fp32"]
        consolidated = union(mine, spec, tp_degree=source.tp)
        print(f"  Union: {len(mine)} fragments of {name!r} -> "
              f"consolidated {consolidated.shape}")

        atom = strip_padding(consolidated, spec)
        print(f"  StripPadding: {consolidated.shape} -> {atom.shape} "
              f"(vocab divisibility padding removed)")

        target = ParallelConfig(tp=1, pp=1, dp=4, zero_stage=2)
        layout = ModelParallelLayout(cfg, target)
        plan = gen_ucp_metadata(layout)
        moves = int(np.sum(plan.target == plan.targets.index((0, 0, 0, 1))))
        print(f"  GenUcpMetadata: target {target.describe()} -> "
              f"{len(plan.targets)} partitions, {plan.length.size} atom -> "
              f"partition moves; partition (mp 0, dp 1) takes {moves}")

        # Load needs actual atoms on disk; make them with the converter
        from repro.core.convert import ucp_convert
        ucp_convert(f"{workdir}/ckpt", f"{workdir}/ucp")
        atom_store = AtomStore(f"{workdir}/ucp")
        partition = load(atom_store, layout, "fp32", 0, 0, 0, 1)
        print(f"  Load: streamed {partition.size} fp32 elements into "
              f"partition (mp 0, dp 1) in layer order")


def write_a_custom_rule() -> None:
    print("\n== Extending the language with a custom rule ==")
    program = PatternProgram([
        PatternRule(r"\.norm\d\.", PATTERN_TO_AVERAGE,
                    label="independently-updated norms (custom SP variant)"),
        PatternRule(r".*", PATTERN_FRAGMENT,
                    fragmenter=FusedSectionsFragment(dim=0, section_sizes=(8, 4, 4)),
                    label="everything else: fused sections"),
    ])
    rule = program.match("blocks.3.norm1.weight")
    print(f"  blocks.3.norm1.weight -> {rule.pattern} ({rule.label})")


def main() -> None:
    show_patterns()
    show_gqa_subpattern()
    run_operations_by_hand()
    write_a_custom_rule()


if __name__ == "__main__":
    main()
