"""Tests for atom checkpoints and the UCP pattern language."""

import numpy as np
import pytest

from repro.core.atom import AtomCheckpoint, AtomStore
from repro.core.errors import AtomMissingError, PatternMatchError, UCPFormatError
from repro.core.patterns import PatternProgram, PatternRule, program_for_config
from repro.models import get_config
from repro.parallel.sharding import FusedSectionsFragment, VocabFragment
from repro.parallel.tp import (
    PATTERN_FRAGMENT,
    PATTERN_REPLICATED,
    PATTERN_TO_AVERAGE,
    build_shard_specs,
)


def make_atom(rng, name="layer.weight", shape=(4, 3)):
    return AtomCheckpoint(
        name=name,
        states={
            "fp32": rng.standard_normal(shape).astype(np.float32),
            "exp_avg": rng.standard_normal(shape).astype(np.float32),
            "exp_avg_sq": np.abs(rng.standard_normal(shape)).astype(np.float32),
        },
        spec={"pattern": PATTERN_REPLICATED},
    )


class TestAtomCheckpoint:
    def test_shape_and_bytes(self, rng):
        atom = make_atom(rng)
        assert atom.shape == (4, 3)
        assert atom.nbytes == 3 * 12 * 4

    def test_inconsistent_state_shapes_raise(self, rng):
        with pytest.raises(UCPFormatError, match="disagree"):
            AtomCheckpoint(
                name="x",
                states={
                    "fp32": np.zeros((2, 2), dtype=np.float32),
                    "exp_avg": np.zeros((3,), dtype=np.float32),
                },
                spec={},
            )


class TestAtomStore:
    def test_write_read_round_trip(self, tmp_path, rng):
        store = AtomStore(str(tmp_path))
        atom = make_atom(rng, name="blocks.0.attn.qkv.weight")
        store.write(atom)
        loaded = store.read("blocks.0.attn.qkv.weight")
        for kind in ("fp32", "exp_avg", "exp_avg_sq"):
            assert np.array_equal(loaded.states[kind], atom.states[kind])

    def test_one_file_per_state(self, tmp_path, rng):
        store = AtomStore(str(tmp_path))
        store.write(make_atom(rng, name="p"))
        files = store.store.list("atoms/p")
        assert sorted(f.rsplit("/", 1)[1] for f in files) == [
            "atom_meta.npt", "exp_avg.npt", "exp_avg_sq.npt", "fp32.npt",
        ]

    def test_one_mkdir_per_atom(self, tmp_path, rng, monkeypatch):
        """An atom's four files share a directory: its commit group makes
        sure of it once, not once per file."""
        import os

        store = AtomStore(str(tmp_path))
        store.write(make_atom(rng, name="p"))
        made = []
        real_mkdir = os.mkdir
        monkeypatch.setattr(
            os, "mkdir", lambda path, *a, **k: (made.append(str(path)),
                                               real_mkdir(path, *a, **k))
        )
        store.write(make_atom(rng, name="p"))
        assert made == [str(tmp_path / "atoms" / "p")]

    def test_list_atoms(self, tmp_path, rng):
        store = AtomStore(str(tmp_path))
        store.write(make_atom(rng, name="b.weight"))
        store.write(make_atom(rng, name="a.weight"))
        assert store.list_atoms() == ["a.weight", "b.weight"]

    def test_missing_atom_raises(self, tmp_path):
        store = AtomStore(str(tmp_path))
        with pytest.raises(AtomMissingError):
            store.read_state("ghost", "fp32")
        with pytest.raises(AtomMissingError):
            store.read_meta("ghost")

    def test_has_atom(self, tmp_path, rng):
        store = AtomStore(str(tmp_path))
        assert not store.has_atom("p")
        store.write(make_atom(rng, name="p"))
        assert store.has_atom("p")

    def test_illegal_name_rejected(self, tmp_path):
        store = AtomStore(str(tmp_path))
        with pytest.raises(UCPFormatError, match="illegal"):
            store.read_state("", "fp32")
        with pytest.raises(UCPFormatError, match="illegal"):
            store.read_state("/etc/passwd", "fp32")


class TestPatternRule:
    def test_regex_matching(self):
        rule = PatternRule(r"\.norm\d\.", PATTERN_REPLICATED)
        assert rule.matches("blocks.0.norm1.weight")
        assert not rule.matches("blocks.0.attn.qkv.weight")

    def test_fragment_requires_fragmenter(self):
        with pytest.raises(ValueError, match="needs a fragmenter"):
            PatternRule(r".*", PATTERN_FRAGMENT)

    def test_unknown_pattern_raises(self):
        with pytest.raises(ValueError, match="unknown pattern"):
            PatternRule(r".*", "mystery_params")

    def test_serialization_round_trip(self):
        rule = PatternRule(
            r"\.qkv\.", PATTERN_FRAGMENT,
            FusedSectionsFragment(dim=0, section_sizes=(8, 4, 4)),
            label="qkv",
        )
        clone = PatternRule.from_dict(rule.to_dict())
        assert clone == rule


class TestPatternProgram:
    def test_first_match_wins(self):
        program = PatternProgram([
            PatternRule(r"special", PATTERN_TO_AVERAGE),
            PatternRule(r".*", PATTERN_REPLICATED),
        ])
        assert program.match("special.weight").pattern == PATTERN_TO_AVERAGE
        assert program.match("other.weight").pattern == PATTERN_REPLICATED

    def test_unmatched_raises(self):
        program = PatternProgram([PatternRule(r"^exact$", PATTERN_REPLICATED)])
        with pytest.raises(PatternMatchError, match="no pattern rule"):
            program.match("something.else")

    def test_empty_program_rejected(self):
        with pytest.raises(ValueError, match="at least one rule"):
            PatternProgram([])

    def test_resolve_spec_builds_shapes(self):
        program = PatternProgram([
            PatternRule(r"emb", PATTERN_FRAGMENT, VocabFragment(logical_rows=11)),
        ])
        spec = program.resolve_spec("emb.weight", (16, 4))
        assert spec.logical_shape == (16, 4)
        assert spec.unpadded_shape == (11, 4)  # derived from VocabFragment
        assert spec.has_padding

    def test_serialization_round_trip(self):
        program = program_for_config(get_config("moe-mini"))
        clone = PatternProgram.from_dict(program.to_dict())
        assert [r.to_dict() for r in clone.rules] == [r.to_dict() for r in program.rules]


class TestProgramForConfig:
    @pytest.mark.parametrize(
        "name", ["gpt3-mini", "llama-mini", "bloom-mini", "moe-mini"]
    )
    def test_program_agrees_with_engine_specs(self, name):
        """The declaratively-written program must classify every
        parameter exactly as the engine's sharding rules do."""
        cfg = get_config(name)
        program = program_for_config(cfg)
        for pname, spec in build_shard_specs(cfg).items():
            resolved = program.resolve_spec(
                pname, spec.logical_shape, spec.unpadded_shape
            )
            assert resolved.pattern == spec.pattern, pname
            assert resolved.fragmenter == spec.fragmenter, pname
            assert resolved.unpadded_shape == spec.unpadded_shape, pname

    def test_average_replicas_flag_switches_norms(self):
        cfg = get_config("gpt3-mini")
        program = program_for_config(cfg, average_replicas=True)
        assert program.match("blocks.0.norm1.weight").pattern == PATTERN_TO_AVERAGE
        # non-norm params unchanged
        assert program.match("blocks.0.attn.out.bias").pattern == PATTERN_REPLICATED

    def test_gqa_sections_reflect_head_geometry(self):
        cfg = get_config("llama-mini")  # 4 q heads, 2 kv heads, head_dim 16
        program = program_for_config(cfg)
        rule = program.match("blocks.0.attn.qkv.weight")
        assert rule.fragmenter.section_sizes == (64, 32, 32)
