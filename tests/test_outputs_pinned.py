"""Pinned outputs: the sha256 of the augmented model and of the cut pool of
every benchmark shape, and of the cut pool that the time-limit pass-through
exports after each stage.

A binding extension budget is pinned too: its outputs, like every other,
must not depend on the thread count.

A refactor must keep every output byte for byte, so these digests do not
change with the code. A binding limit (the extension budget, the pair cap,
down-sampling) also depends on the seeded order of `parallel._mix`, so a
change to that order changes the digests of the outputs it binds, and only
those. The digests also change when the generated input does, which happens
when NumPy's random generator changes the stream `gen.py` draws from; the
input digest is pinned too, and a test skips, saying so, only when it
differs.
"""
import hashlib
import os
import sys
import time
import weakref
from types import SimpleNamespace

import pytest

from cgcuts import cliques, extend, graph, merge, model_io, parallel, pipeline
from cgcuts.model_io import TAGS, export_cut_pool, parse_mps, write_augmented_mps
from conftest import signature

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))

import gen  # noqa: E402

SCALE = 0.2
SEED = 7

#: Per shape: the generated input, then (augmented model, cut pool).
PINNED = {
    "general-int": (
        "89fb5c90e2f382d9092360e3708cb85ea5f96a7e7c10fc7796540e23f53bca19",
        "296e2ac7411e917ff083226243009c1d3888c4fb7a18bbf3a9b4e79d0bdefdf1",
        "7951813b68e9cd4f2d361ce5f5ec502573222e2dbe499abaf268cb5012655e9b",
    ),
    "knapsack-wide": (
        "9f51e920c4937288ddd3c0ee724e6ad728cde79e5cd96e7319ce9904521b364a",
        "069f51044f7cc02d5f444d40209b139ac2b609c3c9cdc8bf10230833d116fc36",
        "b27867c5c8b12c260271b2243c87822812512c55973f19c144c9d6e8c2c30369",
    ),
    "mixed-short": (
        "a829d034e75a1280d4ba2f1c5f16e97a0b60f5f48bd4de6b2b5931df2b385f05",
        "39143bcf9bdde43bbc3458f6e1ba581fe806cae8d6a5f1367165b24d4e8e06f3",
        "ecc2e9b5bb22f5f833bbccf1e8f96726784993cafc863fba8d42c0da55139fcc",
    ),
}

#: Per shape, (augmented model, cut pool) with an extension budget of 100
#: touches, which binds on every shape.
BUDGET = pipeline.Limits(per_thread_ext_nnz=100)
PINNED_BUDGET = {
    "general-int": (
        "296e2ac7411e917ff083226243009c1d3888c4fb7a18bbf3a9b4e79d0bdefdf1",
        "7951813b68e9cd4f2d361ce5f5ec502573222e2dbe499abaf268cb5012655e9b",
    ),
    "knapsack-wide": (
        "b4c9a3995967fe71ebc80cf3690751dfb6d7daa63c3b5ed8d1cd559eb6f4ac43",
        "9d2756789e7eb1bb6a55dcbd6df9373a2318b64599c064fb484b3016be3e7289",
    ),
    "mixed-short": (
        "d0c0ae75a83b6544663b3fb5e708338a61fe353cdc49d5ad65101b1b401d633c",
        "3ee55210dd8f93a4bd64ea72ed134ef43c8c722b98d6d45b7408fe82252e817b",
    ),
}

#: Per shape, the cut pool exported when the deadline fires at its 2nd, 3rd,
#: 4th and 5th check: after clique detect, graph build, extension and merge.
PINNED_PASSTHROUGH = {
    "general-int": (
        "d72b2b5e32fd88fc305b13eaf63e2a6d08ad8e92173359abbf55366966c8fd90",
        "d72b2b5e32fd88fc305b13eaf63e2a6d08ad8e92173359abbf55366966c8fd90",
        "1f0d65cc50d7b383d30b1865799ba08401796896e5c090104819da5f9a20d744",
        "1f0d65cc50d7b383d30b1865799ba08401796896e5c090104819da5f9a20d744",
    ),
    "knapsack-wide": (
        "18c12d4b2fd41e894ac01163348776aa5309e457f27448a69efe931a91bb8e19",
        "18c12d4b2fd41e894ac01163348776aa5309e457f27448a69efe931a91bb8e19",
        "ce6a3d6fc4a0514ba4c4a73434eddf9951b24153176fab2d7b8afa9d1c5337d4",
        "ce6a3d6fc4a0514ba4c4a73434eddf9951b24153176fab2d7b8afa9d1c5337d4",
    ),
    "mixed-short": (
        "6c40ef0a234a432033d006b466b3d442b009e226f63b05dab9bf6a7826b523fc",
        "6c40ef0a234a432033d006b466b3d442b009e226f63b05dab9bf6a7826b523fc",
        "7ac05eb81b3815efecb3d2a6c20197a24b855a16bd3e178dfc8e51a94f9fb5a7",
        "ce90d0fed92bab4717b1db9cac302b07e7ed640af8a4dc5e82f90eeed3244f3a",
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _input(shape: str) -> str:
    """The generated model text; skips when it is not the pinned input."""
    text = gen.generate(shape, SEED, SCALE).mps
    if _sha(text) != PINNED[shape][0]:
        pytest.skip(f"{shape}: the generated input differs from the pinned one "
                    "(NumPy's random stream changed), so its outputs cannot be compared")
    return text


def test_every_shape_is_pinned():
    assert set(PINNED) == set(gen.SHAPES) == set(PINNED_PASSTHROUGH) == set(PINNED_BUDGET)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("shape", sorted(gen.SHAPES))
def test_outputs_match_pinned_digests(shape, k):
    base, pool, _, _ = pipeline.run_pipeline_model(parse_mps(_input(shape)), k=k)
    assert (_sha(write_augmented_mps(base, pool)), _sha(export_cut_pool(pool))) \
        == PINNED[shape][1:]


@pytest.mark.parametrize("k", [1, 2, 4])
@pytest.mark.parametrize("shape", sorted(gen.SHAPES))
def test_binding_budget_outputs_match_pinned_digests(shape, k):
    base, pool, _, stats = pipeline.run_pipeline_model(parse_mps(_input(shape)),
                                                       limits=BUDGET, k=k)
    assert stats.flags["extension_budget_hit"]
    assert (_sha(write_augmented_mps(base, pool)), _sha(export_cut_pool(pool))) \
        == PINNED_BUDGET[shape]


@pytest.mark.parametrize("shape", sorted(gen.SHAPES))
def test_blocks_are_clamped_to_what_can_run_at_once(monkeypatch, shape):
    # On two cores k = 8 runs as k = 2: the pool's one worker and this
    # process. The spy runs the blocks here, so no pool is forked.
    monkeypatch.setattr(parallel, "available_cores", lambda: 2)
    blocks = []

    def spy(fn, args, k):
        blocks.append(len(args))
        return [fn(a) for a in args]

    for mod in (cliques, graph, extend, merge):
        monkeypatch.setattr(mod, "map_blocks", spy)
    base, pool, _, stats = pipeline.run_pipeline_model(parse_mps(_input(shape)), k=8)
    assert (_sha(write_augmented_mps(base, pool)), _sha(export_cut_pool(pool))) \
        == PINNED[shape][1:]
    assert stats.threads == 2 and blocks == [2, 2, 2, 2]


def _expire_at(monkeypatch, check):
    """Make the pipeline's `check`-th deadline check find the time limit
    passed; returns the list of its clock readings, the first of which
    sets the deadline. Extension and merge read their own clock."""
    calls = []

    def monotonic():
        calls.append(None)
        return time.monotonic() + (1e9 if len(calls) > check else 0.0)

    monkeypatch.setattr(pipeline, "time", SimpleNamespace(
        monotonic=monotonic, perf_counter=time.perf_counter))
    return calls


@pytest.mark.parametrize("check", [2, 3, 4, 5])
@pytest.mark.parametrize("shape", sorted(gen.SHAPES))
def test_time_limit_passthrough_after_each_stage(monkeypatch, shape, check):
    text = _input(shape)
    calls = _expire_at(monkeypatch, check)
    model = parse_mps(text)
    base, pool, plan, stats = pipeline.run_pipeline_model(model, k=1)
    assert len(calls) == 1 + check
    assert stats.flags["time_limit_hit"] and plan is None
    assert base is model
    # The augmented model is the input with no row added, and every pool
    # line is a known tag followed by signed 1-based column indices.
    assert signature(parse_mps(write_augmented_mps(base, pool))) == signature(model)
    cuts = export_cut_pool(pool)
    assert _sha(cuts) == PINNED_PASSTHROUGH[shape][check - 2]
    for line in cuts.splitlines():
        tag, *indices = line.split()
        assert tag in TAGS and len(indices) >= 2
        assert all(0 < abs(int(j)) <= model.num_cols for j in indices)
    tags = {tag for tag, c in stats.tag_counts.items() if c["total"]}
    assert {line.split()[0] for line in cuts.splitlines()} == tags


@pytest.mark.parametrize("shape", sorted(gen.SHAPES))
def test_passthrough_keeps_the_parsed_model_for_emit(tmp_path, monkeypatch, shape):
    # The deadline fires at its 3rd check, after graph build: the file-level
    # run emits the parsed model itself, so it is still alive at emit.
    src = tmp_path / "model.mps"
    src.write_text(_input(shape))
    parsed, alive = [], []
    parse, write = model_io.parse_mps_file, model_io.write_augmented_mps

    def parse_spy(path):
        out = parse(path)
        parsed.append(weakref.ref(out))
        return out

    def write_spy(base, pool):
        alive.append(base is parsed[0]())
        return write(base, pool)

    _expire_at(monkeypatch, 3)
    monkeypatch.setattr(model_io, "parse_mps_file", parse_spy)
    monkeypatch.setattr(model_io, "write_augmented_mps", write_spy)
    stats = pipeline.run_pipeline(src, out_model=tmp_path / "aug.mps",
                                  out_cuts=tmp_path / "pool.cuts")
    assert stats.flags["time_limit_hit"] and alive == [True]
    assert _sha((tmp_path / "pool.cuts").read_text()) == PINNED_PASSTHROUGH[shape][1]
