"""Shared fixtures: tiny datasets, random embedding batches, and a gradient
check with one family's gradient corrupted."""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # makes `import oracles` work

from xmml import gradcheck, model
from xmml.losses import EmbeddingSet, LossWeights
from xmml.numerics import derive_rng
from xmml.synthdata import GeneratorConfig, generate_dataset

FIXTURES = Path(__file__).parent / "fixtures"

TINY_GEN = GeneratorConfig(
    n_identities_train=4, n_identities_test=3,
    samples_per_identity_per_modality=2,
    d_id=6, d_view=2, d_conflict=2, seed=0)


@pytest.fixture(scope="session")
def tiny_bundle():
    """4+3 identities, 2 samples each per modality, 10-dim features."""
    return generate_dataset(TINY_GEN)


@pytest.fixture(scope="session")
def default_bundle():
    """The full default generator output (32+16 identities)."""
    return generate_dataset(GeneratorConfig())


@pytest.fixture
def inter_overflow_init(monkeypatch):
    """Patches `model.init_params` so that, after the usual draw, stem_r.w
    is scaled by 1e-3 and stem_r.b set to |b| * 1e162. Every R embedding is
    then huge but finite: for the default TrainConfig on the default data,
    intra_mean is 0.0459 while the inter-modality squared distances
    overflow, so inter_mean and gap_ratio are inf."""
    init_params = model.init_params

    def overflowing(cfg):
        store = init_params(cfg)
        store.value("stem_r.w")[...] *= 1e-3
        bias = store.value("stem_r.b")
        bias[...] = np.abs(bias) * 1e162
        return store
    monkeypatch.setattr(model, "init_params", overflowing)


def random_embedding_set(n: int, d: int, seed: int, n_labels: int | None = None
                         ) -> EmbeddingSet:
    rng = derive_rng(seed, "test-emb")
    if n_labels is None:
        n_labels = max(1, n // 2)
    labels = np.arange(n) % n_labels
    return EmbeddingSet(np.stack([rng.standard_normal((n, d)) for _ in range(4)]), labels)


def embedding_set(f_v, f_r, t_v, t_r, labels) -> EmbeddingSet:
    """An EmbeddingSet from its four blocks, given by name."""
    return EmbeddingSet(np.stack([np.asarray(b, dtype=np.float64)
                                  for b in (f_v, f_r, t_v, t_r)]), labels)


@pytest.fixture
def emb_4x3() -> EmbeddingSet:
    """4 rows, 3 dims, labels [0,1,0,1]."""
    return random_embedding_set(4, 3, seed=7, n_labels=2)


@pytest.fixture
def default_weights() -> LossWeights:
    return LossWeights()


@pytest.fixture
def corrupt_gradcheck(monkeypatch):
    """`corrupt(family)` patches `gradcheck.build_case` so that the family's
    analytic gradient is off by 1e-2 in its first entry; its check must fail."""
    def corrupt(family: str) -> None:
        build_case = gradcheck.build_case

        def corrupted_build_case(name, *args, **kwargs):
            evaluate, store = build_case(name, *args, **kwargs)
            if name != family:
                return evaluate, store
            first = store.names()[0]

            def corrupted(s, need_grad):
                val = evaluate(s, need_grad)
                if need_grad:
                    s.grad(first).reshape(-1)[0] += 1e-2
                return val
            return corrupted, store
        monkeypatch.setattr(gradcheck, "build_case", corrupted_build_case)
    return corrupt
