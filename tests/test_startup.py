"""Process start-up: what importing xmml loads, and the heap policy it sets.

Both checks run in a fresh interpreter, so that nothing this test process
imported or allocated before changes what they see.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import xmml


def _run_fresh(code: str) -> str:
    """stdout of `code` run by a new interpreter that imports this xmml."""
    src = str(Path(xmml.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_no_module_imports_scipy():
    # importing scipy.special costs about 0.3 s and 20 MiB per process, and
    # scipy.spatial.distance more: where scipy is needed, import it in the
    # function that calls it
    out = _run_fresh("""
        import json, sys
        import xmml.cli   # imports every module of the package
        print(json.dumps(sorted(m for m in sys.modules
                                if m == "scipy" or m.startswith("scipy."))))
    """)
    assert json.loads(out) == []


@pytest.mark.skipif(not xmml.HEAP_POLICY, reason="no glibc mallopt")
def test_training_steps_do_not_refault_the_heap():
    # without the policy, glibc trims the freed top of the heap after each
    # step and the next step faults it back in: about 133 faults per step
    out = _run_fresh("""
        import resource
        from xmml import model
        from xmml.numerics import derive_seed
        from xmml.synthdata import GeneratorConfig, generate_dataset, sample_batch
        from xmml.trainer import TrainConfig, TrainState, encoder_config_for, lr_at, train_step

        cfg = TrainConfig()
        data = generate_dataset(GeneratorConfig())
        store = model.init_params(encoder_config_for(cfg, data))
        state = TrainState.for_store(store)

        def steps(start, count):
            for step in range(start, start + count):
                batch = sample_batch(data.train, cfg.n_ids_per_batch, cfg.k_per_modality,
                                     derive_seed(cfg.seed, "batch", 0, step))
                train_step(store, batch, cfg.weights, lr_at(0, cfg),
                           derive_seed(cfg.seed, "fuse", 0, step), state)

        steps(0, cfg.batches_per_epoch)   # one warm-up epoch
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        steps(cfg.batches_per_epoch, 100)
        print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    """)
    assert int(out) < 1000
