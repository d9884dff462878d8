"""Gradient-check harness: every loss switch is covered, and the cases that
fuse rows with themselves on purpose stay quiet."""

from __future__ import annotations

import logging

import pytest

from xmml import gradcheck
from xmml.losses import LossWeights

# each switch of the combined objective on its own, then all of them at once
SWITCHES = {
    "label_aware_contrast": LossWeights(label_aware_contrast=True),
    "cross_modal_fusion": LossWeights(cross_modal_fusion=True),
    "no_distill_text": LossWeights(distill_text=False),
    "n_fuse_0": LossWeights(n_fuse=0),
    "n_fuse_3": LossWeights(n_fuse=3),
    "all": LossWeights(label_aware_contrast=True, cross_modal_fusion=True,
                       distill_text=False, n_fuse=3),
}


@pytest.mark.parametrize("switch", SWITCHES)
def test_total_gradient_holds_under_every_loss_switch(switch):
    # one batch of each default size
    summary, _ = gradcheck.check_loss("total", n_batches=len(gradcheck.DEFAULT_SIZES),
                                      weights=SWITCHES[switch])
    assert summary.n_failed == 0, f"max_rel_err {summary.max_rel_err:.3e}"


def test_self_fusing_n2_cases_log_nothing(caplog):
    # the N=2 sizes give every row its own identity, so every fusing family
    # fuses rows with themselves on purpose
    with caplog.at_level(logging.DEBUG, logger="xmml.losses"):
        summaries = gradcheck.run_all(n_batches=1)
    assert all(s.ok for s in summaries)
    assert not [r for r in caplog.records if r.name == "xmml.losses"]
