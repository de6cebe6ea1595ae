"""Gilbert burst-noise model for per-link V2V packet loss.

Each directed link is a two-state (Good/Bad) Markov chain stepped once per
controller period.  In Good every packet arrives; in Bad only a fraction
``r_recv_bad`` does.  The long-run packet reception rate is

    gamma = 1 - p_gb * (1 - r_recv_bad) / (p_gb + q_bg)

The i.i.d. loss model is the special case of a chain stuck in Bad
(p_gb=1, q_bg=0), where gamma = r_recv_bad.

:func:`sample_links` is the one sampler.  Link ``l`` draws from its own
stream (:func:`link_streams`) in a fixed layout: one uniform for a
stationary initial mode (none when the mode is forced), then two per step,
a transition uniform against p_gb or q_bg and a reception uniform against
r_recv_bad, the latter drawn even in Good so the layout never depends on
the outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class ChannelMode(Enum):
    GOOD = "good"
    BAD = "bad"


@dataclass(frozen=True)
class GilbertParams:
    """Transition probabilities per step and Bad-state reception probability."""

    p_gb: float
    q_bg: float
    r_recv_bad: float

    def __post_init__(self):
        for name in ("p_gb", "q_bg", "r_recv_bad"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if self.p_gb + self.q_bg == 0.0:
            raise ValueError("p_gb + q_bg must be positive: a chain with no "
                             "transitions has no reception rate")


def gamma_of(params: GilbertParams) -> float:
    """Average packet reception rate of the Gilbert channel."""
    return 1.0 - params.p_gb * (1.0 - params.r_recv_bad) / (params.p_gb + params.q_bg)


def link_streams(master_seed: int, n_links: int) -> list[np.random.Generator]:
    """Independent, reproducible per-link streams derived from one seed.

    Stream ``i`` depends only on (master_seed, i), so adding links never
    perturbs existing ones.
    """
    return [
        np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(i,)))
        for i in range(n_links)
    ]


def sample_links(params: list[GilbertParams], streams: list[np.random.Generator],
                 n_steps: int, init_mode: ChannelMode | None = None) -> np.ndarray:
    """(n_links, n_steps) boolean reception flags; link l uses streams[l].

    The initial mode is drawn from the chain's stationary distribution, Bad
    with probability p_gb / (p_gb + q_bg), unless ``init_mode`` forces it.
    Against p and q, each step's transition uniform either keeps the mode,
    flips it, or sets it to Bad or to Good whatever it was; the mode at step
    k is therefore the last set value (the initial mode if none) XOR the
    parity of the flips since, which is a scan over time.
    """
    n_links = len(params)
    p = np.array([c.p_gb for c in params])
    q = np.array([c.q_bg for c in params])
    r = np.array([c.r_recv_bad for c in params])
    if init_mode is None:
        init = np.array([rng.random() for rng in streams])
        bad0 = init < p / (p + q)
    else:
        bad0 = np.full(n_links, init_mode is ChannelMode.BAD)
    us = np.stack([rng.random((n_steps, 2)) for rng in streams])  # (L, T, 2)
    to_bad = us[:, :, 0] < p[:, None]     # Good -> Bad
    to_good = us[:, :, 0] < q[:, None]    # Bad -> Good
    # column 0 holds the initial mode, column k the value set at step k
    set_value = np.concatenate([bad0[:, None], to_bad], axis=1)
    last_set = np.maximum.accumulate(
        np.where(to_bad != to_good, np.arange(1, n_steps + 1), 0), axis=1)
    parity = np.zeros_like(set_value)
    parity[:, 1:] = np.logical_xor.accumulate(to_bad & to_good, axis=1)
    rows = np.arange(n_links)[:, None]
    bad = set_value[rows, last_set] ^ parity[rows, last_set] ^ parity[:, 1:]
    return ~bad | (us[:, :, 1] < r[:, None])
