"""Frequency verification: random-value channel tagging and receiver-side checks.

Every honest sender tags a packet with two fresh uniform random values and the
channel index they imply; every receiver recomputes the implied channel from
the transmitted values and drops the packet on mismatch.  Because the mapping
is a pure function of the two tags, honest traffic always passes, while a
flooder that picks its channel independently is accepted with probability 1/k.
"""

from __future__ import annotations

import math
from enum import Enum
from random import Random
from typing import Tuple

from . import model
from .model import CommonHeader


class VerifyOutcome(Enum):  # a drop's value is its reason, as `model` names it
    ACCEPT = "ACCEPT"
    DROP_RANGE = model.DROP_RANGE
    DROP_MISMATCH = model.DROP_MISMATCH


def draw_random_values(rng: Random) -> Tuple[float, float]:
    """Two independent uniform draws on [0, 1), consumed in order rv1, rv2."""
    rv1 = rng.random()
    rv2 = rng.random()
    return rv1, rv2


def _implied_channel(rv1: float, rv2: float, k: int) -> int:
    # Total on all float inputs: verification must be able to recompute a
    # channel even for malformed tags that slipped past a lax range check.
    if k == 1:
        return 1
    if k == 2:
        return 1 if rv1 <= rv2 else 2
    h = (rv1 - rv2 + 1.0) / 2.0
    return 1 + min(k - 1, max(0, math.floor(k * h)))


def select_channel(rv1: float, rv2: float, k: int) -> int:
    """Channel index in 1..k implied by the two random tags.

    k = 2 uses the two-frequency rule (rv1 <= rv2 selects channel 1, ties
    included); k > 2 folds the decision variable onto [0, 1] via
    h = (rv1 - rv2 + 1) / 2 and picks 1 + min(k-1, floor(k*h)).
    """
    if not (0.0 <= rv1 <= 1.0 and 0.0 <= rv2 <= 1.0):
        raise ValueError(f"random values must lie in [0, 1], got ({rv1}, {rv2})")
    return _implied_channel(rv1, rv2, k)


def verify(header: CommonHeader, k: int, paper_range_check: bool = False) -> VerifyOutcome:
    """Receiver-side check of a packet's random tags and announced channel.

    Range check first: by default each tag must lie in [0, 1] (their sum then
    trivially lies in [0, 2]); with ``paper_range_check`` only the sum is
    constrained to [0, 2].  Packets passing the range check are accepted iff
    the announced channel equals the recomputed one.  NaN tags always fail
    the range check.
    """
    rv1, rv2 = header.rv1, header.rv2
    if paper_range_check:
        total = rv1 + rv2
        in_range = 0.0 <= total <= 2.0
    else:
        in_range = 0.0 <= rv1 <= 1.0 and 0.0 <= rv2 <= 1.0
    if not in_range:
        return VerifyOutcome.DROP_RANGE
    if header.channel != _implied_channel(rv1, rv2, k):
        return VerifyOutcome.DROP_MISMATCH
    return VerifyOutcome.ACCEPT
