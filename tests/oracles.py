"""Closed-form convex roofs that the numeric search is checked against."""

import math

# Lohmayer, Osterloh, Siewert & Uhlmann, PRL 97, 260502 (2006): the 3-tangle
# of p|GHZ><GHZ| + (1 - p)|W><W| is 0 up to P0, g(p) up to P1, and past P1
# the chord from g(P1) to the GHZ state's tangle 1.
P0 = 4 * 2 ** (1 / 3) / (3 + 4 * 2 ** (1 / 3))
P1 = 1 / 2 + 3 * math.sqrt(465) / 310


def ghz_w_tangle(p: float) -> float:
    """The 3-tangle roof of p|GHZ><GHZ| + (1 - p)|W><W|, 0 <= p <= 1."""
    if p <= P0:
        return 0.0
    if p <= P1:
        return p * p - 8 * math.sqrt(6) / 9 * math.sqrt(p * (1 - p) ** 3)
    return 1 - (1 - p) * (3 / 2 + math.sqrt(465) / 18)
