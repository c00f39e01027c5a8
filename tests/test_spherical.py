"""Ground truth past cyclic torsion: the fundamental classes of the
spherical space forms S^3/G, G a binary polyhedral group, built by
``spherical.py``, evaluate to -2/|G| mod 1, and the Galois conjugate of
the binary icosahedral class to -98/120 mod 1.  Each class repeats
entries (g and -g are both in G), so every evaluation runs the repair."""

import random

import pytest

from extbloch.chains import conjugate_chain
from extbloch.core import random_sl2
from extbloch.pipeline import ccs_value

import spherical

BOUND = 1e-12  # mod 1, and on the imaginary part
MAX_ENTRY = 4.0  # of a conjugating element
ORDERS = {"Q8": 8, **{f"D{m}": 4 * m for m in range(2, 7)},
          "T": 24, "O": 48, "I": 120}
CLASSES = {name: spherical.cycle(name) for name in ORDERS}


def _off(c, want: float) -> float:
    """The larger of the mod-1 distance of the value of ``c`` (seed 0, 3
    trials) from ``want`` and its imaginary part."""
    v = ccs_value(c, seed=0, trials=3).value_mod1
    d = (v.real - want) % 1.0
    return max(min(d, 1.0 - d), abs(v.imag))


@pytest.mark.parametrize("name", list(ORDERS))
def test_a_binary_polyhedral_class_gives_minus_two_over_the_order(name):
    assert len(spherical.GROUPS[name]()) == ORDERS[name]
    assert _off(CLASSES[name], -2.0 / ORDERS[name]) <= BOUND


def test_the_galois_conjugate_binary_icosahedral_class():
    # the second SU(2) representation of the Poincare sphere's group has
    # Chern-Simons invariant -49/120, on the same flags
    assert _off(spherical.cycle("I", conjugate=True), -98.0 / 120) <= BOUND


@pytest.mark.parametrize("name", ["Q8", "D3", "T", "O", "I"])
def test_k_copies_give_k_times_the_value(name):
    for k in (2, 3, -1):
        assert _off(k * CLASSES[name], -2.0 * k / ORDERS[name]) <= BOUND


@pytest.mark.parametrize("name", ["Q8", "D5", "T", "O", "I"])
def test_a_conjugation_keeps_the_value(name):
    # conjugation by an element of SL(2, C) with entries at most
    # ``MAX_ENTRY`` takes the class out of SU(2) and keeps its value
    rng = random.Random(5)
    for _ in range(2):
        h = random_sl2(rng)
        while h.max_abs() > MAX_ENTRY:
            h = random_sl2(rng)
        assert _off(conjugate_chain(h, CLASSES[name]),
                    -2.0 / ORDERS[name]) <= BOUND
