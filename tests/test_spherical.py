"""Ground truth past cyclic torsion: the fundamental classes of the
spherical space forms S^3/G, G a binary polyhedral group, built by
``spherical.py``, evaluate to -2/|G| mod 1, and the Galois conjugate of
the binary icosahedral class to -98/120 mod 1.  Each class repeats
entries (g and -g are both in G), so every evaluation runs the repair."""

import pytest

import spherical
from test_relations import BOUND, conjugation_keeps, distance, value

ORDERS = {"Q8": 8, **{f"D{m}": 4 * m for m in range(2, 7)},
          "T": 24, "O": 48, "I": 120}
CLASSES = {name: spherical.cycle(name) for name in ORDERS}


def _off(c, want: float) -> float:
    return distance(value(c), complex(want))


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
    # conjugation by an element of SL(2, C) takes the class out of SU(2)
    # and keeps its value
    conjugation_keeps(CLASSES[name], complex(-2.0 / ORDERS[name] % 1.0), 2)
