"""The kernel makes no reference cycles, so what it drops is freed at once
by reference counting, without waiting for the cyclic collector.

A presented ring caches its Groebner bases; their polynomials belong to its
cache-free PolynomialRing, never back to the presented ring.  The library
is called directly, not through cli.main: argparse leaves cycles of its own.
"""

import gc

from hkcalc import Ideal, count_standard_monomials, dimension, local_colength
from hkcalc.fixtures import fixture_by_id
from helpers import poly_of, ring_of


def _kernel_calls():
    # A cone: ehk, thm23, thm33 (hilbert_samuel) and rescaling.
    assert fixture_by_id("quadric-cone-p5").run(42)["passed"]
    # Many small presented rings and monomial bases.
    assert fixture_by_id("lemma21-random-p5").run(42)["passed"]
    # Lazard's homogenizing ring, cached on a non-graded ring.
    ring = ring_of(5, ("x", "y"), relations=("x*y - x",))
    I = Ideal(ring, [poly_of(ring, "y^2 - y")])
    assert local_colength(I) == 1
    assert dimension(Ideal(ring, [poly_of(ring, "x^2 + y^3")])) == 0
    # Four variables: staircases sliced down to the three-variable sweep.
    staircase = [(2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), (1, 1, 1, 1)]
    assert count_standard_monomials(staircase, 4) == 2 * 3 * 2 * 2 - 2


def test_kernel_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        _kernel_calls()
        assert gc.collect() == 0
    finally:
        gc.enable()
