"""Integer polynomials in the conformal weight d.

Shapovalov pairings, the coefficients of normal-ordered vectors and norm
polynomials are polynomials in d with integer coefficients, and their
rational zeros are the reduction points.  This module owns their one
representation: a tuple of ints in ascending degree, () for 0, with no
trailing zero.  Functions that build a polynomial term by term take a
list of ints (growable, trimmed at the end).

A polynomial P of degree at most D is evaluated at d = p/q on ints, as
q^D P(p/q): by a Horner loop for one value (evaluate, which returns the
one Fraction), or as the dot product of P with weights(d, D), which serves
every polynomial of one block, one matrix or one candidate root at once.
divide_linear divides out a rational root p/q as the integer factor
q d - p.  The module is stdlib only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

Poly = Tuple[int, ...]                # integer polynomial in d, ascending; () is 0

ONE: Poly = (1,)
_ZERO = Fraction(0)


def add_product(acc: List[int], p: Poly, q: Poly) -> None:
    """acc += p * q for a polynomial held as a growable list."""
    if len(acc) < len(p) + len(q) - 1:
        acc.extend([0] * (len(p) + len(q) - 1 - len(acc)))
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            acc[i + j] += x * y


def trim(acc: List[int]) -> Poly:
    while acc and not acc[-1]:
        acc.pop()
    return tuple(acc)


def add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for k, c in enumerate(q):
        out[k] += c
    return trim(out)


def mul(p: Poly, q: Poly) -> Poly:
    """Product of two nonzero polynomials (nonzero again: no trimming)."""
    if len(p) == 1:
        c = p[0]
        return tuple(c * x for x in q)
    if len(q) == 1:
        c = q[0]
        return tuple(c * x for x in p)
    acc: List[int] = []
    add_product(acc, p, q)
    return tuple(acc)


def evaluate(p: Poly, d: Fraction, scale: int = 1) -> Fraction:
    """p(d) / scale, exactly: den^deg p(num/den) by an integer Horner loop."""
    if not p:
        return _ZERO
    num, den = d.numerator, d.denominator
    acc = 0
    power = 1
    for c in reversed(p):
        acc = acc * num + c * power
        power *= den
    return Fraction(acc, scale * (power // den))


def weights(d: Fraction, top: int) -> List[int]:
    """num^k den^(top - k) for k = 0..top, d = num/den: the dot product of a
    polynomial of degree at most top with these is den^top p(d), an int."""
    num, den = d.numerator, d.denominator
    return [num ** k * den ** (top - k) for k in range(top + 1)]


def divide_linear(ints: List[int], p: int, q: int) -> List[int]:
    """ints / (q x - p) for a root p/q in lowest terms, q > 0: the quotient
    has integer coefficients (Gauss's lemma), found from the top down."""
    out = [0] * (len(ints) - 1)
    carry = 0
    for i in range(len(ints) - 1, 0, -1):
        carry = (ints[i] + carry) // q
        out[i - 1] = carry
        carry *= p
    return out
