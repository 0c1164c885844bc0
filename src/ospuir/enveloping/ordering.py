"""Normal ordering in osp(1|2n) Verma modules, once per rank, free of labels.

A generator g acting on a PBW monomial w v0 (see ospuir.enveloping.module)
is normal-ordered by moving g to the right past w's letters: where g may
stand to the left of a letter it is prepended (an odd g meeting itself
makes the double generator), a bracket [g, x] is expanded on the rest of
the word, and g vanishes on v0 unless it is raising.  Lambda enters only
through the Cartan eigenvalues on v0,

    2 lambda_i = 2d + 2(a_1 + ... + a_{i-1}) - (a_1 + ... + a_{n-1}),

and each term of the expansion meets at most one Cartan generator, so
every coefficient is affine in (d, a): a raising g gives plain ints,
products in U(n+); a lowering or Cartan g gives c_0 + c_d d + sum_k c_k a_k.
A coefficient is stored as an int where it is constant and as the int
tuple (c_0, c_d, c_1, ..., c_{n-1}) only where it is not (Coeff), so one
memo serves every label set of the rank: a VermaEngine evaluates the
affine ones at its labels as it reads them.

The coefficients are integers.  The only non-integer bracket coefficients
are the halves in [X(d_i - d_j), X(d_j - d_i)] = (H_i - H_j)/2, and a
bracket of Cartan terms only is applied as one scalar on the remaining
word, sum_h c_h (2 lambda_h + kappa_h(word)), where [H_h, g] = kappa_h(g) g.
Every kappa value is even (+-2 or +-4), and for (H_i - H_j)/2 the d parts
cancel and the labels enter as -(a_i + ... + a_{j-1}).  cartan_forms checks
every such combination once per rank, on ints, which covers every label
set at once.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Dict, Mapping, Sequence, Tuple, Union
from weakref import WeakValueDictionary

from ospuir.enveloping.algebra import CARTAN, LOWERING, RAISING, StructureTable, structure_constants
from ospuir.root_system import cleared

CodeWord = Tuple[int, ...]            # a PBW word as generator codes
# An int where the coefficient is constant, else c_0 + c_d d + sum_k c_k a_k
# as (c_0, c_d, c_1, ..., c_{n-1}), with c_d or some c_k nonzero.
Coeff = Union[int, Tuple[int, ...]]
RankTerms = Dict[CodeWord, Coeff]
# A Cartan combination as (tail, shift): on a PBW word its eigenvalue is
# the affine form (s, *tail), tail = (c_d, c_1, ..., c_{n-1}) and s the sum
# of shift[x] over the word's letters x.
CartanForm = Tuple[Tuple[int, ...], Tuple[int, ...]]


class NormalOrder:
    """Rank n's normal ordering, shared by every label set of the rank.

    act(g, word) is generator g applied to word * v0, as PBW terms with
    Coeff coefficients, memoized on (g, word); a miss is expanded by
    _expand.  Equal affine tuples are held once."""

    def __init__(self, n: int):
        self.table: StructureTable = structure_constants(n)
        self.eigen, self.brackets = cartan_forms(n)
        self.memo: Dict[Tuple[int, CodeWord], RankTerms] = {}
        self._affine: Dict[Tuple[int, ...], Tuple[int, ...]] = {}

    def act(self, g: int, word: CodeWord) -> RankTerms:
        key = (g, word)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self._expand(g, word)
        return hit

    def _expand(self, g: int, word: CodeWord) -> RankTerms:
        t = self.table
        cls = t.cls[g]
        if cls == CARTAN:
            s = scalar(self.eigen[g], word)
            return self._held({word: s}) if s else {}
        if not word:
            return {(g,): 1} if cls == RAISING else {}
        head, rest = word[0], word[1:]
        if cls == RAISING and t.pbw_key[g] <= t.pbw_key[head]:
            if g == head and t.odd[g]:
                return self.act(t.square[g], rest)
            return {(g,) + word: 1}
        # g past head (head is raising, so its action is on ints), then
        # [g, head] on the rest
        flip = t.odd[g] and t.odd[head]
        out: RankTerms = {}
        for w2, c2 in self.act(g, rest).items():
            _add_mul(out, self.act(head, w2), _times(c2, -1) if flip else c2)
        form = self.brackets.get((g, head))
        if form is not None:
            s = scalar(form, rest)
            if s:
                _add_mul(out, {rest: s}, 1)
        else:
            for h, cb in t.brackets[g][head]:
                _add_mul(out, self.act(h, rest), cb.numerator)
        return self._held(out)

    def _held(self, terms: RankTerms) -> RankTerms:
        """terms, each affine coefficient replaced by its one held copy."""
        held = self._affine
        for w, c in terms.items():
            if c.__class__ is not int:
                terms[w] = held.setdefault(c, c)
        return terms


_orders: WeakValueDictionary[int, NormalOrder] = WeakValueDictionary()


def normal_order(n: int) -> NormalOrder:
    """Rank n's shared normal ordering, held while something (an engine of
    the rank) refers to it: once the last one is gone, so is its memo."""
    order = _orders.get(n)
    if order is None:
        order = _orders[n] = NormalOrder(n)
    return order


def _times(c: Coeff, k: int) -> Coeff:
    return c * k if c.__class__ is int else tuple(k * v for v in c)


def _add_mul(acc: RankTerms, terms: Mapping[CodeWord, Coeff], c: Coeff) -> None:
    """acc += c * terms, in place, where c or every coefficient of terms is
    an int; a sum that is constant becomes an int, and 0 is dropped."""
    affine = c.__class__ is not int
    for k, x in terms.items():
        if affine:
            x = tuple(x * v for v in c)
        elif c != 1:
            x = _times(x, c)
        old = acc.get(k)
        if old is None:
            acc[k] = x
            continue
        if old.__class__ is int and x.__class__ is int:
            x += old
        else:
            if old.__class__ is int:
                old, x = x, old
            x = ((old[0] + x,) + old[1:] if x.__class__ is int
                 else tuple(map(add, old, x)))
            if not any(x[1:]):
                x = x[0]
        if x:
            acc[k] = x
        else:
            del acc[k]


def cartan_forms(n: int) -> Tuple[Dict[int, CartanForm], Dict[Tuple[int, int], CartanForm]]:
    """The rank-n Cartan forms, checked to be integral over (1, d, a):
    each Cartan generator h, in code order, as the combination 1*H_h, and
    each bracket [x, y] of a lowering x and a raising y that is a
    combination of Cartan generators only, keyed by (x, y).

    The sums are taken on ints: the eigenvalues kappa_h are read once and
    must be integers, and a combination is cleared to ints (cleared),
    whose scale, the lcm of its denominators, must divide every sum."""
    t = structure_constants(n)
    cartan = [x for x, c in enumerate(t.cls) if c == CARTAN]
    kappa, vacuum = {}, {}
    for h in cartan:   # [h, x] = kappa_h(x) x
        values = [dict(row).get(x, 0) for x, row in enumerate(t.brackets[h])]
        if any(c.denominator != 1 for c in values):
            raise AssertionError(f"Cartan generator {h} has a non-integral eigenvalue")
        kappa[h] = [int(c) for c in values]
        i = t.generators[h].i   # h = H_i: 2 lambda_i on v0, over (d, a_1, ...)
        vacuum[h] = [2] + [1 if k < i else -1 for k in range(1, n)]

    def form(combo: Sequence[Tuple[int, Fraction]]) -> CartanForm:
        den, ms = cleared([c for _, c in combo])
        tail, shift = [0] * n, [0] * len(t.generators)
        for (h, _), m in zip(combo, ms):
            tail = [s + m * v for s, v in zip(tail, vacuum[h])]
            shift = [s + m * k for s, k in zip(shift, kappa[h])]
        if any(v % den for v in tail) or any(v % den for v in shift):
            raise AssertionError(f"Cartan combination {tuple(combo)} is not integral")
        return tuple(v // den for v in tail), tuple(v // den for v in shift)

    eigen = {h: form(((h, Fraction(1)),)) for h in cartan}
    brackets = {
        (x, y): form(t.brackets[x][y])
        for x, cx in enumerate(t.cls) if cx == LOWERING
        for y, cy in enumerate(t.cls) if cy == RAISING
        if t.brackets[x][y] and all(t.cls[h] == CARTAN for h, _ in t.brackets[x][y])
    }
    return eigen, brackets


def scalar(form: CartanForm, word: CodeWord) -> Coeff:
    """The form's eigenvalue on word * v0 (the int 0 when it is zero)."""
    tail, shift = form
    s = sum(map(shift.__getitem__, word))
    return (s,) + tail if any(tail) else s
