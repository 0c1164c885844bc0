"""Singular and subsingular vectors, the printed rank-three catalog, norms.

A singular vector of weight offset m*beta is annihilated by every simple
lowering generator; it exists exactly when m_beta = (rho - Lambda,
beta-vee) equals the positive integer m.  A subsingular vector lies outside
the submodule generated by all singular vectors (compact ones included)
while all its lowering images fall inside it.

The printed catalog stores six explicit rank-three vectors plus the
compact-root powers (X_k^+)^(1+a_k) v0, exactly as published; validation is
by proportionality against the solver, never by literal coefficients, since
printed coefficients depend on normalization conventions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, isqrt
from operator import mul
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ospuir.dpoly import divide_linear as _divide_linear, weights as _weights
from ospuir.enveloping.algebra import (
    Generator,
    KIND_DOUBLE,
    KIND_MIX,
    KIND_ODD,
    KIND_SUM,
)
from ospuir.enveloping.module import (
    ModuleVector,
    Word,
    engine_for,
    weight_space_words,
)
from ospuir.linalg import in_span, nullspace, rref
from ospuir.root_system import check_exact, cleared, delta_to_simple, int_tuple, is_int
from ospuir.weights import Signature, reducibility_report, reduction_points


class AnomalyError(AssertionError):
    """A predicted singular vector is missing: internal inconsistency.

    It is an AssertionError, like the library's other failed internal
    checks, so the command line reports both as one anomaly (exit 3)."""


def simple_lowering(n: int, j: int) -> Generator:
    """omega of the j-th simple raising generator."""
    if not 1 <= j <= n:
        raise ValueError(f"simple index must be in [1, {n}]")
    if j < n:
        return Generator(KIND_MIX, j + 1, j)
    return Generator(KIND_ODD, n, sign=-1)


def _vector_coords(vec: ModuleVector, basis: Sequence[Word]) -> List[Fraction]:
    index = {w: k for k, w in enumerate(basis)}
    coords = [Fraction(0)] * len(basis)
    for w, c in vec.terms.items():
        if w not in index:
            raise AssertionError("vector leaves its expected weight space")
        coords[index[w]] = c
    return coords


def singular_space(sig: Signature, offset: Sequence[int]) -> List[ModuleVector]:
    """Basis of the joint kernel of all simple lowerings at this offset.

    Each simple lowering's action matrix at sig.d comes from the engine's
    memoized polynomials as ints, its rows scaled by one positive constant
    (VermaEngine.action_matrix); scaling changes neither the kernel nor its
    rref, so the matrices are stacked as they are and solved by one
    nullspace call, and the basis is that of the matrix over Q.
    """
    engine = engine_for(sig)
    n = sig.n
    offset = int_tuple(offset)
    basis = engine.basis(offset)
    if not basis:
        return []
    rows = [row for j in range(1, n + 1)
            for row in engine.action_matrix(sig, simple_lowering(n, j), offset)]
    out = []
    for sol in nullspace(rows, cols=len(basis)):
        terms = {w: c for w, c in zip(basis, sol) if c}
        out.append(ModuleVector(sig, offset, terms))
    return out


def find_singular(sig: Signature, beta: Sequence, m: int) -> List[ModuleVector]:
    """Solve for singular vectors of weight offset m*beta.

    Returns a basis of the solution space (often empty away from reduction
    points).  Raises AnomalyError when the reducibility criterion predicts
    a singular vector at (beta, m) but none exists, and ValueError unless
    beta is an exact positive root of rank sig.n and m a positive int.
    """
    if not is_int(m) or m < 1:
        raise ValueError("m must be a positive integer")
    check_exact(beta)
    beta_coords = tuple(Fraction(x) for x in beta)
    entry = next((e for e in reducibility_report(sig).entries if e.root.coords == beta_coords),
                 None)
    if entry is None:
        raise ValueError(f"beta = ({', '.join(map(str, beta_coords))}) is not "
                         f"a positive root of rank {sig.n}")
    offset = tuple(m * int(x) for x in delta_to_simple(beta_coords))
    sols = singular_space(sig, offset)
    if entry.m_value == m and not sols:
        raise AnomalyError(
            f"reducibility holds for beta={beta_coords}, m={m} but no singular "
            f"vector was found at sig={sig}"
        )
    return sols


# ------------------------------------------------------------ printed catalog

def _od(i: int) -> Generator:
    return Generator(KIND_ODD, i, sign=1)


def _mix(i: int, j: int) -> Generator:
    return Generator(KIND_MIX, i, j)


_X13 = _mix(1, 3)
_X1P = _mix(1, 2)
_X2P = _mix(2, 3)
_SUM12 = Generator(KIND_SUM, 1, 2, sign=1)
_SUM13 = Generator(KIND_SUM, 1, 3, sign=1)
_SUM23 = Generator(KIND_SUM, 2, 3, sign=1)
_DBL3 = Generator(KIND_DOUBLE, 3, sign=1)


def _anticommutator_scale(
    terms: List[Tuple[Word, Fraction]],
) -> List[Tuple[Word, Fraction]]:
    # Entries passed through here are written with every even root vector
    # normalized as the full anticommutator of its two odd factors; an
    # engine generator is c times that anticommutator, so its symbol
    # carries a factor 1/c.
    scaled = []
    for word, coeff in terms:
        for gen in word:
            coeff /= gen.factors()[0]
        scaled.append((word, coeff))
    return scaled


def _sv_d1(a1: Fraction, a2: Fraction) -> List[Tuple[Word, Fraction]]:
    return [
        ((_od(1),), a1 * (a1 + a2 + 1)),
        ((_od(3), _X13), -a1),
        ((_od(2), _X1P), -(a1 + a2 + 1)),
        ((_od(3), _X2P, _X1P), Fraction(1)),
    ]


def _sv_d12(a1: Fraction, a2: Fraction) -> List[Tuple[Word, Fraction]]:
    return _anticommutator_scale([
        ((_od(3), _od(2), _X2P, _X1P), Fraction(1)),
        ((_od(3), _od(3), _X2P, _X2P, _X1P), Fraction(1, 2)),
        ((_od(3), _od(3), _X2P, _X13), -a1),
        ((_od(3), _od(2), _X13), 2 * (a2 + 1)),
        ((_od(3), _od(1), _X2P), -2 * (a1 + a2 + 1)),
        ((_SUM13, _X2P), (a1 + 1) * (a1 + a2 + 1)),
        ((_od(2), _od(1)), 4 * a2 * (a1 + a2 + 1)),
        ((_od(2), _od(2), _X1P), 2 * a2 * (a1 + a2 + 1)),
        ((_SUM23, _X2P, _X1P), -Fraction(1, 2) * (a1 + 2 * a2 + 1)),
        ((_SUM23, _X13), -(-a2 * a1 + a1 + a2 + 1)),
        ((_SUM12,), -2 * (a1 + 1) * a2 * (a1 + a2 + 1)),
    ])


def _sv_d2(a1: Fraction, a2: Fraction) -> List[Tuple[Word, Fraction]]:
    return [
        ((_X2P, _od(3)), a2),
        ((_od(3), _X2P), -(a2 + 1)),
    ]


def _sv_d13(a1: Fraction, a2: Fraction) -> List[Tuple[Word, Fraction]]:
    h = 1 + (a1 + a2) / 2
    return [
        ((_X1P, _od(3), _od(3), _X2P), h * a1),
        ((_X1P, _od(3), _X2P, _od(3)), a1),
        ((_od(3), _od(3), _X2P, _X1P), -h * (a1 + 1)),
        ((_X1P, _X2P, _od(3), _od(3)), -h * a1),
        ((_od(3), _X2P, _od(3), _X1P), -(a1 + 1)),
        ((_X2P, _od(3), _od(3), _X1P), h * (a1 + 1)),
    ]


def _subsing_d13(a1: Fraction, a2: Fraction) -> List[Tuple[Word, Fraction]]:
    return [
        ((_od(1), _od(2), _od(3)), Fraction(1)),
        ((_od(3), _od(2), _od(1)), Fraction(-1)),
    ]


def _sv_d23(a1: Fraction, a2: Fraction) -> List[Tuple[Word, Fraction]]:
    return _anticommutator_scale([
        ((_SUM23,), Fraction(2)),
        ((_od(2), _od(3)), Fraction(-4)),
        ((_DBL3, _X2P), Fraction(1)),
    ])


class CatalogEntry(NamedTuple):
    """One printed rank-three vector, written in the labels (a1, a2).

    It is singular of weight offset order(a1, a2) * beta, beta in the delta
    basis, or subsingular when beta is None.  It is validated at labels
    regime_a and d at the reduction point regime_point (d = 1 when empty).
    """

    terms: Callable[[Fraction, Fraction], List[Tuple[Word, Fraction]]]
    beta: Optional[Tuple[int, ...]]
    regime_a: Tuple[int, ...]
    regime_point: Tuple[int, ...] = ()
    order: Callable[[Fraction, Fraction], int] = lambda a1, a2: 1


CATALOG: Dict[str, CatalogEntry] = {
    "sv_d1": CatalogEntry(_sv_d1, (1, 0, 0), (1, 1), (1,)),
    "sv_d12": CatalogEntry(_sv_d12, (1, 1, 0), (0, 2), (1, 2)),
    "sv_d2": CatalogEntry(_sv_d2, (0, 1, 0), (0, 2), (2,)),
    "sv_d13": CatalogEntry(_sv_d13, (1, 0, 1), (0, 2), (1, 3)),
    "subsing_d13": CatalogEntry(_subsing_d13, None, (0, 0)),
    "sv_d23": CatalogEntry(_sv_d23, (0, 1, 1), (0, 0), (2, 3)),
}

PRINTED_IDS = tuple(CATALOG)


def _compact_entry(i: int) -> CatalogEntry:
    """(X_i^+)^(1+a_i) v0, singular at (1+a_i)(delta_i - delta_{i+1})."""
    def order(a1: Fraction, a2: Fraction) -> int:
        return 1 + int((a1, a2)[i - 1])

    def terms(a1: Fraction, a2: Fraction) -> List[Tuple[Word, Fraction]]:
        return [((_mix(i, i + 1),) * order(a1, a2), Fraction(1))]

    beta = tuple(1 if k == i else -1 if k == i + 1 else 0 for k in (1, 2, 3))
    return CatalogEntry(terms, beta, (0, 0), order=order)


_COMPACT = {f"compact_{i}": _compact_entry(i) for i in (1, 2)}


def catalog_entry(vector_id: str) -> CatalogEntry:
    """The CatalogEntry of a printed or compact vector id."""
    entry = CATALOG.get(vector_id) or _COMPACT.get(vector_id)
    if entry is not None:
        return entry
    if vector_id.startswith("compact_"):
        raise ValueError("compact index must be in [1, 2]")
    raise ValueError(f"unknown printed vector id {vector_id!r}")


def _catalog_terms(vector_id: str, sig: Signature) -> List[Tuple[Word, Fraction]]:
    if sig.n != 3:
        raise ValueError("the printed catalog is rank-three only")
    return catalog_entry(vector_id).terms(*(Fraction(x) for x in sig.a))


def printed_vector(vector_id: str, sig: Signature) -> ModuleVector:
    """The published linear combination, normal-ordered into PBW form."""
    return engine_for(sig).from_words(sig, _catalog_terms(vector_id, sig))


def printed_regime(vector_id: str) -> Signature:
    """Default signature at which the printed vector is validated."""
    entry = catalog_entry(vector_id)
    a = entry.regime_a
    if not entry.regime_point:
        return Signature(3, Fraction(1), a)
    return Signature(3, reduction_points(3, a).value(*entry.regime_point), a)


def verify_singular(vector_id: str, sig: Signature) -> bool:
    """True when the printed vector spans (part of) the solver's kernel.

    Proportionality test: the vector must be nonzero and lie in the span of
    find_singular's solution basis, whose rows are independent (one per
    free column of a nullspace), as in_span needs; an empty basis spans
    nothing.  An entry with no beta delegates to the subsingular test.
    """
    entry = catalog_entry(vector_id)
    if entry.beta is None:
        return verify_subsingular(vector_id, sig)
    vec = printed_vector(vector_id, sig)
    if vec.is_zero:
        return False
    beta = tuple(Fraction(c) for c in entry.beta)
    try:
        sols = find_singular(sig, beta, entry.order(*(Fraction(x) for x in sig.a)))
    except AnomalyError:
        return False
    basis = engine_for(sig).basis(vec.offset)
    return in_span([_vector_coords(s, basis) for s in sols], _vector_coords(vec, basis))


# ------------------------------------------------------------- subsingular

def submodule_component(
    sig: Signature, nu: Sequence[int],
    spaces: Optional[Dict[Tuple[int, ...], List[ModuleVector]]] = None,
) -> List[List[Fraction]]:
    """Row space (rref) of the weight-nu slice of the singular-generated
    submodule: sums of U+ words applied to singular vectors of lower or
    equal weight.  spaces, if given, holds singular_space(sig, sigma) by
    offset sigma: the spaces it has are reused and those solved here are
    added, so a caller that asks for several slices at one signature
    solves each offset once."""
    engine = engine_for(sig)
    nu = int_tuple(nu)
    basis = engine.basis(nu)
    if not basis:
        return []
    if spaces is None:
        spaces = {}
    rows: List[List[Fraction]] = []
    for sigma in product(*(range(x + 1) for x in nu)):
        if not any(sigma):
            continue
        sings = spaces.get(sigma)
        if sings is None:
            sings = spaces[sigma] = singular_space(sig, sigma)
        if not sings:
            continue
        diff = tuple(a - b for a, b in zip(nu, sigma))
        for u in weight_space_words(engine.n, diff):
            for s in sings:
                vec = engine.apply_word(u, s)
                if not vec.is_zero:
                    rows.append(_vector_coords(vec, basis))
    return rref(rows)[0] if rows else []


def is_subsingular(vec: ModuleVector) -> bool:
    """Outside the singular-generated submodule, lowered into it.  Each
    singular space is solved once for the slice at vec and the slices at
    its lowering images together."""
    if vec.is_zero:
        return False
    sig = vec.sig
    engine = engine_for(sig)
    nu = vec.offset
    basis = engine.basis(nu)
    spaces: Dict[Tuple[int, ...], List[ModuleVector]] = {}
    span = submodule_component(sig, nu, spaces)
    if in_span(span, _vector_coords(vec, basis)):
        return False
    for j in range(1, engine.n + 1):
        low = simple_lowering(engine.n, j)
        img = engine.act(low, vec)
        if img.is_zero:
            continue
        target = img.offset
        if any(x < 0 for x in target):
            raise AssertionError("lowering image escaped the module")
        tspan = submodule_component(sig, target, spaces)
        tbasis = engine.basis(target)
        if not in_span(tspan, _vector_coords(img, tbasis)):
            return False
    return True


def verify_subsingular(vector_id: str, sig: Signature) -> bool:
    if catalog_entry(vector_id).beta is not None:
        raise ValueError(f"{vector_id} carries no subsingular claim")
    return is_subsingular(printed_vector(vector_id, sig))


# ---------------------------------------------------------- norm polynomials

def norm_polynomial_in_d(vector_id: str, a: Sequence[int]) -> List[Fraction]:
    """Shapovalov norm of the printed vector as a polynomial in d, ascending.

    The printed coefficients depend on the labels a only, so the label
    set's engine expands the vector over PBW words with coefficients that
    are integer polynomials in d, and the norm is the direct sum of
    c_u c_w P_uw(d) over pairs of those words.  The overall scale depends
    on normalization conventions; the zero set does not.
    """
    sig = Signature(3, Fraction(0), tuple(a))
    return engine_for(sig).norm_polynomial(_catalog_terms(vector_id, sig))


def _divisors(x: int) -> List[int]:
    """The positive divisors of x >= 1, in pairs (d, x // d)."""
    out = []
    for d in range(1, isqrt(x) + 1):
        if x % d == 0:
            out.append(d)
            out.append(x // d)
    return out


def rational_zero_set(coeffs: Sequence[Fraction]) -> Tuple[Dict[Fraction, int], List[Fraction]]:
    """Rational roots with multiplicity, plus the root-free residual factor.

    Every rational root of a quotient is a root of the input, and dividing
    out one root leaves the others' multiplicities as they are, so one pass
    over the input's rational-root-theorem candidates p/q (p | a_0, q | a_l
    of its primitive integer form, in lowest terms) divides each root out
    to full multiplicity.  The pass runs on that integer form: p/q is tested
    as sum a_i p^i q^(l-i) = 0 and divided out as the factor q x - p, and
    the residual is scaled back to the input's scale at the end.  Roots are
    keyed 0 first, then increasing; the residual has no rational roots left.
    """
    den, ints = cleared(coeffs)
    while len(ints) > 1 and ints[-1] == 0:
        ints.pop()
    if not any(ints):
        raise ValueError("zero polynomial has no meaningful zero set")
    roots: Dict[Fraction, int] = {}
    k = next(i for i, c in enumerate(ints) if c)
    if k:
        roots[Fraction(0)] = k
        ints = ints[k:]
    g = gcd(*ints)
    ints = [c // g for c in ints]
    # poly = (g / den) * ints, and dividing poly by x - p/q divides ints by
    # q x - p and multiplies the scale by q
    scale = Fraction(g, den)
    found = []
    leads = set(_divisors(abs(ints[-1])))
    for p in set(_divisors(abs(ints[0]))):
        for q in leads:
            if gcd(p, q) > 1:
                continue
            for num in (p, -p):
                m = 0
                root = Fraction(num, q)
                while not sum(map(mul, ints, _weights(root, len(ints) - 1))):
                    ints = _divide_linear(ints, num, q)
                    scale *= q
                    m += 1
                if m:
                    found.append((root, m))
    roots.update(sorted(found))
    return roots, [scale * c for c in ints]
