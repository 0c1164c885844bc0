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
from math import gcd
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ospuir.enveloping.algebra import (
    Generator,
    KIND_DOUBLE,
    KIND_MIX,
    KIND_ODD,
    KIND_SUM,
)
from ospuir.enveloping.module import (
    ModuleVector,
    VermaEngine,
    Word,
    engine_for,
    weight_space_words,
)
from ospuir.linalg import in_span, nullspace, rref
from ospuir.root_system import build_root_system, delta_to_simple, pairing
from ospuir.weights import Signature, lowest_weight, reduction_points


class AnomalyError(Exception):
    """A predicted singular vector is missing: internal inconsistency."""


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


def singular_space(engine: VermaEngine, offset: Sequence[int]) -> List[ModuleVector]:
    """Basis of the joint kernel of all simple lowerings at this offset."""
    n = engine.n
    offset = tuple(int(x) for x in offset)
    basis = engine.basis(offset)
    if not basis:
        return []
    unit = [
        ModuleVector(engine.sig, offset, {w: Fraction(1)}) for w in basis
    ]
    rows: List[List[Fraction]] = []
    for j in range(1, n + 1):
        low = simple_lowering(n, j)
        drop = engine.facts[low].weight_exp
        target = tuple(a + b for a, b in zip(offset, drop))
        if any(x < 0 for x in target):
            continue
        tbasis = engine.basis(target)
        images = [engine.act(low, u) for u in unit]
        for t_word in tbasis:
            rows.append([img.terms.get(t_word, Fraction(0)) for img in images])
    out = []
    for sol in nullspace(rows, cols=len(basis)):
        terms = {w: c for w, c in zip(basis, sol) if c}
        out.append(ModuleVector(engine.sig, offset, terms))
    return out


def find_singular(sig: Signature, beta: Sequence, m: int) -> List[ModuleVector]:
    """Solve for singular vectors of weight offset m*beta.

    Returns a basis of the solution space (often empty away from reduction
    points).  Raises AnomalyError when the reducibility criterion predicts
    a singular vector at (beta, m) but none exists.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError("m must be a positive integer")
    n = sig.n
    beta_coords = tuple(Fraction(x) for x in beta)
    exp = delta_to_simple(beta_coords)
    offset = tuple(int(m * x) for x in exp)
    if any(Fraction(m) * x != o for x, o in zip(exp, offset)) or any(
        x < 0 for x in offset
    ):
        raise ValueError(f"{beta_coords} is not a positive root multiple")
    engine = engine_for(sig)
    sols = singular_space(engine, offset)
    rs = build_root_system(n)
    mu = tuple(r - x for r, x in zip(rs.rho, lowest_weight(sig)))
    m_val = pairing(mu, beta_coords)
    predicted = m_val == m
    if predicted and not sols:
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
    # normalized as the full anticommutator of its two odd factors.  Engine
    # mix generators are half anticommutators and the double generator is a
    # plain square, so each mix or double symbol carries a factor two.
    scaled = []
    for word, coeff in terms:
        factor = Fraction(1)
        for gen in word:
            if gen.kind in (KIND_MIX, KIND_DOUBLE):
                factor *= 2
        scaled.append((word, coeff * factor))
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


def _entry(vector_id: str) -> CatalogEntry:
    entry = CATALOG.get(vector_id) or _COMPACT.get(vector_id)
    if entry is not None:
        return entry
    if vector_id.startswith("compact_"):
        raise ValueError("compact index must be in [1, 2]")
    raise ValueError(f"unknown printed vector id {vector_id!r}")


def _catalog_terms(vector_id: str, sig: Signature) -> List[Tuple[Word, Fraction]]:
    if sig.n != 3:
        raise ValueError("the printed catalog is rank-three only")
    return _entry(vector_id).terms(*(Fraction(x) for x in sig.a))


def printed_vector(vector_id: str, sig: Signature) -> ModuleVector:
    """The published linear combination, normal-ordered into PBW form."""
    engine = engine_for(sig)
    return engine.from_words(_catalog_terms(vector_id, sig))


def printed_regime(vector_id: str) -> Signature:
    """Default signature at which the printed vector is validated."""
    entry = _entry(vector_id)
    a = entry.regime_a
    if not entry.regime_point:
        return Signature(3, Fraction(1), a)
    return Signature(3, reduction_points(3, a).value(*entry.regime_point), a)


def verify_singular(vector_id: str, sig: Signature) -> bool:
    """True when the printed vector spans (part of) the solver's kernel.

    Proportionality test: the vector must be nonzero and lie in the span of
    find_singular's solution basis.  subsing_d13 delegates to the
    subsingular test.
    """
    entry = _entry(vector_id)
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
    if not sols:
        return False
    engine = engine_for(sig)
    basis = engine.basis(vec.offset)
    span, _ = rref([_vector_coords(s, basis) for s in sols])
    return in_span(span, _vector_coords(vec, basis))


# ------------------------------------------------------------- subsingular

def submodule_component(engine: VermaEngine, nu: Sequence[int]) -> List[List[Fraction]]:
    """Row space (rref) of the weight-nu slice of the singular-generated
    submodule: sums of U+ words applied to singular vectors of lower or
    equal weight."""
    nu = tuple(int(x) for x in nu)
    basis = engine.basis(nu)
    if not basis:
        return []
    rows: List[List[Fraction]] = []
    for sigma in product(*(range(x + 1) for x in nu)):
        if not any(sigma):
            continue
        sings = singular_space(engine, sigma)
        if not sings:
            continue
        diff = tuple(a - b for a, b in zip(nu, sigma))
        for u in weight_space_words(engine.n, diff):
            for s in sings:
                vec = engine.apply_word(u, s)
                if not vec.is_zero:
                    rows.append(_vector_coords(vec, basis))
    return rref(rows)[0] if rows else []


def is_subsingular(engine: VermaEngine, vec: ModuleVector) -> bool:
    """Outside the singular-generated submodule, lowered into it."""
    if vec.is_zero:
        return False
    nu = vec.offset
    basis = engine.basis(nu)
    span = submodule_component(engine, nu)
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
        tspan = submodule_component(engine, target)
        tbasis = engine.basis(target)
        if not in_span(tspan, _vector_coords(img, tbasis)):
            return False
    return True


def verify_subsingular(vector_id: str, sig: Signature) -> bool:
    if vector_id != "subsing_d13":
        raise ValueError("only subsing_d13 carries a subsingular claim")
    engine = engine_for(sig)
    return is_subsingular(engine, printed_vector(vector_id, sig))


# ---------------------------------------------------------- norm polynomials

def _lagrange(points: Sequence[Tuple[Fraction, Fraction]]) -> List[Fraction]:
    """Interpolating polynomial coefficients, ascending degree."""
    size = len(points)
    coeffs = [Fraction(0)] * size
    for i, (xi, yi) in enumerate(points):
        # numerator poly prod_{j != i} (x - x_j), built incrementally
        num = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            num = [Fraction(0)] + num
            for k in range(len(num) - 1):
                num[k] -= xj * num[k + 1]
            denom *= xi - xj
        scale = yi / denom
        for k, c in enumerate(num):
            coeffs[k] += scale * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def norm_polynomial_in_d(
    vector_id: str,
    a: Sequence[int],
    degree_bound: int = 8,
) -> List[Fraction]:
    """Shapovalov norm of the printed vector as a polynomial in d.

    Exact interpolation through degree_bound + 1 integer sample values of
    d, verified on one extra sample; raises when the bound is too small.
    The overall scale depends on normalization conventions; the zero set
    does not.
    """
    if degree_bound < 0:
        raise ValueError("degree bound must be nonnegative")
    a = tuple(a)
    base = 17
    points = []
    for s in range(degree_bound + 1):
        d = Fraction(base + s)
        sig = Signature(3, d, a)
        engine = engine_for(sig)
        vec = printed_vector(vector_id, sig)
        points.append((d, engine.norm(vec)))
    coeffs = _lagrange(points)
    d_extra = Fraction(base + degree_bound + 1)
    sig = Signature(3, d_extra, a)
    extra = engine_for(sig).norm(printed_vector(vector_id, sig))
    if poly_eval(coeffs, d_extra) != extra:
        raise ValueError(
            "interpolation inconsistent: degree bound too small for the norm"
        )
    return coeffs


def rational_zero_set(coeffs: Sequence[Fraction]) -> Tuple[Dict[Fraction, int], List[Fraction]]:
    """Rational roots with multiplicity, plus the root-free residual factor.

    Roots come from the rational root theorem on the primitive integer
    form; each is divided out to full multiplicity.  The residual has no
    rational roots left.
    """
    poly = [Fraction(c) for c in coeffs]
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    if all(c == 0 for c in poly):
        raise ValueError("zero polynomial has no meaningful zero set")
    roots: Dict[Fraction, int] = {}
    # powers of x
    k = 0
    while poly[0] == 0:
        poly = poly[1:]
        k += 1
    if k:
        roots[Fraction(0)] = k

    def divide_out(p: List[Fraction], r: Fraction) -> Optional[List[Fraction]]:
        # synthetic division by (x - r); None when r is not a root
        out = [Fraction(0)] * (len(p) - 1)
        acc = Fraction(0)
        for i in range(len(p) - 1, 0, -1):
            acc = p[i] + acc
            out[i - 1] = acc
            acc *= r
        return out if p[0] + acc == 0 else None

    changed = True
    while changed and len(poly) > 1:
        changed = False
        den = 1
        for c in poly:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in poly]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        ints = [v // g for v in ints]
        a0, al = abs(ints[0]), abs(ints[-1])

        def divisors(x: int) -> List[int]:
            out = []
            d = 1
            while d * d <= x:
                if x % d == 0:
                    out.append(d)
                    out.append(x // d)
                d += 1
            return sorted(set(out))

        candidates = set()
        for p in divisors(a0):
            for q in divisors(al):
                candidates.add(Fraction(p, q))
                candidates.add(Fraction(-p, q))
        for r in sorted(candidates):
            if poly_eval(poly, r) == 0:
                while True:
                    nxt = divide_out(poly, r)
                    if nxt is None:
                        break
                    poly = nxt
                    roots[r] = roots.get(r, 0) + 1
                changed = True
                break
    return roots, poly
