"""The hyperoctahedral Weyl group W(B_n) of signed permutations.

An element acts on the delta basis by delta_i -> sign_i * delta_{perm_i}.
Composition is right-to-left: (u * v)(x) = u(v(x)), and a reduced word
[k_1, ..., k_r] denotes s_{k_1} * ... * s_{k_r}, so s_{k_r} acts first.
Each element carries the lexicographically smallest reduced word.

Listing the group and walking a whole dot orbit cost about 2^n n! steps,
so generate takes the "weyl_group" ranks of root_system.RANKS and
multiplet_orbit the "multiplet" ranks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple

from ospuir.root_system import (
    Weight,
    build_root_system,
    check_rank,
    is_positive,
    rho_shift,
    simple_labels,
)


class WeylElement(NamedTuple):
    """Signed permutation with its length and lex-least reduced word.

    Elements are equal, and hash alike, when perm and signs are: length
    and reduced_word do not take part.
    """

    perm: Tuple[int, ...]           # 0-based images: delta_i -> signs[i]*delta_{perm[i]}
    signs: Tuple[int, ...]
    length: int = 0
    reduced_word: Tuple[int, ...] = ()

    @property
    def n(self) -> int:
        return len(self.perm)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.perm, self.signs) == (other.perm, other.signs)

    def __ne__(self, other: object) -> bool:   # tuple.__ne__ would compare all four
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        return hash((self.perm, self.signs))


def identity(n: int) -> WeylElement:
    return WeylElement(perm=tuple(range(n)), signs=(1,) * n, length=0, reduced_word=())


def simple_reflection(n: int, k: int) -> WeylElement:
    """s_k for 1 <= k <= n; s_n flips the last coordinate."""
    if not 1 <= k <= n:
        raise ValueError(f"generator index must be in [1, {n}], got {k}")
    perm = list(range(n))
    signs = [1] * n
    if k < n:
        perm[k - 1], perm[k] = perm[k], perm[k - 1]
    else:
        signs[n - 1] = -1
    return WeylElement(perm=tuple(perm), signs=tuple(signs), length=1, reduced_word=(k,))


def apply(w: WeylElement, lam: Sequence) -> Weight:
    """Linear action on delta coordinates."""
    out = [Fraction(0)] * w.n
    for i, x in enumerate(lam):
        out[w.perm[i]] = w.signs[i] * Fraction(x)
    return tuple(out)


def compose(u: WeylElement, v: WeylElement) -> WeylElement:
    """u * v, with v acting first.  Length and word are not filled in."""
    if u.n != v.n:
        raise ValueError("rank mismatch")
    perm = tuple(u.perm[v.perm[i]] for i in range(u.n))
    signs = tuple(v.signs[i] * u.signs[v.perm[i]] for i in range(u.n))
    return WeylElement(perm=perm, signs=signs)


def length_by_inversions(w: WeylElement) -> int:
    """Number of restricted positive roots sent to negative roots."""
    rs = build_root_system(w.n)
    return sum(1 for r in rs.restricted_positive if not is_positive(apply(w, r.coords)))


def from_word(n: int, word: Sequence[int]) -> WeylElement:
    w = identity(n)
    for k in word:
        w = compose(w, simple_reflection(n, k))
    return WeylElement(perm=w.perm, signs=w.signs,
                       length=length_by_inversions(w), reduced_word=tuple(word))


def generate(n: int) -> List[WeylElement]:
    """All 2^n n! elements, sorted by (length, reduced word).

    Breadth-first search by right multiplication; the stored word of each
    element is the lexicographically smallest among its reduced words.
    """
    check_rank("weyl_group", n)
    gens = [simple_reflection(n, k) for k in range(1, n + 1)]
    e = identity(n)
    # keyed by (perm, signs), the part of an element that equality reads
    words: Dict[tuple, Tuple[int, ...]] = {(e.perm, e.signs): ()}
    current = dict(words)
    while current:
        nxt: Dict[tuple, Tuple[int, ...]] = {}
        for (perm, signs), word in current.items():
            w = WeylElement(perm, signs)
            for k in range(1, n + 1):
                w2 = compose(w, gens[k - 1])
                key = (w2.perm, w2.signs)
                if key in words:
                    continue
                cand = word + (k,)
                if key not in nxt or cand < nxt[key]:
                    nxt[key] = cand
        words.update(nxt)
        current = nxt
    out = [
        WeylElement(perm=perm, signs=signs, length=len(word), reduced_word=word)
        for (perm, signs), word in words.items()
    ]
    out.sort(key=lambda w: (w.length, w.reduced_word))
    return out


def dot_act(w: WeylElement, lam: Sequence) -> Weight:
    """Shifted action w . lam = w(lam - rho) + rho = rho - w(rho - lam)."""
    return rho_shift(apply(w, rho_shift(lam)))


def find_w_lambda(lam: Weight) -> Tuple[WeylElement, Weight]:
    """Minimal w and dominant Lambda_0 with lam = w . Lambda_0.

    Requires all labels (rho - lam, alpha_k-vee) to be integers.  The word
    attached to w is its lexicographically smallest reduced word; when the
    dominant weight is stabilised by a parabolic subgroup, w is the minimal
    coset representative.
    """
    n = len(lam)
    rs = build_root_system(n)
    mu = rho_shift(lam)
    for alpha, c in zip(rs.simple, simple_labels(mu)):
        if c.denominator != 1:
            raise ValueError(f"weight is not integral: label {c} for root {alpha.coords}")
    word: List[int] = []
    while True:
        labels = simple_labels(mu)
        k = next((k for k, c in enumerate(labels) if c < 0), None)
        if k is None:
            break
        mu = [m - labels[k] * b for m, b in zip(mu, rs.simple[k].coords)]
        word.append(k + 1)
    w = from_word(n, word)
    lam0 = rho_shift(mu)
    return w, lam0


class MultipletNode(NamedTuple):
    index: int
    weight: Weight
    labels: Tuple[Fraction, ...]
    w: WeylElement


class Multiplet(NamedTuple):
    """Dot orbit of a dominant weight with length-increasing edges."""

    lambda0: Weight
    nodes: Tuple[MultipletNode, ...]
    edges: Tuple[Tuple[int, int, int], ...]   # (source index, target index, generator)


def multiplet_orbit(lam0: Weight) -> Multiplet:
    """Breadth-first dot orbit of lam0 under the simple reflections.

    The search reaches each weight first at the length of its minimal w and
    keeps the least word (k,) + word(parent) over the parents reaching it:
    its smallest left descent k, then the least word of s_k . weight, which
    is the reduced word find_w_lambda's greedy descent yields.  Nodes are
    sorted by (length of minimal w, its word); an edge (u, v, k) records
    s_k . weight_u = weight_v with length going up by one.
    """
    n = len(lam0)
    check_rank("multiplet", n)
    gens = [simple_reflection(n, k) for k in range(1, n + 1)]
    _, canon = find_w_lambda(lam0)
    if canon != lam0:
        raise ValueError("orbit start weight must be dominant-canonical")
    reps: Dict[Weight, WeylElement] = {lam0: identity(n)}
    arrows = []
    frontier = [lam0]
    while frontier:
        nxt: Dict[Weight, WeylElement] = {}
        for lam in frontier:
            parent = reps[lam]
            for k, g in enumerate(gens, start=1):
                lam2 = dot_act(g, lam)
                if lam2 in reps:
                    continue
                arrows.append((lam, lam2, k))
                word = (k,) + parent.reduced_word
                if lam2 not in nxt or word < nxt[lam2].reduced_word:
                    w = compose(g, parent)
                    nxt[lam2] = WeylElement(w.perm, w.signs, len(word), word)
        reps.update(nxt)
        frontier = list(nxt)
    ordered = sorted(reps, key=lambda l: (reps[l].length, reps[l].reduced_word))
    index = {lam: i for i, lam in enumerate(ordered)}
    nodes = [
        MultipletNode(index=index[lam], weight=lam,
                      labels=simple_labels(rho_shift(lam)), w=reps[lam])
        for lam in ordered
    ]
    edges = sorted((index[u], index[v], k) for u, v, k in arrows)
    return Multiplet(lambda0=lam0, nodes=tuple(nodes), edges=tuple(edges))


_EDGE_STYLE = {
    1: ("red", "solid"),
    2: ("blue", "dashed"),
    3: ("green", "dotted"),
}
_EXTRA_COLORS = ["purple", "orange", "brown", "cyan", "magenta"]


def multiplet_to_dot(mult: Multiplet) -> str:
    """Graphviz rendering with one colour and line style per generator."""
    lines = ["digraph multiplet {", "  rankdir=TB;"]
    for node in mult.nodes:
        label = "(" + ",".join(str(x) for x in node.labels) + ")"
        lines.append(f'  n{node.index} [label="{label}"];')
    for (u, v, k) in mult.edges:
        if k in _EDGE_STYLE:
            color, style = _EDGE_STYLE[k]
        else:
            color = _EXTRA_COLORS[(k - 4) % len(_EXTRA_COLORS)]
            style = "solid"
        lines.append(f"  n{u} -> n{v} [color={color}, style={style}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
