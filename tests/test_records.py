"""The library's records: pinned reprs, and a cold import that loads
neither dataclasses nor inspect.

Every record is a NamedTuple.  Its repr is part of the output contract:
the structure-table digests hash repr(Generator), and CLI error messages
print signatures.
"""

import os
import pathlib
import subprocess
import sys
from fractions import Fraction

from ospuir.characters import CharacterSeries, NormalizedCharacter, unitary_character
from ospuir.enveloping.algebra import Generator, StructureTable
from ospuir.enveloping.module import GramMatrix, ModuleVector, gram_psd_check
from ospuir.root_system import RootVector, build_root_system
from ospuir.unitarity import GridRow, classify
from ospuir.weights import Signature, reducibility_report, reduction_points
from ospuir.weyl import WeylElement, multiplet_orbit

SRC_DIR = pathlib.Path(__file__).resolve().parent.parent / "src"

RECORDS = {
    "RootVector", "RootSystemData",
    "Signature", "ReducibilityEntry", "ReducibilityReport", "ReductionPoints",
    "UnitarityVerdict", "GridRow",
    "WeylElement", "MultipletNode", "Multiplet",
    "CharacterSeries", "NormalizedCharacter",
    "Generator", "StructureTable",
    "ModuleVector", "GramMatrix", "PsdReport",
}


def test_record_reprs_are_pinned():
    # captured from the frozen dataclasses these records were before
    sig = Signature(3, "1/2", [0, 1])
    orbit = multiplet_orbit((Fraction(0),))
    odd = Generator("odd", 1)
    cases = [
        (sig,
         "Signature(n=3, d=Fraction(1, 2), a=(0, 1))"),
        (RootVector((Fraction(1), Fraction(-1)), "even"),
         "RootVector(coords=(Fraction(1, 1), Fraction(-1, 1)), parity='even')"),
        (build_root_system(1),
         "RootSystemData(n=1, positive_even=(RootVector(coords=(Fraction(2, "
         "1),), parity='even'),), positive_odd=(RootVector(coords=(Fraction(1, "
         "1),), parity='odd'),), "
         "restricted_positive=(RootVector(coords=(Fraction(1, 1),), "
         "parity='odd'),), simple=(RootVector(coords=(Fraction(1, 1),), "
         "parity='odd'),), rho=(Fraction(1, 2),), families=(('delta_i', 1, None, "
         "RootVector(coords=(Fraction(1, 1),), parity='odd'), (Fraction(2, "
         "1),)), ('2delta_i', 1, 1, RootVector(coords=(Fraction(2, 1),), "
         "parity='even'), (Fraction(1, 1),))), simple_coroots=((Fraction(2, "
         "1),),), restricted_exps=((1,),))"),
        (reducibility_report(Signature(1, 1, ())),
         "ReducibilityReport(sig=Signature(n=1, d=Fraction(1, 1), a=()), "
         "entries=(ReducibilityEntry(root=RootVector(coords=(Fraction(1, 1),), "
         "parity='odd'), family='delta_i', i=1, j=None, m_value=Fraction(-1, 1), "
         "satisfied=False), "
         "ReducibilityEntry(root=RootVector(coords=(Fraction(2, 1),), "
         "parity='even'), family='2delta_i', i=1, j=1, m_value=Fraction(-1, 2), "
         "satisfied=False)))"),
        (reducibility_report(Signature(2, 1, (0,))).entries[0],
         "ReducibilityEntry(root=RootVector(coords=(Fraction(1, 1), Fraction(-1, "
         "1)), parity='even'), family='delta_i-delta_j', i=1, j=2, "
         "m_value=Fraction(1, 1), satisfied=True)"),
        (reduction_points(2, (1,)),
         "ReductionPoints(n=2, a=(1,), points={(1, None): Fraction(3, 2), (2, "
         "None): Fraction(-1, 2), (1, 1): Fraction(1, 1), (2, 2): Fraction(-1, "
         "1), (1, 2): Fraction(1, 2)})"),
        (classify(sig),
         "UnitarityVerdict(sig=Signature(n=3, d=Fraction(1, 2), a=(0, 1)), "
         "unitary=False, branch='nonunitary', governing_point=None, "
         "first_nonzero_label=2, kappa=Fraction(1, 2), "
         "audit={'leading_zero_count': 1, 'kappa': Fraction(1, 2), 'threshold': "
         "Fraction(2, 1), 'isolated_points': (Fraction(3, 2),), 'note': "
         "'isolated points read as the 2*kappa half-integer steps directly below "
         "the boundary'})"),
        (GridRow(Signature(1, 0, ()), classify(Signature(1, 0, ()))),
         "GridRow(sig=Signature(n=1, d=Fraction(0, 1), a=()), "
         "verdict=UnitarityVerdict(sig=Signature(n=1, d=Fraction(0, 1), a=()), "
         "unitary=True, branch='trivial', governing_point=('d1', Fraction(0, "
         "1)), first_nonzero_label=None, kappa=Fraction(0, 1), "
         "audit={'leading_zero_count': 0, 'kappa': Fraction(0, 1), 'threshold': "
         "Fraction(0, 1), 'isolated_points': (), 'note': 'isolated points read "
         "as the 2*kappa half-integer steps directly below the boundary'}))"),
        (WeylElement((1, 0), (1, -1), 3, (1, 2, 1)),
         "WeylElement(perm=(1, 0), signs=(1, -1), length=3, reduced_word=(1, 2, "
         "1))"),
        (orbit,
         "Multiplet(lambda0=(Fraction(0, 1),), nodes=(MultipletNode(index=0, "
         "weight=(Fraction(0, 1),), labels=(Fraction(1, 1),), "
         "w=WeylElement(perm=(0,), signs=(1,), length=0, reduced_word=())), "
         "MultipletNode(index=1, weight=(Fraction(1, 1),), labels=(Fraction(-1, "
         "1),), w=WeylElement(perm=(0,), signs=(-1,), length=1, "
         "reduced_word=(1,)))), edges=((0, 1, 1),))"),
        (orbit.nodes[1],
         "MultipletNode(index=1, weight=(Fraction(1, 1),), labels=(Fraction(-1, "
         "1),), w=WeylElement(perm=(0,), signs=(-1,), length=1, "
         "reduced_word=(1,)))"),
        (CharacterSeries(2, 3, {(1, 0): 2, (0, 0): Fraction(1, 2), (2, 2): 5, (0, 1): 0}),
         "CharacterSeries(n=2, maxdeg=3, coeffs={(1, 0): Fraction(2, 1), (0, 0): "
         "Fraction(1, 2)})"),
        (NormalizedCharacter((Fraction(-1, 2),), CharacterSeries(1, 1, {(1,): 1})),
         "NormalizedCharacter(prefix=(Fraction(-1, 2),), "
         "series=CharacterSeries(n=1, maxdeg=1, coeffs={(1,): Fraction(1, 1)}))"),
        (Generator("mix", 1, 2),
         "Generator(kind='mix', i=1, j=2, sign=1)"),
        (StructureTable(1, (odd,), {odd: 0}, ((),), ("raising",), ((0,),), (0,), (True,),
                        ((1,),), (-1,), (odd,)),
         "StructureTable(n=1, generators=(Generator(kind='odd', i=1, j=0, "
         "sign=1),), code={Generator(kind='odd', i=1, j=0, sign=1): 0}, "
         "brackets=((),), cls=('raising',), pbw_key=((0,),), omega=(0,), "
         "odd=(True,), weight_exp=((1,),), square=(-1,), "
         "raising=(Generator(kind='odd', i=1, j=0, sign=1),))"),
        (ModuleVector(sig, (0, 0, 1), {(Generator("odd", 3),): 2, (): 0}),
         "ModuleVector(sig=Signature(n=3, d=Fraction(1, 2), a=(0, 1)), "
         "offset=(0, 0, 1), terms={(Generator(kind='odd', i=3, j=0, sign=1),): "
         "Fraction(2, 1)})"),
        (GramMatrix((0, 1), ((Generator("odd", 2),),), ((1,),), 2),
         "GramMatrix(weight_offset=(0, 1), basis=((Generator(kind='odd', i=2, "
         "j=0, sign=1),),), scaled=((1,),), scale=2)"),
        (gram_psd_check(Signature(2, 0, (0,)), 1),
         "PsdReport(sig=Signature(n=2, d=Fraction(0, 1), a=(0,)), max_level=1, "
         "psd=True, witness=None, witness_norm=None, witness_offset=None, "
         "levels_checked=(1,))"),
    ]
    assert {type(record).__name__ for record, _ in cases} == RECORDS
    for record, expected in cases:
        assert repr(record) == expected


UNITARY_CHARACTER_DOC = (
    "Character of a unitary rank-three module at a reduction point.\n"
    "\n"
    "The case is a key of UNITARY or an alias of one.  Its row fixes the\n"
    "labels a, the alternating sum of compact sl(3) characters that is\n"
    "divided by the six noncompact factors, and the point d, named as in\n"
    "the paper's character formulae:\n"
    "\n"
    "  d1      d = d1   integer labels m1 >= 1, m2 >= 1\n"
    "  d12     d = d12  an integer label m2 > 1\n"
    "  d2eq13  d = d2   no labels\n"
    "  d2      d = d2   an integer label m2 >= 2\n"
    "  d23     d = d23  no labels"
)


def run_fresh(*flags, code):
    """stdout of code run with the given interpreter flags in a fresh
    process that imports ospuir from the source tree."""
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC_DIR)),
        capture_output=True, text=True, check=True,
    )
    return proc.stdout


def test_unitary_character_docstring_is_pinned():
    assert unitary_character.__doc__ == UNITARY_CHARACTER_DOC
    code = "from ospuir.characters import unitary_character as u; print(u.__doc__)"
    assert run_fresh("-OO", code=code) == "None\n"


_COLD_IMPORTS = """
import sys
import ospuir.cli
import ospuir, ospuir.characters, ospuir.unitarity, ospuir.enveloping.algebra
import ospuir.enveloping.module, ospuir.enveloping.singular, ospuir.weyl
print(sorted({"dataclasses", "inspect"} & set(sys.modules)))
"""


def test_no_import_loads_dataclasses_or_inspect():
    # the CLI, then what a benchmark worker imports, then the rest; -S keeps
    # the site module and its .pth files out, so only ospuir's imports count
    assert run_fresh("-S", code=_COLD_IMPORTS) == "[]\n"
