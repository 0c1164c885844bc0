"""Span tracer for the ospuir layers, installed from outside the library.

The tracer replaces a layer's public function or method at its module
attribute (and at every other ``ospuir`` module attribute bound to the same
object) with a wrapper that records a span.  Spans nest on one stack, so a
layer's self time is its span minus the spans of the traced calls it makes.
Counts are taken at the same boundaries.  Nothing in the library changes; a
target that no longer exists is reported as missing, never as zero.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# Every per-layer metric: name -> (unit, better).  BENCHMARK.json lists the
# same names; the self-test checks that the two agree.
CLI_COMMANDS = (
    "classify", "reduction-points", "grid", "gram", "verify", "character",
    "multiplet", "weyl",
)

METRICS: Dict[str, Tuple[str, str]] = {
    "algebra.structure_constants_s": ("s", "lower"),
    "module.engines_built": ("count", "lower"),
    "module.weight_space_words_s": ("s", "lower"),
    "module.act_word_terms_self_s": ("s", "lower"),
    "module.act_word_terms_calls": ("count", "lower"),
    "module.act_word_terms_hit_ratio": ("ratio", "higher"),
    "module.pair_words_self_s": ("s", "lower"),
    "module.pair_words_calls": ("count", "lower"),
    "module.pair_words_hit_ratio": ("ratio", "higher"),
    "module.gram_s": ("s", "lower"),
    "module.gram_blocks": ("count", "lower"),
    "module.gram_dim_max": ("count", "lower"),
    "module.gram_dim_sum": ("count", "lower"),
    "module.gram_entry_bits_max": ("bits", "lower"),
    "linalg.psd_witness_s": ("s", "lower"),
    "linalg.psd_witness_calls": ("count", "lower"),
    "linalg.nullspace_s": ("s", "lower"),
    "linalg.nullspace_calls": ("count", "lower"),
    "linalg.rref_s": ("s", "lower"),
    "singular.singular_space_self_s": ("s", "lower"),
    "singular.submodule_component_self_s": ("s", "lower"),
    "singular.norm_polynomial_in_d_s": ("s", "lower"),
    "singular.norm_polynomial_engines": ("count", "lower"),
    "characters.p_mul_s": ("s", "lower"),
    "characters.p_mul_calls": ("count", "lower"),
    "characters.p_mul_pairs": ("count", "lower"),
    "unitarity.classify_s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
}
METRICS.update({f"cli.request_s.{c}": ("s", "lower") for c in CLI_COMMANDS})


def _entry_bits(gram) -> int:
    return max(
        (max(x.numerator.bit_length(), x.denominator.bit_length())
         for row in gram.entries for x in row),
        default=0,
    )


class Tracer:
    """Spans and counters for one process; install() once, read totals()."""

    def __init__(self) -> None:
        self.stack: List[list] = []          # [name, start, child seconds]
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.keys: Dict[str, set] = defaultdict(set)
        self.counts: Dict[str, int] = defaultdict(int)
        self.missing: List[str] = []         # metric names whose target vanished
        self.engines: list = []              # kept alive so id() stays unique
        self.op_blocks: List[int] = []       # gram dims since the last mark
        self.op_bits = 0

    # ------------------------------------------------------------ spans

    def wrap(self, name: str, fn: Callable, key=None, after=None) -> Callable:
        stack, self_s, calls = self.stack, self.self_s, self.calls
        keys = self.keys[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[1]
                self_s[name] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            calls[name] += 1
            if key is not None:
                keys.add(key(*args))
            if after is not None:
                after(result, *args)
            return result

        functools.update_wrapper(wrapper, fn)
        return wrapper

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self.stack)

    # ------------------------------------------------------------ hooks

    def _engine_built(self, _result, engine, *_args) -> None:
        self.engines.append(engine)
        self.counts["engines_built"] += 1
        if self.inside("norm_polynomial_in_d"):
            self.counts["norm_polynomial_engines"] += 1

    def _gram_done(self, gram, *_args) -> None:
        dim = len(gram.basis)
        bits = _entry_bits(gram)
        self.counts["gram_blocks"] += 1
        self.counts["gram_dim_sum"] += dim
        self.counts["gram_dim_max"] = max(self.counts["gram_dim_max"], dim)
        self.counts["gram_entry_bits_max"] = max(self.counts["gram_entry_bits_max"], bits)
        self.op_blocks.append(dim)
        self.op_bits = max(self.op_bits, bits)

    def _p_mul_done(self, _result, f, g, *_args) -> None:
        self.counts["p_mul_pairs"] += len(f) * len(g)

    def mark(self) -> None:
        """Start a new per-operation window for gram block rows."""
        self.op_blocks = []
        self.op_bits = 0

    # ------------------------------------------------------------ install

    def targets(self):
        """(module, attribute path, span name, metric names, key, after)."""
        eng_key = lambda eng, a, b: (id(eng), a, b)  # noqa: E731
        return [
            ("ospuir.enveloping.algebra", "structure_constants", "structure_constants",
             ["algebra.structure_constants_s"], None, None),
            ("ospuir.enveloping.module", "weight_space_words", "weight_space_words",
             ["module.weight_space_words_s"], None, None),
            ("ospuir.enveloping.module", "VermaEngine.__init__", "engine_init",
             ["module.engines_built"], None, self._engine_built),
            ("ospuir.enveloping.module", "VermaEngine.act_word_terms", "act_word_terms",
             ["module.act_word_terms_self_s", "module.act_word_terms_calls",
              "module.act_word_terms_hit_ratio"], eng_key, None),
            ("ospuir.enveloping.module", "VermaEngine.pair_words", "pair_words",
             ["module.pair_words_self_s", "module.pair_words_calls",
              "module.pair_words_hit_ratio"], eng_key, None),
            ("ospuir.enveloping.module", "VermaEngine.gram", "gram",
             ["module.gram_s", "module.gram_blocks", "module.gram_dim_max",
              "module.gram_dim_sum", "module.gram_entry_bits_max"], None, self._gram_done),
            ("ospuir.linalg", "psd_witness", "psd_witness",
             ["linalg.psd_witness_s", "linalg.psd_witness_calls"], None, None),
            ("ospuir.linalg", "nullspace", "nullspace",
             ["linalg.nullspace_s", "linalg.nullspace_calls"], None, None),
            ("ospuir.linalg", "rref", "rref", ["linalg.rref_s"], None, None),
            ("ospuir.enveloping.singular", "singular_space", "singular_space",
             ["singular.singular_space_self_s"], None, None),
            ("ospuir.enveloping.singular", "submodule_component", "submodule_component",
             ["singular.submodule_component_self_s"], None, None),
            ("ospuir.enveloping.singular", "norm_polynomial_in_d", "norm_polynomial_in_d",
             ["singular.norm_polynomial_in_d_s", "singular.norm_polynomial_engines"],
             None, None),
            ("ospuir.characters", "p_mul", "p_mul",
             ["characters.p_mul_s", "characters.p_mul_calls", "characters.p_mul_pairs"],
             None, self._p_mul_done),
            ("ospuir.unitarity", "classify", "classify", ["unitarity.classify_s"], None, None),
        ]

    def install(self) -> None:
        """Wrap every target; call after the library's modules are imported."""
        for modname, path, name, metrics, key, after in self.targets():
            try:
                owner = importlib.import_module(modname)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.extend(metrics)
                continue
            wrapper = self.wrap(name, orig, key, after)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("ospuir"):
                    for attr_name, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr_name, wrapper)

    # ------------------------------------------------------------ results

    def totals(self) -> Dict[str, Optional[float]]:
        """Layer metrics measured in this process (cli.* excluded)."""
        s, c, n = self.self_s, self.calls, self.counts

        def hit(name: str) -> float:
            return 1.0 - len(self.keys[name]) / c[name] if c[name] else 0.0

        out: Dict[str, Optional[float]] = {
            "algebra.structure_constants_s": s["structure_constants"],
            "module.engines_built": n["engines_built"],
            "module.weight_space_words_s": s["weight_space_words"],
            "module.act_word_terms_self_s": s["act_word_terms"],
            "module.act_word_terms_calls": c["act_word_terms"],
            "module.act_word_terms_hit_ratio": hit("act_word_terms"),
            "module.pair_words_self_s": s["pair_words"],
            "module.pair_words_calls": c["pair_words"],
            "module.pair_words_hit_ratio": hit("pair_words"),
            "module.gram_s": s["gram"],
            "module.gram_blocks": n["gram_blocks"],
            "module.gram_dim_max": n["gram_dim_max"],
            "module.gram_dim_sum": n["gram_dim_sum"],
            "module.gram_entry_bits_max": n["gram_entry_bits_max"],
            "linalg.psd_witness_s": s["psd_witness"],
            "linalg.psd_witness_calls": c["psd_witness"],
            "linalg.nullspace_s": s["nullspace"],
            "linalg.nullspace_calls": c["nullspace"],
            "linalg.rref_s": s["rref"],
            "singular.singular_space_self_s": s["singular_space"],
            "singular.submodule_component_self_s": s["submodule_component"],
            "singular.norm_polynomial_in_d_s": s["norm_polynomial_in_d"],
            "singular.norm_polynomial_engines": n["norm_polynomial_engines"],
            "characters.p_mul_s": s["p_mul"],
            "characters.p_mul_calls": c["p_mul"],
            "characters.p_mul_pairs": n["p_mul_pairs"],
            "unitarity.classify_s": s["classify"],
        }
        for name in self.missing:
            out[name] = None
        return out
