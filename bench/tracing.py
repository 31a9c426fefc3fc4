"""Spans and counters around the library's public functions.

`Tracer.install()` rebinds each traced function in every `stabaut.*`
namespace that holds it (a `from .codes import compose` is a second
binding) and in the job builders, which call the library directly.  A
span is recorded only while a job is running: name, start, end, parent
span and job id, kept in memory and written out once at the end.  Hot
constructors get a counter and no span.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter, defaultdict

import stabaut.cli as cli
import stabaut.codes as codes
import stabaut.dimrep as dimrep
import stabaut.generators as generators
import stabaut.invariants as invariants
import stabaut.krembed as krembed
import stabaut.permlab as permlab
import stabaut.shifts as shifts


def _compose_result(counts, args, kwargs, result):
    if result.shift_by is None and result.block_map is None:
        counts["codes.compose.dense"] += 1
        counts["codes.compose.windows"] += len(result.tables[0]) * result.period


def _equals_path(counts, args, kwargs, result):
    f, g = args[0], args[1]
    sft = args[2] if len(args) > 2 else kwargs.get("sft")
    if sft is None and f.block_map is not None and g.block_map is not None:
        counts["codes.equals.structured"] += 1


def _find_inverse_hit(counts, args, kwargs, result):
    counts["codes.find_inverse.hits"] += result is not None


def _census_yield(counts, args, kwargs, result):
    n, r, k = args[:3]
    counts["codes.enumerate_automorphisms.candidates"] += n ** (n ** (2 * r + 1) * k)
    counts["codes.enumerate_automorphisms.survivors"] += len(result)


def _code_entries(counts, args, kwargs, result):
    code = args[0]
    entries = code.n ** (2 * code.radius + 1) * code.period
    counts["codes.table_entries_peak"] = max(counts["codes.table_entries_peak"], entries)


def _ray_keys(counts, args, kwargs, result):
    aut = args[0]
    free = 2 * aut.forward.radius + aut.inverse.radius
    counts["dimrep.ray_image_count.keys"] += aut.forward.n**free


def _embed_windows(counts, args, kwargs, result):
    code, scheme = args[0], args[1]
    counts["krembed.embed_code.windows"] += scheme.q ** (2 * code.radius * scheme.gap + 1)


def _pcycle_found(counts, args, kwargs, result):
    counts["permlab.p_cycle_search.found"] += result is not None


def _bytes_read(counts, args, kwargs, result):
    counts["cli.bytes_read"] += os.path.getsize(args[0])


def _bytes_written(counts, args, kwargs, result):
    counts["cli.bytes_written"] += os.path.getsize(args[1])


# (span name, owner, attribute, hook run on each successful call)
TRACED = [
    ("codes.compose", codes, "compose", _compose_result),
    ("codes.equals", codes, "equals", _equals_path),
    ("codes.refine", codes.StabilizedCode, "refine", None),
    ("codes.verify_inverse_pair", codes, "verify_inverse_pair", None),
    ("codes.commutes_with_shift_power", codes, "commutes_with_shift_power", None),
    ("codes.find_inverse", codes, "find_inverse", _find_inverse_hit),
    ("codes.enumerate_automorphisms", codes, "enumerate_automorphisms", _census_yield),
    ("codes.StabilizedCode.init", codes.StabilizedCode, "__post_init__", _code_entries),
    ("dimrep.ray_image_count", dimrep, "ray_image_count", _ray_keys),
    ("dimrep.dimension_multiplier", dimrep, "dimension_multiplier", None),
    ("krembed.embed_code", krembed, "embed_code", _embed_windows),
    ("generators.mth_root_of", generators, "mth_root_of", None),
    ("generators.swap_commutator_witness", generators, "swap_commutator_witness", None),
    ("generators.symbol_permutation", generators, "symbol_permutation", None),
    ("generators.shift_power", generators, "shift_power", None),
    ("permlab.GroupHandle.order", permlab.GroupHandle, "order", None),
    ("permlab.GroupHandle.elements", permlab.GroupHandle, "elements", None),
    ("permlab.is_primitive", permlab, "is_primitive", None),
    ("permlab.jordan_verdict", permlab, "jordan_verdict", None),
    ("permlab.p_cycle_search", permlab, "p_cycle_search", _pcycle_found),
    ("permlab.goursat_decompose", permlab, "goursat_decompose", None),
    ("permlab.three_cycle_from_arrangement", permlab, "three_cycle_from_arrangement", None),
    ("cli.run", cli, "run", None),
    ("cli.load_automorphism", cli, "load_automorphism", _bytes_read),
    ("cli.save_automorphism", cli, "save_automorphism", _bytes_written),
    ("cli.save_scheme", cli, "save_scheme", _bytes_written),
]

# hot paths: a call count only
COUNTED = [
    ("permlab.permutations_built", permlab.Permutation, "__post_init__"),
    ("permlab.minimal_block.calls", permlab, "minimal_block"),
]

# modules measured as a whole: every public function they define
WHOLE_MODULES = [("invariants", invariants), ("shifts", shifts)]


def _rebind(original, wrapper) -> None:
    """Replace `original` in every stabaut namespace and in the job builders."""
    for name, module in list(sys.modules.items()):
        if name in ("stabaut", "workloads") or name.startswith("stabaut."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, parent index, job id)
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.job: int | None = None

    def _span(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is None:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer.stack[-1] if tracer.stack else -1
            tracer.spans.append(None)
            tracer.stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer.stack.pop()
                tracer.spans[index] = (name, start, end, parent, tracer.job)
            if hook is not None:
                hook(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.job is not None:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        for name, owner, attr, hook in TRACED:
            self._wrap(owner, attr, self._span(name, getattr(owner, attr), hook))
        for name, owner, attr in COUNTED:
            self._wrap(owner, attr, self._counter(name, getattr(owner, attr)))
        for prefix, module in WHOLE_MODULES:
            for attr, fn in list(vars(module).items()):
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not attr.startswith("_")):
                    self._wrap(module, attr, self._span(f"{prefix}.{attr}", fn, None))

    @staticmethod
    def _wrap(owner, attr, wrapper) -> None:
        if inspect.isclass(owner):
            setattr(owner, attr, wrapper)
        else:
            _rebind(getattr(owner, attr), wrapper)

    def self_times(self) -> dict[str, float]:
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def calls(self) -> Counter:
        return Counter(span[0] for span in self.spans)

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": self.spans, "counts": self.counts}, fh)


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, rounds: int, import_s: float, overhead: float,
              max_entries: int) -> dict[str, float]:
    """The per-layer metrics, per round of the job list."""
    self_s = tracer.self_times()
    calls = tracer.calls()
    cnt = tracer.counts
    out = {
        "codes.compose.calls": calls["codes.compose"] / rounds,
        "codes.compose.self_s": self_s["codes.compose"] / rounds,
        "codes.compose.windows": cnt["codes.compose.windows"] / rounds,
        "codes.compose.dense_frac": _frac(cnt["codes.compose.dense"], calls["codes.compose"]),
        "codes.equals.calls": calls["codes.equals"] / rounds,
        "codes.equals.self_s": self_s["codes.equals"] / rounds,
        "codes.equals.structured_frac": _frac(cnt["codes.equals.structured"],
                                              calls["codes.equals"]),
        "codes.refine.self_s": self_s["codes.refine"] / rounds,
        "codes.verify_inverse_pair.calls": calls["codes.verify_inverse_pair"] / rounds,
        "codes.verify_inverse_pair.self_s": self_s["codes.verify_inverse_pair"] / rounds,
        "codes.commutes_with_shift_power.self_s":
            self_s["codes.commutes_with_shift_power"] / rounds,
        "codes.find_inverse.calls": calls["codes.find_inverse"] / rounds,
        "codes.find_inverse.self_s": self_s["codes.find_inverse"] / rounds,
        "codes.find_inverse.hit_frac": _frac(cnt["codes.find_inverse.hits"],
                                             calls["codes.find_inverse"]),
        "codes.enumerate_automorphisms.self_s": self_s["codes.enumerate_automorphisms"] / rounds,
        "codes.enumerate_automorphisms.yield_frac": _frac(
            cnt["codes.enumerate_automorphisms.survivors"],
            cnt["codes.enumerate_automorphisms.candidates"]),
        "codes.StabilizedCode.init.calls": calls["codes.StabilizedCode.init"] / rounds,
        "codes.StabilizedCode.init.self_s": self_s["codes.StabilizedCode.init"] / rounds,
        "codes.table_entries_peak_frac": cnt["codes.table_entries_peak"] / max_entries,
        "dimrep.ray_image_count.calls": calls["dimrep.ray_image_count"] / rounds,
        "dimrep.ray_image_count.self_s": self_s["dimrep.ray_image_count"] / rounds,
        "dimrep.ray_image_count.keys": cnt["dimrep.ray_image_count.keys"] / rounds,
        "dimrep.dimension_multiplier.self_s": self_s["dimrep.dimension_multiplier"] / rounds,
        "krembed.embed_code.calls": calls["krembed.embed_code"] / rounds,
        "krembed.embed_code.self_s": self_s["krembed.embed_code"] / rounds,
        "krembed.embed_code.windows": cnt["krembed.embed_code.windows"] / rounds,
    }
    for fn in ("mth_root_of", "swap_commutator_witness", "symbol_permutation", "shift_power"):
        out[f"generators.{fn}.self_s"] = self_s[f"generators.{fn}"] / rounds
    out.update({
        "permlab.GroupHandle.order.calls": calls["permlab.GroupHandle.order"] / rounds,
        "permlab.GroupHandle.order.self_s": self_s["permlab.GroupHandle.order"] / rounds,
        "permlab.permutations_built": cnt["permlab.permutations_built"] / rounds,
        "permlab.is_primitive.self_s": self_s["permlab.is_primitive"] / rounds,
        "permlab.minimal_block.calls": cnt["permlab.minimal_block.calls"] / rounds,
        "permlab.jordan_verdict.self_s": self_s["permlab.jordan_verdict"] / rounds,
        "permlab.p_cycle_search.calls": calls["permlab.p_cycle_search"] / rounds,
        "permlab.p_cycle_search.self_s": self_s["permlab.p_cycle_search"] / rounds,
        "permlab.p_cycle_search.found_frac": _frac(cnt["permlab.p_cycle_search.found"],
                                                   calls["permlab.p_cycle_search"]),
        "permlab.GroupHandle.elements.self_s": self_s["permlab.GroupHandle.elements"] / rounds,
        "permlab.goursat_decompose.self_s": self_s["permlab.goursat_decompose"] / rounds,
        "permlab.three_cycle_from_arrangement.self_s":
            self_s["permlab.three_cycle_from_arrangement"] / rounds,
    })
    for prefix, _ in WHOLE_MODULES:
        out[f"{prefix}.self_s"] = sum(v for k, v in self_s.items()
                                      if k.startswith(prefix + ".")) / rounds
    out.update({
        "cli.import_s": import_s,
        "cli.load_automorphism.calls": calls["cli.load_automorphism"] / rounds,
        "cli.load_automorphism.self_s": self_s["cli.load_automorphism"] / rounds,
        "cli.save_automorphism.self_s": self_s["cli.save_automorphism"] / rounds,
        "cli.run.self_s": self_s["cli.run"] / rounds,
        "cli.bytes_read": cnt["cli.bytes_read"] / rounds,
        "cli.bytes_written": cnt["cli.bytes_written"] / rounds,
        "trace.overhead": overhead,
    })
    return out


# unit of each per-layer metric, by name suffix
def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name == "trace.overhead":
        return "ratio"
    if name.startswith("cli.bytes"):
        return "bytes"
    return "count"
