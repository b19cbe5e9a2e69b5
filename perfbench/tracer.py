"""Span tracer for the leinster layers, installed from outside the package.

`Tracer.install` replaces every public function of the layer modules
(numtheory, families, oracle, search, verify, cli) with a wrapper that
records one span per call: function, parent span, start, end and a small
integer tag.  Because module attributes are replaced, calls made from inside
the same module (which look the name up in the module globals) are caught
too.  The methods of `oracle.FiniteGroup` that do oracle work (table
validation in the constructor, element orders, inverses) are wrapped as
well, so they count as oracle time when verify or families call them.
Methods of every other class are charged to the layer that calls them.  Spans live in compact arrays while the workload runs and are written
out once, at the end, by `Tracer.save`.

`layer_metrics` turns a saved span table into the per-layer metrics.  A
span's self time is its duration minus the durations of its direct children;
spans nest strictly, so the self times of all spans add up to the duration of
the root spans (the `cli.main` calls) with nothing counted twice.  That sum
is an identity of the arithmetic, not evidence that each span is charged to
the right layer; the latter rests on what is wrapped.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("numtheory", "families", "oracle", "search", "verify", "cli")

# methods wrapped per class, named "<layer>.<class>.<method>"
CLASS_METHODS = {
    "FiniteGroup": ("__init__", "rows", "inverses", "element_orders", "is_cyclic", "is_abelian"),
}

# the table constructor validates every table a builder makes
BUILD_METHODS = frozenset({"oracle.FiniteGroup.__init__"})

# oracle entry points that enumerate a subgroup lattice
LATTICE = frozenset(
    {
        "oracle.group_divisor_sum",
        "oracle.all_subgroups",
        "oracle.normal_subgroups",
        "oracle.is_nilpotent",
    }
)


def public_functions(module):
    """(name, function) for every public callable defined in `module` itself."""
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    """Records spans for wrapped calls; one instance per traced process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.fn = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("q")
        self._stack = [-1]
        self._seen_digests: set[bytes] = set()
        self._seen_factorize: set[int] = set()

    def install(self, modules) -> None:
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for name, fn in list(public_functions(module)):
                setattr(module, name, self._wrap(f"{layer}.{name}", fn))
            for cls_name, methods in CLASS_METHODS.items():
                cls = vars(module).get(cls_name)
                if cls is None or cls.__module__ != module.__name__:
                    continue
                for name in methods:
                    attr = cls.__dict__[name]
                    span = f"{layer}.{cls_name}.{name}"
                    if isinstance(attr, property):
                        setattr(cls, name, property(self._wrap(span, attr.fget)))
                    else:
                        setattr(cls, name, self._wrap(span, attr))

    # Tags record what a span did, for the ratio metrics:
    #   lattice entry points   1 if the table digest was seen before
    #   numtheory.factorize    1 if the argument was seen before
    #   families.zm_validate   1 if the triple is valid
    #   search.run_sweep       1 per record yielded (one span per next())
    #   search.run_classify    1 (one record)
    #   verify.run_verify      instances checked over all invariants
    def _pre_tag(self, name: str):
        if name in LATTICE:
            def pre(args):
                digest = args[0].digest()
                seen = digest in self._seen_digests
                self._seen_digests.add(digest)
                return int(seen)
            return pre
        if name == "numtheory.factorize":
            def pre(args):
                seen = args[0] in self._seen_factorize
                self._seen_factorize.add(args[0])
                return int(seen)
            return pre
        return None

    @staticmethod
    def _post_tag(name: str):
        if name == "families.zm_validate":
            return lambda result: int(result is not None)
        if name == "search.run_classify":
            return lambda result: 1
        if name == "verify.run_verify":
            return lambda results: sum(r.checked for r in results)
        return None

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        fns, parents, starts, ends, tags = self.fn, self.parent, self.start, self.end, self.tag
        stack = self._stack
        clock = time.perf_counter
        pre = self._pre_tag(name)
        post = self._post_tag(name)

        def open_span() -> int:
            i = len(starts)
            fns.append(fid)
            parents.append(stack[-1])
            tags.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            return i

        def close_span(i: int) -> None:
            ends[i] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):
            # a generator's work happens in next(), so each next() is a span;
            # the consumer's work between items belongs to the caller
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                while True:
                    i = open_span()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        close_span(i)
                    tags[i] = 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = open_span()
            try:
                if pre is not None:
                    tags[i] = pre(args)
                result = fn(*args, **kwargs)
            finally:
                close_span(i)
            if post is not None:
                tags[i] = post(result)
            return result

        return wrapper

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            fn=np.frombuffer(self.fn, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            tag=np.frombuffer(self.tag, dtype=np.int64),
        )


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its direct children."""
    dur = end - start
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    return dur - covered


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer metrics from a span table (a mapping of the arrays `save` writes)."""
    names = [str(x) for x in spans["names"]]
    fn = np.asarray(spans["fn"])
    parent = np.asarray(spans["parent"])
    start = np.asarray(spans["start"])
    end = np.asarray(spans["end"])
    tag = np.asarray(spans["tag"])
    own = self_times(parent, start, end)
    dur = end - start

    def pick(pred) -> np.ndarray:
        ids = [i for i, n in enumerate(names) if pred(n)]
        return np.isin(fn, ids)

    out: dict[str, float] = {}
    for layer in LAYERS:
        sel = pick(lambda n: n.startswith(layer + "."))
        out[f"{layer}.self_s"] = float(own[sel].sum())
        out[f"{layer}.calls"] = int(sel.sum())

    lattice = pick(lambda n: n in LATTICE)
    parent_is_lattice = np.zeros(len(fn), dtype=bool)
    nested = parent >= 0
    parent_is_lattice[nested] = lattice[parent[nested]]
    entry = lattice & ~parent_is_lattice
    out["oracle.lattice.self_s"] = float(own[lattice].sum())
    out["oracle.lattice.calls"] = int(entry.sum())
    out["oracle.lattice.max_call_s"] = float(dur[entry].max()) if entry.any() else 0.0
    out["oracle.lattice.repeat_ratio"] = _ratio(int(tag[entry].sum()), int(entry.sum()))

    # table builders, including quotient and the validation they run; calls
    # counts the builders only, not the constructors they call
    build = pick(lambda n: n.startswith("oracle.build_") or n == "oracle.quotient")
    validate = pick(lambda n: n in BUILD_METHODS)
    out["oracle.build.self_s"] = float(own[build | validate].sum())
    out["oracle.build.calls"] = int(build.sum())

    fact = pick(lambda n: n == "numtheory.factorize")
    out["numtheory.factorize.self_s"] = float(own[fact].sum())
    out["numtheory.factorize.calls"] = int(fact.sum())
    out["numtheory.factorize.repeat_ratio"] = _ratio(int(tag[fact].sum()), int(fact.sum()))

    prime = pick(lambda n: n == "numtheory.is_prime")
    out["numtheory.is_prime.self_s"] = float(own[prime].sum())
    out["numtheory.is_prime.calls"] = int(prime.sum())

    zmv = pick(lambda n: n == "families.zm_validate")
    out["families.zm_validate.calls"] = int(zmv.sum())
    out["families.zm_validate.valid_ratio"] = _ratio(int(tag[zmv].sum()), int(zmv.sum()))

    records = pick(lambda n: n in ("search.run_sweep", "search.run_classify"))
    out["search.records"] = int(tag[records].sum())
    out["verify.checked"] = int(tag[pick(lambda n: n == "verify.run_verify")].sum())
    return out
