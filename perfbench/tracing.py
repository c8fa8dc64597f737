"""Per-layer tracing of polyforge from outside the package.

The traced run wraps named functions and methods of the polyforge
modules in span wrappers that record calls and self time (a span's
duration minus the time its child spans cover).  A function imported by
value into another module (``from .exactfield import mat_rank``) is a
second reference to the same object, so every reference found in a
polyforge module is rebound to the wrapper; otherwise those calls would
escape their spans.  The hottest field operations get counting-only
wrappers, because a timed span around each would swamp what it measures.

Nothing under ``src/`` changes: ``Tracer.uninstall`` restores every
attribute it replaced.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (module, attribute or "Class.method", span name); the span name's first
# component is the layer whose self time the span adds to.
SPANS = (
    ("exactfield", "mat_rank", "exactfield.mat_rank"),
    ("exactfield", "mat_rref", "exactfield.mat_rref"),
    ("exactfield", "mat_nullspace", "exactfield.mat_nullspace"),
    ("exactfield", "mat_det", "exactfield.mat_det"),
    ("exactfield", "mat_solve", "exactfield.mat_solve"),
    ("exactfield", "lp_feasible", "exactfield.lp_feasible"),
    ("cct", "generate", "cct.generate"),
    ("cct", "extend", "cct.extend"),
    ("cct", "check_symmetric", "cct.check_symmetric"),
    # extend calls the predicate cores directly; the public check_* are
    # check_symmetric plus the core, so the cores carry the span names.
    ("cct", "_transversal_core", "cct.check_transversal"),
    ("cct", "_slope_core", "cct.check_slope_obtuse"),
    ("cct", "_oriented_core", "cct.check_oriented"),
    ("cct", "certify_facet", "cct.certify_facet"),
    ("cct", "reconstruct_cube_corner", "cct.reconstruct_cube_corner"),
    ("complexcore", "SimplicialComplex.__init__", "complexcore.init"),
    ("complexcore", "SimplicialComplex.link", "complexcore.link"),
    ("complexcore", "SimplicialComplex.one_skeleton", "complexcore.one_skeleton"),
    ("complexcore", "SimplicialComplex.dual_graph", "complexcore.dual_graph"),
    ("complexcore", "SimplicialComplex.faces", "complexcore.faces"),
    ("complexcore", "SimplicialComplex.derived_subdivision",
     "complexcore.derived_subdivision"),
    ("complexcore", "FacePoset.from_simplicial", "complexcore.face_poset"),
    ("complexcore", "FacePoset.from_cubical", "complexcore.face_poset"),
    ("hirschpath", "combinatorial_segment", "hirschpath.combinatorial_segment"),
    ("hirschpath", "validate_path", "hirschpath.validate_path"),
    ("hirschpath", "is_non_revisiting", "hirschpath.is_non_revisiting"),
    ("hirschpath", "dual_diameter", "hirschpath.dual_diameter"),
    ("morse", "collapse_search", "morse.collapse_search"),
    ("morse", "out_j_collapse", "morse.out_j_collapse"),
    ("morse", "validate_matching", "morse.validate_matching"),
    ("morse", "critical_faces", "morse.critical_faces"),
    ("arrangement", "intersection_poset", "arrangement.intersection_poset"),
    ("arrangement", "gm_betti", "arrangement.gm_betti"),
    ("arrangement", "betti_reduced_homology", "arrangement.betti_reduced_homology"),
    ("arrangement", "lefschetz_inequality_check",
     "arrangement.lefschetz_inequality_check"),
    ("arrangement", "AffineSubspace.intersect", "arrangement.intersect"),
    ("projective", "evaluate_slp", "projective.evaluate_slp"),
    ("projective", "flat_span", "projective.flat_span"),
    ("projective", "flat_meet", "projective.flat_meet"),
    ("projective", "frame_replay", "projective.frame_replay"),
    ("projective", "compile_polynomial", "projective.compile_polynomial"),
    ("projective", "lawrence_extension", "projective.lawrence_extension"),
    ("projective", "lawrence_face_certificate",
     "projective.lawrence_face_certificate"),
    ("cli", "main", "cli.main"),
    ("cli", "_emit", "cli.serialize"),
    ("cli", "_load_json", "cli.serialize"),
    ("cct", "GeoCCT.to_json", "cli.serialize"),
    ("cct", "GeoCCT.from_json", "cli.serialize"),
    ("exactfield", "FieldElem.to_json", "cli.serialize"),
    ("exactfield", "FieldElem.from_json", "cli.serialize"),
)

# arrangement eliminates through exactfield._echelon directly.  Only that
# by-value reference is wrapped: inside exactfield, _echelon stays part of
# the mat_* span that called it.
ECHELON = ("exactfield", "_echelon", "exactfield.echelon", ("arrangement",))

COUNTED = (
    ("FieldElem.__mul__", "exactfield.mul_calls"),
    ("FieldElem.__rmul__", "exactfield.mul_calls"),
    ("FieldElem.__add__", "exactfield.add_calls"),
    ("FieldElem.__radd__", "exactfield.add_calls"),
    ("FieldElem.sign", "exactfield.sign_calls"),
    ("FieldElem.inverse", "exactfield.inverse_calls"),
)

LAYERS = ("exactfield", "complexcore", "hirschpath", "morse", "arrangement",
          "cct", "projective", "cli")

ELIMINATIONS = {"exactfield.mat_rank", "exactfield.mat_rref",
                "exactfield.mat_nullspace", "exactfield.mat_det",
                "exactfield.mat_solve", "exactfield.echelon"}


def _cells(args):
    m = args[0]
    return len(m) * len(m[0]) if m else 0


def _slp_steps(args):
    return len(args[0].steps)


def span_names() -> list:
    names = []
    for _, _, name in SPANS + (ECHELON[:3],):
        if name not in names:
            names.append(name)
    return names


class Tracer:
    """Calls, self time and counters for the wrapped polyforge names."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self._stack = [[0.0]]
        self._undo = []

    def _span(self, name, fn, size=None, counter=None):
        calls, self_s, counts, stack = self.calls, self.self_s, self.counts, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                stack[-1][0] += dur
                self_s[name] = self_s.get(name, 0.0) + dur - frame[0]
                calls[name] = calls.get(name, 0) + 1
                if size is not None:
                    counts[counter] = counts.get(counter, 0) + size(args)
        return wrapper

    def _counting(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] = counts.get(counter, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, orig, wrapper, module_names):
        for mod_name in module_names:
            mod = sys.modules[f"polyforge.{mod_name}"]
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, attr, wrapper)

    def _wrap_method(self, cls, attr, make):
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._set(cls, attr, classmethod(make(raw.__func__)))
        else:
            self._set(cls, attr, make(raw))

    def install(self):
        import polyforge.cli  # noqa: F401  (imports every polyforge module)

        every = tuple(name.split(".")[1] for name in sys.modules
                      if name.startswith("polyforge."))
        for mod_name, attr, name in SPANS:
            mod = sys.modules[f"polyforge.{mod_name}"]
            if name in ELIMINATIONS:
                sizer, counter = _cells, "exactfield.elim_cells"
            elif name == "projective.evaluate_slp":
                sizer, counter = _slp_steps, "projective.slp_steps"
            else:
                sizer = counter = None
            if "." in attr:
                cls_name, meth = attr.split(".")
                self._wrap_method(
                    getattr(mod, cls_name), meth,
                    lambda fn, n=name, s=sizer, c=counter: self._span(n, fn, s, c))
            else:
                orig = getattr(mod, attr)
                self._rebind(orig, self._span(name, orig, sizer, counter), every)
        mod_name, attr, name, where = ECHELON
        orig = getattr(sys.modules[f"polyforge.{mod_name}"], attr)
        self._rebind(orig, self._span(name, orig, _cells, "exactfield.elim_cells"),
                     where)
        field_cls = sys.modules["polyforge.exactfield"].FieldElem
        for attr, counter in COUNTED:
            self._wrap_method(field_cls, attr.split(".")[1],
                              lambda fn, c=counter: self._counting(c, fn))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def layer_self_s(self) -> dict:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, secs in self.self_s.items():
            out[name.split(".")[0]] += secs
        return out


def _per_call(fn, items, min_seconds=0.2, min_repeats=5):
    """Median seconds per item over repeated timed loops of ``fn``."""
    samples = []
    spent = 0.0
    while len(samples) < min_repeats or spent < min_seconds:
        start = time.perf_counter()
        for item in items:
            fn(item)
        dur = time.perf_counter() - start
        spent += dur
        samples.append(dur / len(items))
    return statistics.median(samples)


def field_kernel(operands, cells) -> dict:
    """Field-operation and small-elimination timings on given operands.

    ``operands`` are field elements drawn from a workload's inputs;
    ``cells`` are the 8 x 5 corner-row matrices of tube 3-cells.  Run it
    with no tracer installed.
    """
    from polyforge.exactfield import mat_nullspace, mat_rank

    pairs = list(zip(operands, operands[1:] + operands[:1]))
    nonzero = [x for x in operands if x]
    triples = [rows[:3] for rows in cells]
    bits = [sum(c.numerator.bit_length() + c.denominator.bit_length()
                for c in x.coeffs()) for x in operands]
    return {
        "exactfield.mul_ns": 1e9 * _per_call(lambda p: p[0] * p[1], pairs),
        "exactfield.add_ns": 1e9 * _per_call(lambda p: p[0] + p[1], pairs),
        "exactfield.sign_ns": 1e9 * _per_call(lambda x: x.sign(), operands),
        "exactfield.inverse_ns": 1e9 * _per_call(lambda x: x.inverse(), nonzero),
        "exactfield.rank_8x5_us": 1e6 * _per_call(mat_rank, cells),
        "exactfield.nullspace_3x5_us": 1e6 * _per_call(mat_nullspace, triples),
        "exactfield.operand_bits": statistics.mean(bits),
    }
