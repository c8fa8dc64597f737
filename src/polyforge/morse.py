"""Discrete Morse matchings and collapsing machinery.

A matching pairs each cell with one of its covers; reversing the matched
Hasse arrows must leave the diagram acyclic.  On top of validation this
module offers: a backtracking search for a complete collapse (optionally
onto a subcomplex), a constrained collapse that only crosses a given
subcomplex boundary in one dimension (with the ledger of crossing faces),
an event trace replaying a collapse, and the recursive non-evasiveness
test for simplicial complexes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .complexcore import CubicalComplex, FacePoset, SimplicialComplex


class SearchExhausted(Exception):
    """Raised when a collapse search runs out of moves or budget."""


@dataclass(frozen=True)
class MorseMatching:
    """Pairs (low, high): each face key at most once, dim high = dim low + 1."""

    pairs: tuple

    def to_json(self) -> dict:
        return {"pairs": [[list(a), list(b)] for a, b in self.pairs]}

    @classmethod
    def from_json(cls, data: dict) -> "MorseMatching":
        return cls(tuple((tuple(a), tuple(b)) for a, b in data["pairs"]))


def _poset_of(c) -> FacePoset:
    if isinstance(c, FacePoset):
        return c
    if isinstance(c, SimplicialComplex):
        return FacePoset.from_simplicial(c)
    if isinstance(c, CubicalComplex):
        return FacePoset.from_cubical(c)
    raise TypeError(f"unsupported complex type {type(c)!r}")


def _subcomplex_keys(d) -> set:
    if isinstance(d, SimplicialComplex):
        return {f for fs in d.faces().values() for f in fs}
    if isinstance(d, CubicalComplex):
        return {tuple(sorted(corners)) for _, corners in d.faces().values()}
    if isinstance(d, FacePoset):
        return set(d.elements)
    return {tuple(f) for f in d}


class _Diagram:
    """Index view of a face poset with strict upward closure tables."""

    def __init__(self, poset: FacePoset):
        self.key_of = list(poset.elements)
        self.id_of = {k: i for i, k in enumerate(poset.elements)}
        if len(self.id_of) != len(self.key_of):
            raise ValueError("face keys are not unique")
        self.dims = list(poset.dims)
        n = len(self.key_of)
        self.up = [set() for _ in range(n)]      # covers above
        self.down = [set() for _ in range(n)]    # covers below
        for (i, j) in poset.covers:
            self.up[i].add(j)
            self.down[j].add(i)
        # strict upward closure
        self.above = [None] * n
        for i in sorted(range(n), key=lambda t: -self.dims[t]):
            acc = set()
            for j in self.up[i]:
                acc.add(j)
                acc |= self.above[j]
            self.above[i] = acc


def validate_matching(c, m: MorseMatching) -> bool:
    """Raise ValueError on structurally bad pairs; return False when the
    reversed diagram has a cycle, True otherwise."""
    diag = _Diagram(_poset_of(c))
    used = set()
    matched_up = {}
    for low, high in m.pairs:
        if low not in diag.id_of or high not in diag.id_of:
            raise ValueError(f"pair ({low}, {high}) refers to unknown faces")
        i, j = diag.id_of[low], diag.id_of[high]
        if j not in diag.up[i]:
            raise ValueError(f"{high} does not cover {low}")
        if i in used or j in used:
            raise ValueError("a face appears in two pairs")
        used.add(i)
        used.add(j)
        matched_up[i] = j
    # Kahn's algorithm: Hasse arrows point down, matched ones point up
    succ = [[i for i in diag.down[j] if matched_up.get(i) != j]
            for j in range(len(diag.key_of))]
    for i, j in matched_up.items():
        succ[i].append(j)
    indegree = [0] * len(succ)
    for out in succ:
        for w in out:
            indegree[w] += 1
    ready = [u for u, k in enumerate(indegree) if k == 0]
    for u in ready:  # the list grows while it is walked
        for w in succ[u]:
            indegree[w] -= 1
            if indegree[w] == 0:
                ready.append(w)
    return len(ready) == len(succ)


def critical_faces(c, m: MorseMatching) -> dict:
    """Unmatched faces keyed by dimension, each list sorted."""
    diag = _Diagram(_poset_of(c))
    matched = {k for pair in m.pairs for k in pair}
    out: dict[int, list] = {}
    for key, dim in zip(diag.key_of, diag.dims):
        if key not in matched:
            out.setdefault(dim, []).append(key)
    return {d: sorted(v) for d, v in sorted(out.items())}


def _collapse_backtrack(diag, live, target_ids, pair_filter, budget, rng,
                        end_predicate):
    """DFS over elementary collapses, run on an explicit stack because a
    collapse sequence is as deep as the complex has faces.  Mutates
    nothing; returns the pair list or None.  Raises SearchExhausted when
    the node budget dies."""
    seen = set()
    counter = budget

    def free_pairs(state):
        out = []
        for i in sorted(state, key=lambda t: (diag.dims[t], diag.key_of[t])):
            if target_ids is not None and i in target_ids:
                continue
            above_live = state & diag.above[i]
            if len(above_live) == 1:
                j = next(iter(above_live))
                if target_ids is not None and j in target_ids:
                    continue
                if pair_filter and not pair_filter(i, j):
                    continue
                out.append((i, j))
        return out

    def enter(state):
        # visit a node: True means done, otherwise a frame is pushed
        nonlocal counter
        counter -= 1
        if counter < 0:
            raise SearchExhausted("collapse budget exhausted")
        if end_predicate(state):
            return True
        key = frozenset(state)
        if key in seen:
            stack.append((state, (), [0]))
            return False
        seen.add(key)
        cands = free_pairs(state)
        if rng is not None:
            rng.shuffle(cands)
        stack.append((state, cands, [0]))
        return False

    stack = []
    pairs = []
    if enter(live):
        return pairs
    while stack:
        state, cands, cursor = stack[-1]
        if cursor[0] >= len(cands):
            stack.pop()
            if pairs:
                pairs.pop()
            continue
        i, j = cands[cursor[0]]
        cursor[0] += 1
        pairs.append((i, j))
        if enter(state - {i, j}):
            return pairs
    return None


def collapse_search(c, target=None, budget: int = 10 ** 6,
                    seed: int | None = 0, restarts: int = 6) -> MorseMatching:
    """Search for a complete collapse of c.

    target None means collapse to a single vertex; otherwise target is a
    subcomplex (faces kept alive).  Greedy order is by (dimension, key);
    on failure the search restarts with shuffled candidate order until
    the budget runs out.  Raises SearchExhausted when no collapse is
    found.
    """
    diag = _Diagram(_poset_of(c))
    live = frozenset(range(len(diag.key_of)))
    if target is None:
        target_ids = None
        end = lambda state: len(state) == 1
    else:
        keys = _subcomplex_keys(target)
        missing = keys - set(diag.id_of)
        if missing:
            raise ValueError(f"target faces not in complex: {sorted(missing)[:3]}")
        target_ids = {diag.id_of[k] for k in keys}
        end = lambda state: state == target_ids

    slice_budget = max(1, budget // (restarts + 1))
    spent = 0
    for attempt in range(restarts + 1):
        rng = None if attempt == 0 else random.Random(
            (seed if seed is not None else 0) + attempt)
        try:
            result = _collapse_backtrack(
                diag, live, target_ids, None,
                slice_budget, rng, end)
        except SearchExhausted:
            spent += slice_budget
            if spent >= budget:
                raise
            continue
        if result is not None:
            return MorseMatching(tuple(
                (diag.key_of[i], diag.key_of[j]) for i, j in result))
        spent += slice_budget
    raise SearchExhausted("no collapse found within budget")


def out_j_collapse(c, d, j: int, budget: int = 10 ** 6,
                   seed: int | None = 0):
    """Collapse c to a single vertex of the subcomplex d, allowing a pair
    to leave d only via (face of d, face outside d) with the inner face
    of dimension exactly j.

    Returns (matching, ledger) where the ledger lists the crossing faces
    in removal order.
    """
    diag = _Diagram(_poset_of(c))
    d_keys = _subcomplex_keys(d)
    missing = d_keys - set(diag.id_of)
    if missing:
        raise ValueError(f"subcomplex faces not in complex: {sorted(missing)[:3]}")
    d_ids = {diag.id_of[k] for k in d_keys}

    def pair_ok(i, jj):
        if i in d_ids and jj not in d_ids:
            return diag.dims[i] == j
        return True

    live = frozenset(range(len(diag.key_of)))
    end = lambda state: len(state) == 1 and next(iter(state)) in d_ids

    slice_budget = max(1, budget // 4)
    spent = 0
    result = None
    for attempt in range(4):
        rng = None if attempt == 0 else random.Random(
            (seed if seed is not None else 0) + attempt)
        try:
            result = _collapse_backtrack(
                diag, live, None, pair_ok, slice_budget, rng, end)
        except SearchExhausted:
            spent += slice_budget
            if spent >= budget:
                raise
            continue
        if result is not None:
            break
        spent += slice_budget
    if result is None:
        raise SearchExhausted("no constrained collapse found within budget")

    pairs = tuple((diag.key_of[i], diag.key_of[jj]) for i, jj in result)
    ledger = [diag.key_of[i] for (i, jj) in result
              if i in d_ids and jj not in d_ids]
    return MorseMatching(pairs), ledger


def deformation_trace(c, d, m: MorseMatching) -> list:
    """Replay a collapse of c onto the subcomplex d along the matching m.

    Events are ("collapse", low, high) for free-pair removals and
    ("attach", dim, face) for critical faces removed when they become
    maximal.  Pairs crossing the boundary of d are rejected.  Collapse
    events are preferred; ties go to the smallest (dimension, key).
    """
    if validate_matching(c, m) is False:
        raise ValueError("matching has a gradient cycle")
    diag = _Diagram(_poset_of(c))
    d_keys = _subcomplex_keys(d)
    d_ids = {diag.id_of[k] for k in d_keys if k in diag.id_of}
    if len(d_ids) != len(d_keys):
        raise ValueError("subcomplex faces not in complex")

    partner = {}
    for low, high in m.pairs:
        i, j = diag.id_of[low], diag.id_of[high]
        if (i in d_ids) != (j in d_ids):
            raise ValueError(
                f"pair ({low}, {high}) crosses the subcomplex boundary")
        partner[i] = j
        partner[j] = i

    live = set(range(len(diag.key_of)))
    events = []
    while live != d_ids:
        collapse_cand = []
        attach_cand = []
        for i in live:
            if i in d_ids:
                continue
            above_live = live & diag.above[i]
            if not above_live and i not in partner:
                attach_cand.append(i)
            elif len(above_live) == 1 and partner.get(i) in above_live:
                collapse_cand.append(i)
        if collapse_cand:
            i = min(collapse_cand, key=lambda t: (diag.dims[t], diag.key_of[t]))
            j = partner[i]
            live -= {i, j}
            events.append(("collapse", diag.key_of[i], diag.key_of[j]))
        elif attach_cand:
            i = min(attach_cand, key=lambda t: (diag.dims[t], diag.key_of[t]))
            live.discard(i)
            events.append(("attach", diag.dims[i], diag.key_of[i]))
        else:
            raise RuntimeError("trace is stuck; matching does not collapse onto d")
    return events


def _canonical_key(c: SimplicialComplex):
    """Relabel vertices by an iterated neighbourhood signature.  The key
    is the relabeled facet tuple itself, so equal keys are genuinely
    isomorphic relabelings and memo hits are safe."""
    verts = c.vertices()
    g = c.one_skeleton()
    sig = {v: (len(g[v]),) for v in verts}
    for _ in range(2):
        sig = {v: (sig[v], tuple(sorted(sig[u] for u in g[v])))
               for v in verts}
    order = sorted(verts, key=lambda v: (sig[v], v))
    relabel = {v: i for i, v in enumerate(order)}
    return tuple(sorted(tuple(sorted(relabel[v] for v in f))
                        for f in c.facets))


def is_nonevasive(c: SimplicialComplex, _memo=None) -> bool:
    """Recursive zero-argument evasiveness test.

    A complex is non-evasive when it is a point, or some vertex has both
    a non-evasive link and a non-evasive deletion.
    """
    if not isinstance(c, SimplicialComplex):
        raise TypeError("non-evasiveness is defined here for simplicial complexes")
    if _memo is None:
        _memo = {}
    verts = c.vertices()
    if not verts:
        return False
    if len(verts) == 1:
        return True
    key = _canonical_key(c)
    hit = _memo.get(key)
    if hit is not None:
        return hit
    _memo[key] = False  # guard against hypothetical re-entry
    answer = False
    for v in verts:
        lk, _ = c.link((v,))
        if not lk.vertices():
            continue
        if is_nonevasive(lk, _memo) and is_nonevasive(c.delete_vertex(v), _memo):
            answer = True
            break
    _memo[key] = answer
    return answer
