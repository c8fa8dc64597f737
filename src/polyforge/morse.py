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
from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush

from .complexcore import CubicalComplex, FacePoset, SimplicialComplex


class SearchExhausted(Exception):
    """Raised when a collapse search runs out of moves or budget; `nodes`
    is the number of search nodes it visited, which the message names."""

    def __init__(self, reason: str, nodes: int):
        super().__init__(f"{reason} after {nodes} node{'' if nodes == 1 else 's'}")
        self.nodes = nodes


@dataclass(frozen=True)
class MorseMatching:
    """Pairs (low, high): each face key at most once, dim high = dim low + 1."""

    pairs: tuple

    def to_json(self) -> dict:
        return {"pairs": [[list(a), list(b)] for a, b in self.pairs]}

    @classmethod
    def from_json(cls, data: dict) -> "MorseMatching":
        """ValueError names the first pair that is not two faces (lists of
        integer vertex ids; a boolean is not one)."""
        pairs = []
        for pair in data["pairs"]:
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                    and all(isinstance(f, (list, tuple))
                            and all(type(v) is int for v in f) for f in pair)):
                raise ValueError(f"pair {pair!r} is not two faces")
            pairs.append((tuple(pair[0]), tuple(pair[1])))
        return cls(tuple(pairs))


def _poset_of(c) -> FacePoset:
    """The face poset the complex keeps."""
    if not isinstance(c, (SimplicialComplex, CubicalComplex)):
        raise TypeError(f"unsupported complex type {type(c)!r}")
    return c.face_poset()


def _ids_in(poset: FacePoset, d, what: str) -> set:
    """The ids in poset of the faces of d, a list of face keys or a
    complex, read off its facets (or cubes) and closed downward, so d
    builds no poset; faces missing from poset are a ValueError."""
    if isinstance(d, SimplicialComplex):
        keys = set(d.facets)
    elif isinstance(d, CubicalComplex):
        keys = {tuple(sorted(corners)) for _, corners in d.cubes}
    else:
        keys = {tuple(f) for f in d}
    missing = keys - poset.index.keys()
    if missing:
        raise ValueError(f"{what} faces not in complex: {sorted(missing)[:3]}")
    ids = {poset.index[k] for k in keys}
    stack = list(ids) if isinstance(d, (SimplicialComplex, CubicalComplex)) else []
    while stack:
        below = set(poset.down[stack.pop()]) - ids
        ids |= below
        stack += below
    return ids


def _closures(poset: FacePoset) -> tuple:
    """(below, counts): below[i] holds the ids strictly below face i and
    counts[i] the number of faces strictly above it (copy it before
    changing it).  Ids are in (dimension, key) order, so lower faces
    come first."""
    n = len(poset.elements)
    below = [()] * n
    counts = [0] * n
    for i, covered in enumerate(poset.down):
        acc = set(covered)
        for k in covered:
            acc.update(below[k])
        below[i] = tuple(acc)
        for k in acc:
            counts[k] += 1
    return below, counts


def _check_pairs(poset: FacePoset, m: MorseMatching) -> dict:
    """Low id -> high id of every pair, in the order of m; ValueError on
    a pair of unknown faces, a pair that is not a cover, or a face in
    two pairs."""
    used = set()
    matched_up = {}
    for low, high in m.pairs:
        if low not in poset.index or high not in poset.index:
            raise ValueError(f"pair ({low}, {high}) refers to unknown faces")
        i, j = poset.index[low], poset.index[high]
        if j not in poset.up[i]:
            raise ValueError(f"{high} does not cover {low}")
        if i in used or j in used:
            raise ValueError("a face appears in two pairs")
        used.add(i)
        used.add(j)
        matched_up[i] = j
    return matched_up


def _acyclic(poset: FacePoset, matched_up: dict) -> bool:
    """Whether the Hasse diagram, arrows down and matched ones reversed, is
    acyclic, by Kahn's algorithm on the pairs: (i, j) points to (k, .) for
    each low face k != i below j.  A matched up-arrow ends at a face with no
    up-arrow, so a cycle of top dimension D, which cannot climb back from
    D - 2, alternates matched up-arrows and down-arrows in D - 1 and D."""
    succ = {i: [k for k in poset.down[j] if k != i and k in matched_up]
            for i, j in matched_up.items()}
    indegree = Counter(k for out in succ.values() for k in out)
    ready = [i for i in succ if not indegree[i]]
    for i in ready:  # the list grows while it is walked
        for k in succ[i]:
            indegree[k] -= 1
            if indegree[k] == 0:
                ready.append(k)
    return len(ready) == len(succ)


def validate_matching(c, m: MorseMatching) -> bool:
    """Raise ValueError on structurally bad pairs; return False when the
    reversed diagram has a cycle, True otherwise."""
    poset = _poset_of(c)
    return _acyclic(poset, _check_pairs(poset, m))


def critical_faces(c, m: MorseMatching) -> dict:
    """Unmatched faces keyed by dimension, each list sorted: the poset's
    elements are already in (dimension, key) order."""
    poset = _poset_of(c)
    matched = {k for pair in m.pairs for k in pair}
    out: dict[int, list] = {}
    for key, dim in zip(poset.elements, poset.dims):
        if key not in matched:
            out.setdefault(dim, []).append(key)
    return out


def _collapse_backtrack(poset, keep, inner, j, limit, budget, what):
    """One depth-first search over elementary collapses of the whole
    poset, run on an explicit stack because a collapse sequence is as
    deep as the complex has faces.  Returns the pair ids of the first
    collapse found; raises SearchExhausted when the node budget dies or
    every collapse sequence has been tried.

    Faces in `keep` are never removed.  A pair (i, k) with i in `inner`
    and k outside it is a crossing, allowed only when i has dimension j
    and fewer than `limit` crossings have been made.  The search ends
    when `len(keep)` faces (one face when keep is None) are live and
    exactly `limit` crossings have been made.

    count[i] is the number of live faces strictly above face i, so i is
    free when count[i] == 1, and its partner is then its one live cover.
    A collapse decrements the counters of the strict down-closures of
    the two faces it removes and a backtrack increments them again.
    `free` holds the free faces outside keep and `heap` their ids, which
    are in (dimension, key) order, with stale entries dropped when they
    surface.  The candidates of a node are the allowed free pairs in
    (dimension, key) order: a node takes its first candidate off the
    heap and lists the others only once the search backtracks to it.  A
    state whose frame is exhausted is remembered as dead, keyed by a
    hash of the removed faces; the states on the stack shrink strictly,
    so a state can only come back after its subtree failed.  With inner
    closed under faces, the crossings made are (-1)^j times the Euler sum
    of the removed faces of inner, so they too are a function of the
    removed faces, and the memo makes the one pass complete.
    """
    below, counts = _closures(poset)
    up, dims = poset.up, poset.dims
    rnd = random.Random(len(counts))
    tokens = [rnd.getrandbits(64) for _ in counts]
    size = 1 if keep is None else len(keep)
    keep = keep or frozenset()
    count = list(counts)
    live = set(range(len(count)))
    free = {i for i in live if count[i] == 1 and i not in keep}
    heap = sorted(free)
    queued = set(free)
    state_hash = crossings = nodes = 0
    dead = {}
    stack = []
    pairs = []

    def partner(i):
        for k in up[i]:
            if k in live:
                return k

    def allowed(i, k):
        return k not in keep and (i not in inner or k in inner
                                  or dims[i] == j and crossings < limit)

    def candidates():
        out = [(i, partner(i)) for i in sorted(free)]
        return [(i, k) for i, k in out if allowed(i, k)]

    def first_candidate():
        aside = []
        found = None
        while heap:
            i = heap[0]
            if i not in free:
                heappop(heap)
                queued.discard(i)
                continue
            k = partner(i)
            if allowed(i, k):
                found = (i, k)
                break
            aside.append(heappop(heap))
        for i in aside:
            heappush(heap, i)
        return found

    def became_free(f):
        free.add(f)
        if f not in queued:
            queued.add(f)
            heappush(heap, f)

    def shift(i, k, step):
        # the live faces strictly above a face below i or k change by
        # step; a crossing pair is made at step -1 and undone at step 1
        nonlocal state_hash, crossings
        state_hash ^= tokens[i] ^ tokens[k]
        if i in inner and k not in inner:
            crossings -= step
        for face in (i, k):
            for f in below[face]:
                c = count[f] + step
                count[f] = c
                if c != 1:
                    free.discard(f)
                elif f not in keep:
                    became_free(f)

    def collapse(i, k):
        live.discard(i)
        live.discard(k)
        pairs.append((i, k))
        shift(i, k, -1)

    def restore():
        i, k = pairs.pop()
        live.add(i)
        live.add(k)
        shift(i, k, 1)

    def removed():
        return frozenset(f for pair in pairs for f in pair)

    def enter():
        # visit a node: True means done; otherwise a frame is pushed, or
        # the state is known dead and the last collapse is undone
        nonlocal nodes
        if nodes == budget:
            raise SearchExhausted("collapse budget exhausted", nodes)
        nodes += 1
        if len(live) == size and crossings == limit:
            return True
        if state_hash in dead and removed() in dead[state_hash]:
            restore()
            return False
        cand = first_candidate()
        stack.append([[cand] if cand else [], 0, cand is None])
        return False

    if enter():
        return pairs
    while stack:
        frame = stack[-1]
        cands, cursor, complete = frame
        if cursor == len(cands) and not complete:
            # back at this node: list every candidate; the first was tried
            cands = frame[0] = candidates()
            frame[2] = True
        if cursor == len(cands):
            stack.pop()
            if pairs:
                dead.setdefault(state_hash, set()).add(removed())
                restore()
            continue
        frame[1] = cursor + 1
        collapse(*cands[cursor])
        if enter():
            return pairs
    raise SearchExhausted(f"no {what} exists", nodes)


def collapse_search(c, target=None, budget: int = 10 ** 6) -> MorseMatching:
    """Search for a complete collapse of c.

    target None means collapse to a single vertex; otherwise target is a
    subcomplex (faces kept alive).  The search is one depth-first pass
    in (dimension, key) order.  Raises SearchExhausted when the budget
    runs out or the search has shown that no collapse exists.
    """
    poset = _poset_of(c)
    keep = None if target is None else _ids_in(poset, target, "target")
    result = _collapse_backtrack(poset, keep, frozenset(), 0, 0, budget,
                                 "collapse")
    key = poset.elements
    return MorseMatching(tuple((key[i], key[k]) for i, k in result))


def out_j_collapse(c, d, j: int, budget: int = 10 ** 6):
    """Collapse c to a single vertex of the subcomplex d, allowing a pair
    to leave d only via (face of d, face outside d) with the inner face
    of dimension exactly j.

    Only such a crossing changes the Euler characteristic of the live
    part of d, by -(-1)^j, and a collapse ends on one vertex of d, of
    Euler characteristic 1.  So every out-j collapse makes exactly
    (-1)^j (chi(d) - 1) crossings, and the search refuses any crossing
    past that many without losing a collapse.  Each crossing removes a
    distinct j-face of d, so when that count is negative or exceeds d's
    j-faces no collapse exists, and SearchExhausted is raised before the
    first node.  The argument needs d closed under faces: a face of d
    with a face outside d is a ValueError.

    Returns (matching, ledger) where the ledger lists the crossing faces
    in removal order.
    """
    poset = _poset_of(c)
    d_ids = _ids_in(poset, d, "subcomplex")
    key, dims = poset.elements, poset.dims
    for i in sorted(d_ids):
        for k in poset.down[i]:
            if k not in d_ids:
                raise ValueError(f"subcomplex is not closed under faces: "
                                 f"{key[k]} is a face of {key[i]}")
    limit = (-1) ** j * (sum((-1) ** dims[i] for i in d_ids) - 1)
    faces = sum(dims[i] == j for i in d_ids)
    if not 0 <= limit <= faces:
        raise SearchExhausted(
            f"a constrained collapse needs {limit} crossings of {j}-faces "
            f"and the subcomplex has {faces}; none found", 0)
    result = _collapse_backtrack(poset, None, d_ids, j, limit, budget,
                                 "constrained collapse")
    pairs = tuple((key[i], key[k]) for i, k in result)
    ledger = [key[i] for i, k in result if i in d_ids and k not in d_ids]
    return MorseMatching(pairs), ledger


def deformation_trace(c, d, m: MorseMatching) -> list:
    """Replay a collapse of c onto the subcomplex d along the matching m.

    Events are ("collapse", low, high) for free-pair removals and
    ("attach", dim, face) for critical faces removed when they become
    maximal.  Pairs crossing the boundary of d are rejected.  Collapse
    events are preferred; ties go to the smallest (dimension, key).
    """
    poset = _poset_of(c)
    matched_up = _check_pairs(poset, m)
    if not _acyclic(poset, matched_up):
        raise ValueError("matching has a gradient cycle")
    d_ids = _ids_in(poset, d, "subcomplex")
    key, dims = poset.elements, poset.dims

    partner = {}
    for i, j in matched_up.items():
        if (i in d_ids) != (j in d_ids):
            raise ValueError(
                f"pair ({key[i]}, {key[j]}) crosses the subcomplex boundary")
        partner[i] = j
        partner[j] = i

    # heaps of the live faces outside d that can go next: a low face
    # whose one live coface is its partner, or an unmatched face with no
    # live coface
    below, counts = _closures(poset)
    count = list(counts)
    collapsible, attachable = [], []

    def note(k):
        if k in d_ids:
            return
        if k not in partner:
            if count[k] == 0:
                heappush(attachable, k)
        elif count[k] == 1 and dims[partner[k]] > dims[k]:
            heappush(collapsible, k)

    def remove(face):
        for k in below[face]:
            count[k] -= 1
            if count[k] < 2:
                note(k)

    for k in range(len(count)):
        note(k)
    remaining = len(count) - len(d_ids)
    events = []
    while remaining:
        if collapsible:
            i = heappop(collapsible)
            j = partner[i]
            remove(j)
            remove(i)
            remaining -= 2
            events.append(("collapse", key[i], key[j]))
        elif attachable:
            i = heappop(attachable)
            remove(i)
            remaining -= 1
            events.append(("attach", dims[i], key[i]))
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


def is_nonevasive(c: SimplicialComplex) -> bool:
    """Recursive zero-argument evasiveness test.

    A complex is non-evasive when it is a point, or some vertex has both
    a non-evasive link and a non-evasive deletion.  Answers are memoized
    by canonical key for the one call; a link or a deletion has fewer
    vertices than its complex, so no key recurs on the stack.
    """
    if not isinstance(c, SimplicialComplex):
        raise TypeError("non-evasiveness is defined here for simplicial complexes")
    memo = {}

    def nonevasive(c):
        verts = c.vertices()
        if not verts:
            return False
        if len(verts) == 1:
            return True
        key = _canonical_key(c)
        if key not in memo:
            # the link of an isolated vertex is empty, so evasive
            memo[key] = any(nonevasive(c.link((v,))[0])
                            and nonevasive(c.delete_vertex(v)) for v in verts)
        return memo[key]

    return nonevasive(c)
