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
from heapq import heappop, heappush

from .complexcore import CubicalComplex, FacePoset, SimplicialComplex


class SearchExhausted(Exception):
    """Raised when a collapse search runs out of moves or budget.

    `nodes` is the number of search nodes spent over all attempts and
    `attempts` the number of attempts made; the message names both.
    """

    def __init__(self, reason: str, nodes: int, attempts: int):
        super().__init__(f"{reason} after {nodes} node{'' if nodes == 1 else 's'}"
                         f" in {attempts} attempt{'' if attempts == 1 else 's'}")
        self.nodes = nodes
        self.attempts = attempts


class _BudgetSpent(Exception):
    """One attempt of a collapse search used up its slice of the budget."""


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
    if isinstance(c, SimplicialComplex):
        return FacePoset.from_simplicial(c)
    if isinstance(c, CubicalComplex):
        return FacePoset.from_cubical(c)
    raise TypeError(f"unsupported complex type {type(c)!r}")


def _face_dims(c) -> dict:
    """Face key -> dimension, with the keys of `_poset_of(c)`."""
    if isinstance(c, SimplicialComplex):
        return {f: d for d, fs in c.faces().items() for f in fs}
    if isinstance(c, CubicalComplex):
        return {tuple(sorted(corners)): d for d, corners in c.faces().values()}
    raise TypeError(f"unsupported complex type {type(c)!r}")


def _ids_in(poset: FacePoset, d, what: str) -> set:
    """The ids in poset of the faces of d, a complex or a list of face
    keys; faces missing from poset are a ValueError."""
    if isinstance(d, (SimplicialComplex, CubicalComplex)):
        keys = _face_dims(d).keys()
    else:
        keys = {tuple(f) for f in d}
    missing = keys - poset.index.keys()
    if missing:
        raise ValueError(f"{what} faces not in complex: {sorted(missing)[:3]}")
    return {poset.index[k] for k in keys}


def _closures(poset: FacePoset) -> tuple:
    """(below, counts, tokens): below[i] holds the ids strictly below
    face i, counts[i] the number of faces strictly above it (copy it
    before changing it), and tokens[i] a fixed random 64-bit word for
    hashing sets of faces by XOR.  Ids are in (dimension, key) order,
    so lower faces come first."""
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
    rnd = random.Random(n)
    return below, counts, [rnd.getrandbits(64) for _ in range(n)]


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
    """Kahn's algorithm on the Hasse diagram with its arrows pointing
    down and the matched ones reversed."""
    succ = [[i for i in covered if matched_up.get(i) != j]
            for j, covered in enumerate(poset.down)]
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


def validate_matching(c, m: MorseMatching) -> bool:
    """Raise ValueError on structurally bad pairs; return False when the
    reversed diagram has a cycle, True otherwise."""
    poset = _poset_of(c)
    return _acyclic(poset, _check_pairs(poset, m))


def critical_faces(c, m: MorseMatching) -> dict:
    """Unmatched faces keyed by dimension, each list sorted."""
    matched = {k for pair in m.pairs for k in pair}
    out: dict[int, list] = {}
    for key, dim in _face_dims(c).items():
        if key not in matched:
            out.setdefault(dim, []).append(key)
    return {d: sorted(v) for d, v in sorted(out.items())}


def _collapse_backtrack(poset, closures, target_ids, pair_filter, budget,
                        rng, end_predicate):
    """DFS over elementary collapses of the whole poset, run on an
    explicit stack because a collapse sequence is as deep as the complex
    has faces.  Returns (pair list or None, nodes visited); raises
    _BudgetSpent when the node budget dies.

    count[i] is the number of live faces strictly above face i, so i is
    free when count[i] == 1, and its partner is then its one live cover.
    A collapse decrements the counters of the strict down-closures of
    the two faces it removes and a backtrack increments them again.
    `free` holds the free faces outside the target and `heap` their ids,
    which are in (dimension, key) order, with stale entries dropped when
    they surface.  The candidates of a node are the free pairs that pass
    the target and the filter, in (dimension, key) order, shuffled by
    rng when it is given.  Without rng a node takes its first candidate
    off the heap and lists the others only once the search backtracks
    to it.  A state whose frame is exhausted is remembered as dead,
    keyed by a hash of the removed faces; the states on the stack shrink
    strictly, so a state can only come back after its subtree failed.
    """
    below, counts, tokens = closures
    up = poset.up
    blocked = target_ids if target_ids is not None else frozenset()
    count = list(counts)
    live = set(range(len(count)))
    free = {i for i in live if count[i] == 1 and i not in blocked}
    heap = sorted(free)
    queued = set(free)
    state_hash = 0
    dead = {}
    counter = budget
    stack = []
    pairs = []

    def partner(i):
        for j in up[i]:
            if j in live:
                return j

    def allowed(i, j):
        return j not in blocked and (pair_filter is None or pair_filter(i, j))

    def candidates():
        out = []
        for i in sorted(free):
            j = partner(i)
            if allowed(i, j):
                out.append((i, j))
        return out

    def first_candidate():
        aside = []
        found = None
        while heap:
            i = heap[0]
            if i not in free:
                heappop(heap)
                queued.discard(i)
                continue
            j = partner(i)
            if allowed(i, j):
                found = (i, j)
                break
            aside.append(heappop(heap))
        for i in aside:
            heappush(heap, i)
        return found

    def became_free(k):
        free.add(k)
        if k not in queued:
            queued.add(k)
            heappush(heap, k)

    def shift(i, j, step):
        # the live faces strictly above a face below i or j change by step
        nonlocal state_hash
        state_hash ^= tokens[i] ^ tokens[j]
        for face in (i, j):
            for k in below[face]:
                c = count[k] + step
                count[k] = c
                if c != 1:
                    free.discard(k)
                elif k not in blocked:
                    became_free(k)

    def collapse(i, j):
        live.discard(i)
        live.discard(j)
        pairs.append((i, j))
        shift(i, j, -1)

    def restore():
        i, j = pairs.pop()
        live.add(i)
        live.add(j)
        shift(i, j, 1)

    def removed():
        return frozenset(f for pair in pairs for f in pair)

    def enter():
        # visit a node: True means done; otherwise a frame is pushed, or
        # the state is known dead and the last collapse is undone
        nonlocal counter
        counter -= 1
        if counter < 0:
            raise _BudgetSpent
        if end_predicate(live):
            return True
        if state_hash in dead and removed() in dead[state_hash]:
            restore()
            return False
        if rng is None:
            cand = first_candidate()
            stack.append([[cand] if cand else [], 0, cand is None])
        else:
            cands = candidates()
            rng.shuffle(cands)
            stack.append([cands, 0, True])
        return False

    if enter():
        return pairs, budget - counter
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
            return pairs, budget - counter
    return None, budget - counter


def _restarting_search(poset, target_ids, pair_filter, end_predicate, budget,
                       seed, attempts, what):
    """Split the budget into `attempts` slices: the first attempt is
    greedy, the later ones shuffle the candidates with seeds seed + 1,
    seed + 2, ...  Returns the pair ids of the first collapse found.
    An attempt that ends without a collapse searched every collapse
    sequence, so no later attempt can find one and the search stops."""
    closures = _closures(poset)
    slice_budget = max(1, budget // attempts)
    spent = 0
    nodes = 0
    for attempt in range(attempts):
        rng = None if attempt == 0 else random.Random(
            (seed if seed is not None else 0) + attempt)
        try:
            result, visited = _collapse_backtrack(
                poset, closures, target_ids, pair_filter, slice_budget, rng,
                end_predicate)
        except _BudgetSpent:
            nodes += slice_budget
            spent += slice_budget
            if spent >= budget:
                raise SearchExhausted("collapse budget exhausted",
                                      nodes, attempt + 1) from None
            continue
        nodes += visited
        if result is None:
            raise SearchExhausted(f"no {what} found within budget",
                                  nodes, attempt + 1)
        return result
    raise SearchExhausted(f"no {what} found within budget", nodes, attempts)


def collapse_search(c, target=None, budget: int = 10 ** 6,
                    seed: int | None = 0, restarts: int = 6) -> MorseMatching:
    """Search for a complete collapse of c.

    target None means collapse to a single vertex; otherwise target is a
    subcomplex (faces kept alive).  Greedy order is by (dimension, key);
    when an attempt spends its slice of the budget, the search restarts
    with shuffled candidate order.  Raises SearchExhausted when the
    budget runs out or an attempt has shown that no collapse exists.
    """
    poset = _poset_of(c)
    if target is None:
        target_ids = None
        end = lambda state: len(state) == 1
    else:
        target_ids = _ids_in(poset, target, "target")
        end = lambda state: state == target_ids

    result = _restarting_search(poset, target_ids, None, end, budget, seed,
                                restarts + 1, "collapse")
    key = poset.elements
    return MorseMatching(tuple((key[i], key[j]) for i, j in result))


def out_j_collapse(c, d, j: int, budget: int = 10 ** 6,
                   seed: int | None = 0):
    """Collapse c to a single vertex of the subcomplex d, allowing a pair
    to leave d only via (face of d, face outside d) with the inner face
    of dimension exactly j.

    Returns (matching, ledger) where the ledger lists the crossing faces
    in removal order.
    """
    poset = _poset_of(c)
    d_ids = _ids_in(poset, d, "subcomplex")

    def pair_ok(i, jj):
        if i in d_ids and jj not in d_ids:
            return poset.dims[i] == j
        return True

    end = lambda state: len(state) == 1 and next(iter(state)) in d_ids
    result = _restarting_search(poset, None, pair_ok, end, budget, seed, 4,
                                "constrained collapse")
    key = poset.elements
    pairs = tuple((key[i], key[jj]) for i, jj in result)
    ledger = [key[i] for (i, jj) in result
              if i in d_ids and jj not in d_ids]
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
    below, counts, _ = _closures(poset)
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
