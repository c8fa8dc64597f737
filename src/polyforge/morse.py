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
from functools import cached_property
from heapq import heappop, heappush

from .complexcore import CubicalComplex, FacePoset, SimplicialComplex


class SearchExhausted(Exception):
    """Raised when a collapse search runs out of moves or budget.

    `nodes` is the number of search nodes spent over all attempts and
    `attempts` the number of attempts made; the message names both.
    """

    def __init__(self, reason: str, nodes: int, attempts: int):
        super().__init__(f"{reason} after {nodes} nodes in {attempts} "
                         f"attempt{'' if attempts == 1 else 's'}")
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
    """Index view of a face poset: cover sets both ways and, built on
    first use by the collapse code, the (dimension, key) order and the
    strict down-closure of every face."""

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

    @cached_property
    def order(self) -> list:
        """Face ids sorted by (dimension, key)."""
        return sorted(range(len(self.key_of)),
                      key=lambda t: (self.dims[t], self.key_of[t]))

    @cached_property
    def rank(self) -> list:
        """rank[i] is the position of face i in `order`."""
        rank = [0] * len(self.order)
        for r, i in enumerate(self.order):
            rank[i] = r
        return rank

    @cached_property
    def below(self) -> list:
        """The faces strictly below each face, as a tuple of ids."""
        below = [()] * len(self.key_of)
        for i in self.order:  # lower dimensions first
            acc = set(self.down[i])
            for k in self.down[i]:
                acc.update(below[k])
            below[i] = tuple(acc)
        return below

    @cached_property
    def tokens(self) -> list:
        """A fixed random 64-bit word per face, for hashing sets of faces
        by XOR."""
        rnd = random.Random(len(self.key_of))
        return [rnd.getrandbits(64) for _ in self.key_of]

    @cached_property
    def above_counts(self) -> list:
        """The number of faces strictly above each face; copy before
        changing it."""
        counts = [0] * len(self.key_of)
        for faces in self.below:
            for k in faces:
                counts[k] += 1
        return counts


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


def _collapse_backtrack(diag, target_ids, pair_filter, budget, rng,
                        end_predicate):
    """DFS over elementary collapses of the whole diagram, run on an
    explicit stack because a collapse sequence is as deep as the complex
    has faces.  Returns (pair list or None, nodes visited); raises
    _BudgetSpent when the node budget dies.

    count[i] is the number of live faces strictly above face i, so i is
    free when count[i] == 1, and its partner is then its one live cover.
    A collapse decrements the counters of the strict down-closures of
    the two faces it removes and a backtrack increments them again.
    `free` holds the free faces outside the target and `heap` their
    ranks in (dimension, key) order, with stale entries dropped when
    they surface.  The candidates of a node are the free pairs that pass
    the target and the filter, in (dimension, key) order, shuffled by
    rng when it is given.  Without rng a node takes its first candidate
    off the heap and lists the others only once the search backtracks
    to it.  A state whose frame is exhausted is remembered as dead,
    keyed by a hash of the removed faces; the states on the stack shrink
    strictly, so a state can only come back after its subtree failed.
    """
    below, up, order, rank = diag.below, diag.up, diag.order, diag.rank
    blocked = target_ids if target_ids is not None else frozenset()
    count = list(diag.above_counts)
    live = set(range(len(count)))
    free = {i for i in live if count[i] == 1 and i not in blocked}
    heap = sorted(rank[i] for i in free)
    queued = set(free)
    tokens = diag.tokens
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
        for r in sorted(rank[i] for i in free):
            i = order[r]
            j = partner(i)
            if allowed(i, j):
                out.append((i, j))
        return out

    def first_candidate():
        aside = []
        found = None
        while heap:
            i = order[heap[0]]
            if i not in free:
                heappop(heap)
                queued.discard(i)
                continue
            j = partner(i)
            if allowed(i, j):
                found = (i, j)
                break
            aside.append(heappop(heap))
        for r in aside:
            heappush(heap, r)
        return found

    def became_free(k):
        free.add(k)
        if k not in queued:
            queued.add(k)
            heappush(heap, rank[k])

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


def _restarting_search(diag, target_ids, pair_filter, end_predicate, budget,
                       seed, attempts, what):
    """Split the budget into `attempts` slices: the first attempt is
    greedy, the later ones shuffle the candidates with seeds seed + 1,
    seed + 2, ...  Returns the pair ids of the first collapse found."""
    slice_budget = max(1, budget // attempts)
    spent = 0
    nodes = 0
    for attempt in range(attempts):
        rng = None if attempt == 0 else random.Random(
            (seed if seed is not None else 0) + attempt)
        try:
            result, visited = _collapse_backtrack(
                diag, target_ids, pair_filter, slice_budget, rng, end_predicate)
        except _BudgetSpent:
            nodes += slice_budget
            spent += slice_budget
            if spent >= budget:
                raise SearchExhausted("collapse budget exhausted",
                                      nodes, attempt + 1) from None
            continue
        nodes += visited
        if result is not None:
            return result
        spent += slice_budget
    raise SearchExhausted(f"no {what} found within budget", nodes, attempts)


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

    result = _restarting_search(diag, target_ids, None, end, budget, seed,
                                restarts + 1, "collapse")
    return MorseMatching(tuple(
        (diag.key_of[i], diag.key_of[j]) for i, j in result))


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

    end = lambda state: len(state) == 1 and next(iter(state)) in d_ids
    result = _restarting_search(diag, None, pair_ok, end, budget, seed, 4,
                                "constrained collapse")
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

    # heaps of the ranks of the live faces outside d that can go next: a
    # low face whose one live coface is its partner, or an unmatched face
    # with no live coface
    count = list(diag.above_counts)
    collapsible, attachable = [], []

    def note(k):
        if k in d_ids:
            return
        if k not in partner:
            if count[k] == 0:
                heappush(attachable, diag.rank[k])
        elif count[k] == 1 and diag.dims[partner[k]] > diag.dims[k]:
            heappush(collapsible, diag.rank[k])

    def remove(face):
        for k in diag.below[face]:
            count[k] -= 1
            if count[k] < 2:
                note(k)

    for k in range(len(count)):
        note(k)
    remaining = len(count) - len(d_ids)
    events = []
    while remaining:
        if collapsible:
            i = diag.order[heappop(collapsible)]
            j = partner[i]
            remove(j)
            remove(i)
            remaining -= 2
            events.append(("collapse", diag.key_of[i], diag.key_of[j]))
        elif attachable:
            i = diag.order[heappop(attachable)]
            remove(i)
            remaining -= 1
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
