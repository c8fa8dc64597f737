"""Non-revisiting facet paths in normal flag simplicial complexes.

The central construction walks from a start facet toward a target (a
facet or a vertex set) by recursing into vertex links: pick a vertex of
the current facet nearest the target, build a path inside its link
toward the neighbours that are one step closer, join back, and repeat.
The resulting path never returns to a star it left, which keeps it
within the classical diameter bound.

No link is ever built as a complex of its own.  Links of links are links
of faces, lk(v, lk(σ, K)) = lk(σ ∪ v, K), so the recursion carries the
face σ and reads the link off the incidence index of the top complex K;
path facets are facets of K with its vertex ids throughout.

All choices (start pearl, next pearl, base-case facet) break ties by
smallest vertex id, so paths are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexcore import SimplicialComplex, _skeleton, bfs


@dataclass(frozen=True)
class FacetPath:
    """A walk along facets, adjacent pairs sharing a ridge.

    pearls is the underlying shortest vertex walk; breakpoints[i] is the
    index of the facet at which pearl i becomes current, and the final
    entry marks the last facet.
    """

    facets: tuple
    pearls: tuple
    breakpoints: tuple

    def length(self) -> int:
        return len(self.facets) - 1

    def to_json(self) -> dict:
        return {
            "facets": [list(f) for f in self.facets],
            "pearls": list(self.pearls),
            "breakpoints": list(self.breakpoints),
        }


def vertex_distance(c: SimplicialComplex, x: int, targets):
    """Distance from vertex x to a vertex set in the 1-skeleton, plus
    the subset of targets realizing it."""
    targets = set(targets)
    if not targets:
        raise ValueError("empty target set")
    g = c.one_skeleton()
    if x not in g:
        raise ValueError(f"vertex {x} not in complex")
    dist = bfs(g, [x])
    reached = [y for y in targets if y in dist]
    if not reached:
        raise ValueError(f"vertex {x} cannot reach the target set")
    d = min(dist[y] for y in reached)
    return d, {y for y in reached if dist[y] == d}


class _Views:
    """Link views lk(σ, K) of one pure complex K, kept for one call.

    σ is a sorted tuple of vertices.  The facets of lk(σ, K) are the
    facets f of K containing σ, less σ, found by intersecting the
    incidence sets of K; links of links are links of faces, so the
    recursion only ever adds a vertex to σ and vertex ids stay those of
    K.  The object holds each view's 1-skeleton and one BFS per
    (σ, source set), and is dropped when the call that made it returns;
    nothing is cached on K.
    """

    def __init__(self, c: SimplicialComplex):
        self.c = c
        self._skeletons = {(): c.one_skeleton()}
        self._distances = {}

    def skeleton(self, sigma: tuple) -> dict:
        g = self._skeletons.get(sigma)
        if g is None:
            c = self.c
            g = self._skeletons[sigma] = _skeleton(
                [v for v in c.facets[i] if v not in sigma]
                for i in c._facets_containing(sigma))
        return g

    def distances(self, sigma: tuple, sources) -> dict:
        """BFS distances in the 1-skeleton of lk(σ) from a set of its
        vertices."""
        key = (sigma, frozenset(sources))
        dist = self._distances.get(key)
        if dist is None:
            dist = self._distances[key] = bfs(self.skeleton(sigma), key[1])
        return dist

    def nearest(self, sigma: tuple, x: int, targets, d: int) -> set:
        """The targets nearest to x in lk(σ), as vertex_distance finds
        them, given their distance d from x: the targets in layer d of
        a search from x that stops there (a lone target is nearest)."""
        if len(targets) == 1:
            return set(targets)
        g = self.skeleton(sigma)
        seen = {x}
        layer = [x]
        for _ in range(d):
            nxt = []
            for u in layer:
                for v in g[u]:
                    if v not in seen:
                        seen.add(v)
                        nxt.append(v)
            layer = nxt
        return targets & set(layer)


def _with(sigma: tuple, x: int) -> tuple:
    return tuple(sorted(sigma + (x,)))


def _part1(views: _Views, sigma: tuple, X: tuple, targets: frozenset):
    """Facet path in the star of σ from facet X toward the vertex set
    `targets`; the target set is met only by the last facet.  Returns
    (facets, pearls, chis) where chis[i] indexes the facet current when
    pearl i starts; facets are facets of K and contain σ.  Below the top
    (σ nonempty) every target is a vertex of lk(σ): a neighbour of the
    pearl whose link is entered, or a vertex of the facet Y of a segment.
    """
    residue = [v for v in X if v not in sigma]
    if len(residue) == 1:
        if set(residue) & targets:
            return [X], [min(set(residue) & targets)], [0]
        live = sorted(targets if sigma else views.skeleton(()).keys() & targets)
        if not live:
            raise ValueError("target set missing from complex")
        return [X, _with(sigma, live[0])], [residue[0], live[0]], [0, 1]

    g = views.skeleton(sigma)
    dist = views.distances(sigma, g.keys() & targets)
    missing = [v for v in residue if v not in dist]
    if missing:
        raise ValueError(f"vertices {missing} cannot reach the target set")
    x = min(residue, key=lambda v: (dist[v], v))
    current_targets = views.nearest(sigma, x, targets, dist[x])

    facets = [X]
    pearls = [x]
    chis = [0]
    Xi = X
    while not (set(Xi) & targets):
        dist_i = views.distances(sigma, current_targets)
        dxi = dist_i[x]
        tilde = sorted(y for y in g[x]
                       if dist_i.get(y, -2) + 1 == dxi)
        if not tilde:
            raise ValueError("no descent neighbour; complex not connected enough")
        sub_facets, _, _ = _part1(views, _with(sigma, x), Xi, frozenset(tilde))
        facets.extend(sub_facets[1:])
        Xi = sub_facets[-1]
        x = min(set(Xi) & set(tilde))
        current_targets = views.nearest(sigma, x, current_targets, dxi - 1)
        pearls.append(x)
        chis.append(len(facets) - 1)
    return facets, pearls, chis


def _segment(views: _Views, sigma: tuple, X: tuple, Y: tuple):
    """Non-revisiting facet path in the star of σ from facet X to facet
    Y, both containing σ, as (facets, pearls, chis) like _part1."""
    if len(X) == len(sigma) + 1:
        x, y = (v for f in (X, Y) for v in f if v not in sigma)
        if X == Y:
            return [X], [x], [0]
        return [X, Y], [x, y], [0, 1]
    facets, pearls, chis = _part1(views, sigma, X,
                                  frozenset(Y).difference(sigma))
    xl = pearls[-1]
    last = facets[-1]
    if xl not in last or xl not in Y:
        raise RuntimeError("final pearl does not join the two facets")
    facets += _segment(views, _with(sigma, xl), last, Y)[0][1:]
    return facets, pearls, chis


def _is_facet(c: SimplicialComplex, t) -> bool:
    """Whether t is in c.facets, answered from the incidence index."""
    if len(set(t)) != len(t):
        return False
    return any(c.facets[i] == t for i in c._facets_containing(t))


def _require_facet(c: SimplicialComplex, f) -> tuple:
    t = tuple(sorted(f))
    if not _is_facet(c, t):
        raise ValueError(f"{f} is not a facet of the complex")
    return t


def segment_to_vertex_set(c: SimplicialComplex, X, targets) -> FacetPath:
    """Path from facet X to a facet meeting the vertex set `targets`."""
    if not c.is_pure():
        raise ValueError("construction requires a pure complex")
    X = _require_facet(c, X)
    targets = frozenset(targets)
    if not targets:
        raise ValueError("empty target set")
    facets, pearls, chis = _part1(_Views(c), (), X, targets)
    return FacetPath(tuple(facets), tuple(pearls),
                     tuple(chis + [len(facets) - 1]))


def combinatorial_segment(c: SimplicialComplex, X, Y) -> FacetPath:
    """Non-revisiting facet path from facet X to facet Y."""
    if not c.is_pure():
        raise ValueError("construction requires a pure complex")
    X = _require_facet(c, X)
    Y = _require_facet(c, Y)
    facets, pearls, chis = _segment(_Views(c), (), X, Y)
    return FacetPath(tuple(facets), tuple(pearls),
                     tuple(chis + [len(facets) - 1]))


def validate_path(c: SimplicialComplex, path: FacetPath) -> None:
    """Raise unless the path is a genuine ridge-adjacent facet walk."""
    d = c.dim
    for f in path.facets:
        if not _is_facet(c, f):
            raise ValueError(f"{f} is not a facet")
    for f1, f2 in zip(path.facets, path.facets[1:]):
        if len(set(f1) & set(f2)) != d:
            raise ValueError(f"facets {f1} and {f2} do not share a ridge")
    if len(path.breakpoints) != len(path.pearls) + 1:
        raise ValueError("breakpoint count must exceed pearl count by one")
    for j, xj in enumerate(path.pearls):
        if xj not in path.facets[path.breakpoints[j]]:
            raise ValueError(f"pearl {xj} missing from its breakpoint facet")


def is_non_revisiting(path: FacetPath) -> bool:
    """True when every vertex occupies a contiguous stretch of the path."""
    hits: dict[int, list] = {}
    for i, f in enumerate(path.facets):
        for v in f:
            hits.setdefault(v, []).append(i)
    for positions in hits.values():
        if positions[-1] - positions[0] + 1 != len(positions):
            return False
    return True


def dual_diameter(c: SimplicialComplex) -> int:
    """Largest facet-to-facet distance in the dual graph.

    All sources at once, bit-parallel: reach[i] is the set of facets
    within r steps of facet i as a bitmask, and each round ORs in the
    neighbours' masks.  The masks stop changing after as many rounds as
    the diameter."""
    g = c.dual_graph()
    if not g:
        raise ValueError("empty complex has no diameter")
    reach = [1 << i for i in range(len(g))]
    rounds = 0
    while True:
        grown = []
        for mask, nbrs in zip(reach, g):
            for j in nbrs:
                mask |= reach[j]
            grown.append(mask)
        if grown == reach:
            break
        reach = grown
        rounds += 1
    if reach[0] != (1 << len(g)) - 1:
        raise ValueError("dual graph is disconnected")
    return rounds


def hirsch_bound(c: SimplicialComplex) -> int:
    """The classical diameter bound: vertices minus dimension minus one."""
    return len(c.vertices()) - c.dim - 1
