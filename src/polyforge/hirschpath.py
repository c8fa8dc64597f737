"""Non-revisiting facet paths in normal flag simplicial complexes.

The central construction walks from a start facet toward a target (a
facet or a vertex set) by recursing into vertex links: pick a vertex of
the current facet nearest the target, build a path inside its link
toward the neighbours that are one step closer, join back, and repeat.
The resulting path never returns to a star it left, which keeps it
within the classical diameter bound.

All choices (start pearl, next pearl, base-case facet) break ties by
smallest vertex id, so paths are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexcore import SimplicialComplex, bfs


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


def _part1(c: SimplicialComplex, X: tuple, targets: frozenset):
    """Facet path from facet X toward the vertex set `targets`; the
    target set is met only by the last facet.  Returns (facets, pearls,
    chis) where chis[i] indexes the facet current when pearl i starts.
    """
    d = c.dim
    if d == 0:
        if set(X) & targets:
            return [X], [min(set(X) & targets)], [0]
        live = sorted(v for v in targets if c.contains_face((v,)))
        if not live:
            raise ValueError("target set missing from complex")
        return [X, (live[0],)], [X[0], live[0]], [0, 1]

    g = c.one_skeleton()
    dist = bfs(g, g.keys() & targets)
    missing = [v for v in X if v not in dist]
    if missing:
        raise ValueError(f"vertices {missing} cannot reach the target set")
    x = min(X, key=lambda v: (dist[v], v))
    current_targets = vertex_distance(c, x, targets)[1]

    facets = [X]
    pearls = [x]
    chis = [0]
    Xi = X
    while not (set(Xi) & targets):
        dist_i = bfs(g, current_targets)
        dxi = dist_i[x]
        tilde = sorted(y for y in g[x]
                       if dist_i.get(y, -2) + 1 == dxi)
        if not tilde:
            raise ValueError("no descent neighbour; complex not connected enough")
        lk, old = c.link((x,))
        index = {v: i for i, v in enumerate(old)}
        sub_start = tuple(sorted(index[v] for v in Xi if v != x))
        sub_target = frozenset(index[y] for y in tilde)
        sub_facets, _, _ = _part1(lk, sub_start, sub_target)
        lifted = [tuple(sorted([old[v] for v in f] + [x]))
                  for f in sub_facets]
        assert lifted[0] == Xi
        facets.extend(lifted[1:])
        Xi = lifted[-1]
        x = min(set(Xi) & set(tilde))
        current_targets = vertex_distance(c, x, current_targets)[1]
        pearls.append(x)
        chis.append(len(facets) - 1)
    return facets, pearls, chis


def _require_facet(c: SimplicialComplex, f) -> tuple:
    t = tuple(sorted(f))
    if t not in c.facets:
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
    facets, pearls, chis = _part1(c, X, targets)
    return FacetPath(tuple(facets), tuple(pearls),
                     tuple(chis + [len(facets) - 1]))


def combinatorial_segment(c: SimplicialComplex, X, Y) -> FacetPath:
    """Non-revisiting facet path from facet X to facet Y."""
    if not c.is_pure():
        raise ValueError("construction requires a pure complex")
    X = _require_facet(c, X)
    Y = _require_facet(c, Y)
    d = c.dim
    if d == 0:
        if X == Y:
            return FacetPath((X,), (X[0],), (0, 0))
        return FacetPath((X, Y), (X[0], Y[0]), (0, 1))

    facets, pearls, chis = _part1(c, X, frozenset(Y))
    xl = pearls[-1]
    last = facets[-1]
    if xl not in last or xl not in Y:
        raise RuntimeError("final pearl does not join the two facets")
    lk, old = c.link((xl,))
    index = {v: i for i, v in enumerate(old)}
    sub_X = tuple(sorted(index[v] for v in last if v != xl))
    sub_Y = tuple(sorted(index[v] for v in Y if v != xl))
    sub = combinatorial_segment(lk, sub_X, sub_Y)
    lifted = [tuple(sorted([old[v] for v in f] + [xl])) for f in sub.facets]
    assert lifted[0] == last
    facets = facets + lifted[1:]
    return FacetPath(tuple(facets), tuple(pearls),
                     tuple(chis + [len(facets) - 1]))


def validate_path(c: SimplicialComplex, path: FacetPath) -> None:
    """Raise unless the path is a genuine ridge-adjacent facet walk."""
    d = c.dim
    for f in path.facets:
        if f not in c.facets:
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
    """Largest facet-to-facet distance in the dual graph."""
    g = c.dual_graph()
    if not g:
        raise ValueError("empty complex has no diameter")
    diameter = 0
    for source in range(len(g)):
        dist = bfs(g, [source])
        if len(dist) != len(g):
            raise ValueError("dual graph is disconnected")
        diameter = max(diameter, max(dist.values()))
    return diameter


def hirsch_bound(c: SimplicialComplex) -> int:
    """The classical diameter bound: vertices minus dimension minus one."""
    return len(c.vertices()) - c.dim - 1
