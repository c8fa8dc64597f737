"""Non-revisiting facet paths in normal flag simplicial complexes.

The central construction walks from a start facet toward a target (a
facet or a vertex set) by recursing into vertex links: pick a vertex of
the current facet nearest the target, build a path inside its link
toward the neighbours that are one step closer, join back, and repeat.
The resulting path never returns to a star it left, which keeps it
within the classical diameter bound.

No link is ever built as a complex of its own.  Links of links are links
of faces, lk(v, lk(σ, K)) = lk(σ ∪ v, K), so the recursion carries the
face σ and reads the link off the top complex K; path facets are facets
of K with its vertex ids throughout.  K keeps one vertex index: each
link's 1-skeleton as vertex bitmasks, built on first use, so every path
on K shares it.  Each link call runs one search, from its targets, on
bitmask layers grown only as far as a query needs.  σ and every facet
are bitmasks too; the entry points look facets up in the index, in and out.

All choices (start pearl, next pearl, base-case facet) break ties by
smallest vertex id, so paths are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexcore import SimplicialComplex, _bits, _mask


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


def _step(g: dict, frontier: int) -> int:
    """The vertices adjacent to some vertex of `frontier`, as a bitmask."""
    out = 0
    while frontier:
        low = frontier & -frontier
        out |= g[low.bit_length() - 1]
        frontier ^= low
    return out


class _Search:
    """Breadth-first search on a bitmask graph from a source set, grown
    only as far as its queries need.  layers[k] is the bitmask of the
    vertices at distance k from the sources and seen is their union; a
    last layer of 0 marks a search that has run out."""

    __slots__ = ("g", "layers", "seen")

    def __init__(self, g: dict, sources: int):
        self.g, self.layers, self.seen = g, [sources], sources

    def depth(self, vertices: int):
        """The distance from the sources to the nearest vertex of the
        bitmask `vertices`, or None when none is reachable.  Grows the
        search one layer at a time until it meets them or its frontier
        is empty."""
        layers = self.layers
        while not self.seen & vertices:
            if not layers[-1]:
                return None
            frontier = _step(self.g, layers[-1]) & ~self.seen
            layers.append(frontier)
            self.seen |= frontier
        k = 0
        while not layers[k] & vertices:
            k += 1
        return k


def vertex_distance(c: SimplicialComplex, x: int, targets):
    """Distance from vertex x to a vertex set in the 1-skeleton, plus
    the subset of targets realizing it."""
    targets = set(targets)
    if not targets:
        raise ValueError("empty target set")
    g = c._link_index().skeleton(0)
    if x not in g:
        raise ValueError(f"vertex {x} not in complex")
    live = _mask(g.keys() & targets)
    search = _Search(g, 1 << x)
    d = search.depth(live)
    if d is None:
        raise ValueError(f"vertex {x} cannot reach the target set")
    return d, set(_bits(live & search.layers[d]))


def _part1(skeleton, sigma: int, X: int, targets: int):
    """Facet path in the star of σ from facet X toward `targets`, a
    bitmask of vertices of lk(σ), whose 1-skeleton is skeleton(σ); the
    target set is met only by the last facet.  σ, X and every facet are
    vertex bitmasks.  Returns (facets, pearls, chis) where chis[i]
    indexes the facet current when pearl i starts; facets are facets of
    K and contain σ.  Below the top (σ nonempty) every target is a
    neighbour of the pearl whose link is entered, or a vertex of the
    facet Y of a segment; at the top, the callers drop the targets that
    are not vertices of K.

    One search from the targets T serves every pearl.  Let x be a pearl
    at distance d >= 1 from T and N the targets at distance d from x; the
    path descends to the neighbours y of x with dist(y, N) = d - 1, which
    are those in layer d - 1 of T's search.  If dist(y, N) = d - 1 then
    d - 1 <= dist(y, T) <= dist(y, N); if dist(y, t) = d - 1 with t in T,
    then dist(x, t) <= d, so t is in N.  The next pearl is such a y and
    its nearest targets are again T's at distance d - 1, so this repeats
    pearl by pearl.  A pearl off T has a neighbour one step closer, so
    the descent set is never empty.
    """
    residue = X & ~sigma
    if not residue & (residue - 1):  # one vertex left
        x = residue.bit_length() - 1
        if targets >> x & 1:
            return [X], [x], [0]
        if not targets:
            raise ValueError("target set missing from complex")
        y = targets & -targets  # the smallest target
        return [X, sigma | y], [x, y.bit_length() - 1], [0, 1]

    g = skeleton(sigma)
    search = _Search(g, targets)
    # the residue is a face of lk(σ): all of it is reachable, or none
    d = search.depth(residue)
    if d is None:
        raise ValueError(
            f"vertices {list(_bits(residue))} cannot reach the target set")
    reached = residue & search.layers[d]
    x = (reached & -reached).bit_length() - 1

    facets, pearls, chis = [X], [x], [0]
    while not targets & facets[-1]:
        d -= 1
        tilde = g[x] & search.layers[d]
        facets += _part1(skeleton, sigma | 1 << x, facets[-1], tilde)[0][1:]
        tilde &= facets[-1]
        x = (tilde & -tilde).bit_length() - 1
        pearls.append(x)
        chis.append(len(facets) - 1)
    return facets, pearls, chis


def _segment(skeleton, sigma: int, X: int, Y: int):
    """Non-revisiting facet path in the star of σ from facet X to facet
    Y, bitmasks that both contain σ, as (facets, pearls, chis) like
    _part1, which steps to Y itself when one vertex of X is off σ."""
    facets, pearls, chis = _part1(skeleton, sigma, X, Y & ~sigma)
    xl = pearls[-1]
    last = facets[-1]
    if not (last & Y) >> xl & 1:
        raise RuntimeError("final pearl does not join the two facets")
    if last != Y:
        facets += _segment(skeleton, sigma | 1 << xl, last, Y)[0][1:]
    return facets, pearls, chis


def _facet_path(facet_of: dict, facets: list, pearls: list,
                chis: list) -> FacetPath:
    """The FacetPath of a (facets, pearls, chis) triple on facet masks."""
    return FacetPath(tuple(map(facet_of.__getitem__, facets)), tuple(pearls),
                     tuple(chis + [len(facets) - 1]))


def _require_facet(c: SimplicialComplex, f) -> int:
    mask = c._link_index().mask_of.get(tuple(sorted(f)))
    if mask is None:
        raise ValueError(f"{f} is not a facet of the complex")
    return mask


def segment_to_vertex_set(c: SimplicialComplex, X, targets) -> FacetPath:
    """Path from facet X to a facet meeting the vertex set `targets`."""
    if not c.is_pure():
        raise ValueError("construction requires a pure complex")
    X = _require_facet(c, X)
    targets = frozenset(targets)
    if not targets:
        raise ValueError("empty target set")
    index = c._link_index()
    live = _mask(index.skeleton(0).keys() & targets)
    return _facet_path(index.facet_of, *_part1(index.skeleton, 0, X, live))


def combinatorial_segment(c: SimplicialComplex, X, Y) -> FacetPath:
    """Non-revisiting facet path from facet X to facet Y."""
    if not c.is_pure():
        raise ValueError("construction requires a pure complex")
    X = _require_facet(c, X)
    Y = _require_facet(c, Y)
    index = c._link_index()
    return _facet_path(index.facet_of, *_segment(index.skeleton, 0, X, Y))


def validate_path(c: SimplicialComplex, path: FacetPath) -> None:
    """Raise unless the path is a genuine ridge-adjacent facet walk."""
    d, mask_of = c.dim, c._link_index().mask_of
    masks = [mask_of.get(f) if isinstance(f, tuple) else None  # a list is unhashable
             for f in path.facets]
    if None in masks:
        raise ValueError(f"{path.facets[masks.index(None)]} is not a facet")
    for f1, f2, m1, m2 in zip(path.facets, path.facets[1:], masks, masks[1:]):
        if (m1 & m2).bit_count() != d:
            raise ValueError(f"facets {f1} and {f2} do not share a ridge")
    if len(path.breakpoints) != len(path.pearls) + 1:
        raise ValueError("breakpoint count must exceed pearl count by one")
    bp, last = path.breakpoints, len(path.facets) - 1
    if bp[0] != 0:
        raise ValueError(f"first breakpoint {bp[0]} is not 0")
    for a, b in zip(bp, bp[1:]):
        if not a <= b <= last:
            raise ValueError(f"breakpoint {b} is not in [{a}, {last}]")
    if bp[-1] != last:
        raise ValueError(f"last breakpoint {bp[-1]} is not {last}")
    for j, xj in enumerate(path.pearls):
        if xj not in path.facets[path.breakpoints[j]]:
            raise ValueError(f"pearl {xj} missing from its breakpoint facet")


def is_non_revisiting(path: FacetPath) -> bool:
    """True when every vertex occupies a contiguous stretch of the path:
    `left` collects the vertices of a facet missing from the next, and
    none of them may come back."""
    left = previous = 0
    for f in path.facets:
        mask = _mask(f)
        left |= previous & ~mask
        if mask & left:
            return False
        previous = mask
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
