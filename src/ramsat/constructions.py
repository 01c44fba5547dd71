"""Builders for the extremal constructions and the closed-form bounds.

Every builder returns the exact edge set given by its join lists, together
with vertex-role labels and (where one exists) the intended reference
coloring. Each kind's predicted edge count, in its ``KINDS`` row, comes
from direct join-list counting; for the general family the alternative
printed closed form is kept as a separate diagnostic because it disagrees
with the join lists by 2.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable, NamedTuple

from .colorings import TwoColoring
from .graphs import Graph, GraphError, petersen as _petersen_graph, star as _star_graph

__all__ = [
    "KINDS",
    "MAX_EDGES",
    "ConstructionSpec",
    "BuiltConstruction",
    "TheoremBounds",
    "build",
    "predicted_edge_count",
    "general_split",
    "general_printed_formula_edge_count",
    "general_min_n",
    "theorem_bounds",
    "prop1_upper_bound",
    "k3t4_sat_value",
    "k3p3_sat_value",
    "hanson_toft_value",
]

def _half_up(k: int) -> int:
    return (k + 1) // 2  # ceil(k/2)


class ConstructionSpec(NamedTuple):
    """Parameterized identifier of a catalog construction."""

    kind: str
    params: tuple[int, ...] = ()

    # -- named constructors -------------------------------------------------

    @classmethod
    def star(cls, n: int) -> "ConstructionSpec":
        return cls("star", (n,))

    @classmethod
    def j(cls, a: int, b: int, c: int) -> "ConstructionSpec":
        return cls("j", (a, b, c))

    @classmethod
    def c5dup(cls, *multiplicities: int) -> "ConstructionSpec":
        return cls("c5dup", tuple(multiplicities))

    @classmethod
    def petersen(cls) -> "ConstructionSpec":
        return cls("petersen")

    @classmethod
    def geven(cls, n: int) -> "ConstructionSpec":
        return cls("geven", (n,))

    @classmethod
    def godd(cls, n: int) -> "ConstructionSpec":
        return cls("godd", (n,))

    @classmethod
    def general(cls, k: int, n: int) -> "ConstructionSpec":
        return cls("general", (k, n))

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        kind, p = self.kind, self.params
        if kind not in KINDS:
            raise GraphError(f"unknown construction kind {kind!r}")
        if kind == "star":
            if len(p) != 1 or p[0] < 1:
                raise GraphError(f"star requires one parameter n >= 1, got {p}")
        elif kind == "j":
            if len(p) != 3:
                raise GraphError(f"j requires (a, b, c), got {p}")
            a, b, c = p
            if a < 1:
                raise GraphError(f"j requires a >= 1, got a={a}")
            if not ((b == 0 and c == 0) or (b >= 1 and c >= 1)):
                raise GraphError(
                    f"j requires b = c = 0 or both b >= 1 and c >= 1, got b={b}, c={c}"
                )
        elif kind == "c5dup":
            if len(p) != 5 or any(x < 1 for x in p):
                raise GraphError(f"c5dup requires 5 positive multiplicities, got {p}")
        elif kind == "petersen":
            if p:
                raise GraphError("petersen takes no parameters")
        elif kind == "geven":
            if len(p) != 1 or p[0] < 8 or p[0] % 2 != 0:
                raise GraphError(f"geven requires even n >= 8, got {p}")
        elif kind == "godd":
            if len(p) != 1 or p[0] < 9 or p[0] % 2 != 1:
                raise GraphError(f"godd requires odd n >= 9, got {p}")
        elif kind == "general":
            if len(p) != 2:
                raise GraphError(f"general requires (k, n), got {p}")
            k, n = p
            if k < 5:
                raise GraphError(f"general requires k >= 5, got k={k}")
            if n < general_min_n(k):
                raise GraphError(
                    f"general requires n >= 2k + (ceil(k/2)+1)*ceil(k/2) - 2"
                    f" = {general_min_n(k)} for k={k}, got n={n}"
                )

    @property
    def name(self) -> str:
        if self.params:
            return f"{self.kind}({', '.join(map(str, self.params))})"
        return self.kind


class BuiltConstruction(NamedTuple):
    """A constructed graph with role labels and the intended coloring."""

    spec: ConstructionSpec
    graph: Graph
    roles: dict[str, tuple[int, ...]]
    reference_coloring: TwoColoring | None = None
    reference_k: int | None = None
    notes: tuple[str, ...] = ()

    def vertex_labels(self) -> dict[int, str]:
        labels: dict[int, str] = {}
        for role, vertices in self.roles.items():
            if len(vertices) == 1:
                labels[vertices[0]] = role
            else:
                for i, v in enumerate(vertices):
                    labels[v] = f"{role}{i}"
        return labels


def general_min_n(k: int) -> int:
    q = _half_up(k)
    return 2 * k + (q + 1) * q - 2


def general_split(k: int, n: int) -> tuple[int, int]:
    """Solve s*q + t*(q+1) = n - 2k - 2q + 2 with t = remainder mod q."""
    q = _half_up(k)
    rest = n - 2 * k - 2 * q + 2
    t = rest % q
    s = (rest - t * (q + 1)) // q
    if s < 0:
        raise GraphError(f"no valid split for general(k={k}, n={n}): s would be {s}")
    return s, t


# -- builders ----------------------------------------------------------------

# the most edges ``build`` accepts. Every kind has at least n - 1 edges, so
# this also bounds n, and with it the n^2/2-bit string behind graph6 output;
# README gives the time and memory of the largest accepted construction
MAX_EDGES = 10_000


def build(spec: ConstructionSpec) -> BuiltConstruction:
    """Build ``spec``, refusing one with more than ``MAX_EDGES`` edges
    before anything is allocated."""
    m = predicted_edge_count(spec)
    if m > MAX_EDGES:
        raise GraphError(
            f"{spec.name} would have {m} edges; construct builds at most"
            f" {MAX_EDGES} (constructions.MAX_EDGES)"
        )
    return KINDS[spec.kind].builder(spec)


def _build_star(spec: ConstructionSpec) -> BuiltConstruction:
    (n,) = spec.params
    g = _star_graph(n)
    roles = {"center": (0,), "leaves": tuple(range(1, n))}
    return BuiltConstruction(spec, g, roles)


def _build_j(spec: ConstructionSpec) -> BuiltConstruction:
    a, b, c = spec.params
    y, z = 0, 1
    set_a = tuple(range(2, 2 + a))
    set_b = tuple(range(2 + a, 2 + a + b))
    set_c = tuple(range(2 + a + b, 2 + a + b + c))
    edges = [(y, v) for v in set_a + set_b]
    edges += [(z, v) for v in set_a + set_c]
    edges += [(u, v) for u in set_b for v in set_c]
    g = Graph(2 + a + b + c, edges)
    roles = {"y": (y,), "z": (z,), "A": set_a, "B": set_b, "C": set_c}
    return BuiltConstruction(spec, g, roles)


def _build_c5dup(spec: ConstructionSpec) -> BuiltConstruction:
    mult = spec.params
    blocks = []
    nxt = 0
    for m in mult:
        blocks.append(tuple(range(nxt, nxt + m)))
        nxt += m
    edges = []
    for i in range(5):
        for u in blocks[i]:
            for v in blocks[(i + 1) % 5]:
                edges.append((u, v))
    g = Graph(nxt, edges)
    roles = {f"class{i}": blocks[i] for i in range(5)}
    return BuiltConstruction(spec, g, roles)


def _build_petersen(spec: ConstructionSpec) -> BuiltConstruction:
    g = _petersen_graph()
    roles = {"outer": tuple(range(5)), "inner": tuple(range(5, 10))}
    return BuiltConstruction(spec, g, roles)


def _build_matched_core(
    spec: ConstructionSpec,
    names: tuple[str, ...],
    core: list[tuple[int, int]],
    core_blue: list[tuple[int, int]],
) -> BuiltConstruction:
    """The half that geven and godd share. Vertex i is the singleton role
    ``names[i]`` (y = 0, z = 1) and ``core`` lists the edges among them;
    H = the remaining vertices is a perfect matching joined to y and z. The
    k = 4 reference coloring is blue on H's matching and on ``core_blue``."""
    (n,) = spec.params
    h = tuple(range(len(names), n))
    matching = list(zip(h[::2], h[1::2]))
    g = Graph(n, matching + [(x, v) for x in (0, 1) for v in h] + core)
    roles = {name: (v,) for v, name in enumerate(names)}
    roles["H"] = h
    coloring = TwoColoring.from_blue_edges(g, matching + core_blue)
    return BuiltConstruction(spec, g, roles, coloring, 4)


def _build_geven(spec: ConstructionSpec) -> BuiltConstruction:
    names = ("y", "z", "y1", "y2", "y3", "z1", "z2", "z3")
    y, z, y1, y2, y3, z1, z2, z3 = range(len(names))
    core = [(y, v) for v in (y1, y2, y3, z1, z2, z3)]
    core += [(z, v) for v in (y1, y2, y3, z1, z2)]
    core += [(y1, v) for v in (y2, z1, z2, z3)]
    core += [(y2, v) for v in (z1, z2, z3)]
    core += [(z1, z2), (z3, y3)]
    blue = [(y, y1), (y, y2), (y1, y2), (z, z1), (z, z2), (z1, z2), (y3, z3)]
    return _build_matched_core(spec, names, core, blue)


def _build_godd(spec: ConstructionSpec) -> BuiltConstruction:
    names = ("y", "z", "y1", "y2", "y3", "y4", "z1", "z2", "z3")
    y, z, y1, y2, y3, y4, z1, z2, z3 = range(len(names))
    core = [(y, v) for v in (y1, z1, z2, z3)]
    core += [(z, v) for v in (y1, y2, y3, y4, z1, z2, z3)]
    core += [(z1, v) for v in (y1, y2, y3, y4, z2)]
    core += [(z2, v) for v in (y1, y2, y3, y4)]
    core += [(y2, y3), (y4, z3)]
    blue = [(z, z1), (z, z2), (z1, z2), (y, y1), (y2, y3), (y4, z3)]
    return _build_matched_core(spec, names, core, blue)


def _build_general(spec: ConstructionSpec) -> BuiltConstruction:
    k, n = spec.params
    q = _half_up(k)
    s, t = general_split(k, n)
    y, z, u, w = 0, 1, 2, 3
    # Vertex blocks, each a clique: H1, H2 (K_{k-2}), H3, H4 (K_{q-1}), then
    # the s blocks of size q and t blocks of size q+1.
    nxt = 4
    blocks: list[tuple[int, ...]] = []
    for size in [k - 2, k - 2, q - 1, q - 1] + [q] * s + [q + 1] * t:
        blocks.append(tuple(range(nxt, nxt + size)))
        nxt += size
    assert nxt == n
    h1, h2, h3, h4 = blocks[:4]
    cliques = [
        (a, b) for block in blocks for i, a in enumerate(block) for b in block[i + 1 :]
    ]
    edges = cliques + [(a, b) for a in h1 for b in h2]
    edges += [(x, v) for x in (y, z) for v in range(4, n)]
    edges += [(y, w), (z, u), (u, w)]
    edges += [(u, v) for v in h2 + h3]
    edges += [(w, v) for v in h1 + h4]
    g = Graph(n, edges)
    roles: dict[str, tuple[int, ...]] = {
        "y": (y,),
        "z": (z,),
        "u": (u,),
        "w": (w,),
        "H1": h1,
        "H2": h2,
        "H3": h3,
        "H4": h4,
    }
    for i, block in enumerate(blocks[4 : 4 + s]):
        roles[f"S{i}"] = block
    for i, block in enumerate(blocks[4 + s :]):
        roles[f"T{i}"] = block
    # blue: the cliques, and y, z, u, w each joined to H1, H2, H3, H4 in turn
    blue = cliques + [
        (x, v) for x, block in zip((y, z, u, w), blocks) for v in block
    ]
    coloring = TwoColoring.from_blue_edges(g, blue)
    notes = ()
    if n < general_min_n(k) + 4:
        notes = (
            "n is in the weaker validity range [n_min, n_min + 4); the"
            " stricter threshold n_min + 4 is not met",
        )
    return BuiltConstruction(spec, g, roles, coloring, k, notes)


class Kind(NamedTuple):
    """A construction kind: its parameter names, in ``ConstructionSpec.params``
    order, its builder, and its edge count taken straight from the builder's
    join lists, as a function of the parameters. c5dup's one name stands for
    all its multiplicities."""

    params: tuple[str, ...]
    builder: Callable[[ConstructionSpec], BuiltConstruction]
    edge_count: Callable[..., int]


KINDS = {
    "star": Kind(("n",), _build_star, lambda n: n - 1),
    "j": Kind(("a", "b", "c"), _build_j, lambda a, b, c: 2 * (a + b + c) + b * c - b - c),
    "c5dup": Kind(
        ("multiplicities",),
        _build_c5dup,
        lambda *m: sum(m[i] * m[(i + 1) % 5] for i in range(5)),
    ),
    "petersen": Kind((), _build_petersen, lambda: 15),
    "geven": Kind(("n",), _build_geven, lambda n: 5 * n // 2),
    "godd": Kind(("n",), _build_godd, lambda n: (5 * n - 1) // 2),
    "general": Kind(
        ("k", "n"), _build_general, lambda k, n: 2 * (n - 3) + _general_join_tail(k, n)
    ),
}


# -- predicted edge counts ----------------------------------------------------


def predicted_edge_count(spec: ConstructionSpec) -> int:
    spec.validate()
    return KINDS[spec.kind].edge_count(*spec.params)


def general_printed_formula_edge_count(k: int, n: int) -> int:
    """The alternative closed form for the general family (diagnostic only).

    Starts from 2(n-2) where the join lists give the two dominating
    vertices degree n-3 each; it therefore exceeds the direct count by 2.
    """
    ConstructionSpec.general(k, n).validate()
    return 2 * (n - 2) + _general_join_tail(k, n)


def _general_join_tail(k: int, n: int) -> int:
    """The general family's join-list edges past the first term, which
    counts the edges at the two dominating vertices."""
    q = _half_up(k)
    s, t = general_split(k, n)
    return (
        comb(2 * k - 4, 2)
        + 2 * (k - 2)
        + 1
        + (s + 2) * comb(q, 2)
        + t * comb(q + 1, 2)
    )


# -- closed-form bound evaluators ----------------------------------------------


class TheoremBounds(NamedTuple):
    lower: Fraction
    upper: Fraction
    c: Fraction
    C: Fraction


def theorem_bounds(k: int, n: int) -> TheoremBounds:
    """Bounds (3/2 + ceil(k/2)/2)*n - c <= sat <= ... + C for k >= 5."""
    if k < 5:
        raise GraphError(f"theorem_bounds requires k >= 5, got {k}")
    if n < general_min_n(k):
        raise GraphError(
            f"theorem_bounds requires n >= {general_min_n(k)} for k={k}, got {n}"
        )
    q = _half_up(k)
    slope = Fraction(3, 2) + Fraction(q, 2)
    c = (Fraction(q, 2) + Fraction(3, 2)) * k - 2
    big_c = (
        2 * k * k - 6 * k + Fraction(3, 2) - q * (k - Fraction(q, 2) - 1)
    )
    return TheoremBounds(slope * n - c, slope * n + big_c, c, big_c)


def prop1_upper_bound(t: int, k: int, n: int) -> int:
    """Counting upper bound for sat against (K_t, single k-vertex tree)."""
    if t < 2 or k < 2:
        raise GraphError(f"prop1_upper_bound requires t >= 2 and k >= 2, got {t}, {k}")
    r = n % (k - 1)
    return (
        n * (t - 2) * (k - 1)
        - (t - 2) ** 2 * (k - 1) ** 2
        + comb((t - 2) * (k - 1), 2)
        + (n // (k - 1)) * comb(k - 1, 2)
        + comb(r, 2)
    )


def k3t4_sat_value(n: int) -> int:
    """Exact saturation number for the 4-vertex tree family, n >= 18."""
    if n < 18:
        raise GraphError(f"k3t4_sat_value requires n >= 18, got {n}")
    return 5 * n // 2


def k3p3_sat_value(n: int) -> int:
    """Exact saturation number for the 3-vertex tree (P3), n >= 11."""
    if n < 11:
        raise GraphError(f"k3p3_sat_value requires n >= 11, got {n}")
    return 5 * n // 2 - 5


def hanson_toft_value(r: int, n: int) -> int:
    """Conjectured saturation number for complete-graph targets with
    Ramsey number r."""
    if r < 3:
        raise GraphError(f"hanson_toft_value requires r >= 3, got {r}")
    if n < r:
        return comb(n, 2)
    return (r - 2) * (n - r + 2) + comb(r - 2, 2)
