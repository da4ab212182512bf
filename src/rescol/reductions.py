"""Resilience-preserving reductions between CNF formulas and 3-coloring.

Formula-to-formula operations:

* blow_up: expand the disjunction of s fresh-variable copies of a formula
  into CNF by the s-fold clause product.  Satisfiability is preserved, clause
  width multiplies by s, and a formula that survives fixing any r variables
  yields one that survives fixing any (r+1)*s - 1.
* shrink_down: split every clause around a fresh switch variable, roughly
  halving the width; resilience r becomes min(r, floor(width/2)).
* hardness_chain: compose the two so a 3-CNF input becomes a formula of
  width r+1 that survives fixing any r variables whenever the input is
  satisfiable.

The formula-to-graph encoder maps width-6 CNF to 3-colorability through a
gadget library.  One base vertex anchors a reference color ("gray", color 2
after canonicalization).  Each literal gets two port vertices adjacent to the
base, so ports can only take the other two colors ("white"/"black"); a
literal counts as true exactly when its two ports share a color.  A negation
gadget ties the two polarities of a variable together so exactly one is
true, and a clause gadget is 3-color-extendable exactly when at least one of
its six literal slots is true.  verify_gadget_contracts certifies all of
this exhaustively on standalone copies of the gadgets.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import asdict, dataclass
from typing import Iterable

from .coloring import extend_coloring, validate_coloring
from .graphs import BudgetExceededError, Graph, InputError, add_edges, non_edges
from .sat import CnfFormula, _is_tautology

DEFAULT_CLAUSE_BUDGET = 10**6
DEFAULT_VERTEX_BUDGET = 10**5

GRAY = 2  # canonical base color


def blow_up(phi: CnfFormula, s: int, *, clause_budget: int | None = None) -> CnfFormula:
    """CNF expansion of the disjunction of s copies of phi on fresh variables.

    Copy i (0-based) renames variable v to i*num_vars + v.  The output has
    s * num_vars variables and m**s clauses, one per element of the s-fold
    clause product, enumerated in lexicographic order of clause indices
    (the order of ``itertools.product(phi.clauses, repeat=s)``).
    """
    if s < 1:
        raise InputError("s must be >= 1")
    budget = DEFAULT_CLAUSE_BUDGET if clause_budget is None else clause_budget
    m = len(phi.clauses)
    # with m >= 2, m**s >= 2**s > budget once s reaches budget's bit length,
    # so a huge s is refused before the power is computed
    if (m >= 2 and s >= budget.bit_length()) or m**s > budget:
        raise BudgetExceededError(f"blow-up would emit {m}^{s} clauses, over the budget of {budget}")
    # one clause passes the count check for any s but grows s times wider
    if m == 1 and s * phi.width > budget:
        raise BudgetExceededError(
            f"blow-up would emit one clause of {s * phi.width} literals, over the budget of {budget}"
        )
    n = phi.num_vars
    if m <= 1:
        # the product of no clauses is empty, and of one clause it is that
        # clause renamed into every copy in turn: built once here, where the
        # fold below would rebuild the growing clause at each of its s steps
        copies = range(s) if phi.width else ()  # an empty clause stays empty
        product = [
            tuple(lit + i * n if lit > 0 else lit - i * n for i in copies for lit in cl) for cl in phi.clauses
        ]
        return CnfFormula._built(s * n, tuple(product))
    # extend every partial product by every clause of the next copy, so the
    # product keeps its lexicographic order with copy 0 most significant
    out: list[tuple[int, ...]] = [()]
    for i in range(s):
        offset = i * n
        copy = [tuple(lit + offset if lit > 0 else lit - offset for lit in cl) for cl in phi.clauses]
        out = [head + cl for head in out for cl in copy]
    return CnfFormula._built(s * n, tuple(out))


def shrink_down(phi: CnfFormula) -> CnfFormula:
    """Split every clause around a fresh switch variable.

    Clause j of length l becomes (first ceil(l/2) literals + z_j) and
    (remaining literals + -z_j), so the width drops to ceil(width/2) + 1.
    Satisfiability is always preserved.  When every clause has exactly w
    distinct variables, an input that survives fixing any r variables
    yields an output that survives fixing any min(r, floor(w/2)); narrower
    or duplicate-literal clauses void that guarantee because one of their
    halves can be wiped out with fewer fixes.
    """
    if phi.width < 2:
        raise InputError("shrink-down requires width >= 2")
    n = phi.num_vars
    out: list[tuple[int, ...]] = []
    for j, cl in enumerate(phi.clauses):
        z = n + 1 + j
        half = (len(cl) + 1) // 2
        out.append(tuple(cl[:half]) + (z,))
        out.append(tuple(cl[half:]) + (-z,))
    return CnfFormula._built(n + len(phi.clauses), tuple(out))


def _exact_three_cnf(phi: CnfFormula) -> CnfFormula:
    """Rewrite a width <= 3 formula so every clause has three distinct
    variables: duplicates collapse, tautological clauses drop, and a narrow
    clause doubles over fresh variables, one copy with each variable and one
    with its negation, until it has three: (a|b) becomes (a|b|u), (a|b|-u),
    and an empty clause the 8-clause contradiction.  The shrink steps need
    the distinctness."""
    fresh = phi.num_vars
    out: list[tuple[int, ...]] = []
    for cl in phi.clauses:
        if _is_tautology(cl):
            continue
        clauses = [tuple(dict.fromkeys(cl))]
        while len(clauses[0]) < 3:
            fresh += 1
            clauses = [c + (sign * fresh,) for c in clauses for sign in (1, -1)]
        out.extend(clauses)
    return CnfFormula._built(fresh, tuple(out))


def _pad_to_width(phi: CnfFormula, width: int) -> CnfFormula:
    """Widen narrow clauses by appending copies of their leading literals.

    Leading literals land in the first half of the next split and their
    appended copies in the second, so no half ever holds the same variable
    twice; the shrink-step resilience argument depends on exactly that.
    A formula with no clause narrower than width is returned as it is.
    """
    if all(len(cl) >= width for cl in phi.clauses):
        return phi
    out: list[tuple[int, ...]] = []
    for cl in phi.clauses:
        pad = width - len(cl)
        if pad > 0:
            assert pad <= len(cl) and pad <= width // 2, "pad would break half separation"
            cl = cl + cl[:pad]
        out.append(cl)
    return CnfFormula._built(phi.num_vars, tuple(out))


# Post-expansion clause width to start shrinking from, chosen so repeated
# halving lands on width exactly r + 1 while every split keeps half-clause
# size at least r.  For r >= 5 the general formula 4(r+1) - 6 works in two
# shrink rounds; smaller r need wider hand-picked starting points and a
# third round.
_CHAIN_START_WIDTH = {2: 9, 3: 16, 4: 24}


def hardness_chain(r: int, phi3: CnfFormula, *, clause_budget: int | None = None) -> CnfFormula:
    """Turn a 3-CNF formula into a width-(r+1) formula that survives fixing
    any r variables whenever phi3 is satisfiable and is unsatisfiable
    whenever phi3 is not.

    Pipeline: rewrite the input as exact 3-CNF, blow up with s = r + 1
    copies, widen every clause to the starting width for this r, then
    shrink down until the width is r + 1, re-padding to uniform width
    before each round so no clause is ever split below the safe size.
    """
    if r < 2:
        raise InputError("hardness chain requires r >= 2")
    if phi3.width > 3:
        raise InputError("input must have width <= 3")
    budget = DEFAULT_CLAUSE_BUDGET if clause_budget is None else clause_budget
    s = r + 1
    psi = blow_up(_exact_three_cnf(phi3), s, clause_budget=budget)
    psi = _pad_to_width(psi, _CHAIN_START_WIDTH.get(r, 4 * s - 6))
    while psi.width > s:
        if 2 * len(psi.clauses) > budget:
            raise BudgetExceededError(
                f"shrink step would emit {2 * len(psi.clauses)} clauses, over the budget of {budget}"
            )
        psi = shrink_down(_pad_to_width(psi, psi.width))
    return psi


@dataclass(frozen=True)
class GadgetRecord:
    """Provenance for one gadget: its own vertices plus referenced ports.

    ref is the signed literal for literal gadgets, the variable for negation
    gadgets, and the clause index for clause gadgets.
    """

    kind: str
    vertices: tuple[int, ...]
    ports: tuple[int, ...]
    ref: int


@dataclass(frozen=True)
class GadgetGraph:
    """A gadget-built graph: the base vertex, the port pair of every literal,
    and per-gadget provenance records."""

    graph: Graph
    base: int
    literal_ports: dict[int, tuple[int, int]]
    provenance: tuple[GadgetRecord, ...]
    source_num_vars: int


class _Builder:
    def __init__(self) -> None:
        self.n = 0
        self.edges: set[tuple[int, int]] = set()

    def vertex(self) -> int:
        v = self.n
        self.n += 1
        return v

    def edge(self, u: int, v: int) -> None:
        self.edges.add((u, v) if u < v else (v, u))

    def ports(self, base: int, count: int) -> tuple[int, ...]:
        """`count` new vertices, each joined to the base."""
        ports = tuple(self.vertex() for _ in range(count))
        for p in ports:
            self.edge(base, p)
        return ports

    def graph(self) -> Graph:
        # the wiring joins only vertices it has made, never one to itself
        return Graph._built(self.n, frozenset(self.edges))


def _wire_negation(b: _Builder, base: int, ports: tuple[int, ...]) -> tuple[int, ...]:
    """Force exactly one of the literal pairs (p1, p2) and (q1, q2) of
    ports = (p1, p2, q1, q2) monochromatic.

    inv_* vertices hold the opposite color of their pair's second port.  Each
    "head" vertex is adjacent to two {white, black} vertices, so it is forced
    gray when they differ and may leave gray only when they agree:

        h1 can leave gray  iff  pos ports agree        (variable true)
        h2 can leave gray  iff  neg ports agree        (variable false)
        h3 can leave gray  iff  pos ports differ       (via inv_p)
        h4 can leave gray  iff  neg ports differ       (via inv_q)

    The edge h1-h2 forbids both polarities false, h3-h4 forbids both true.
    """
    p1, p2, q1, q2 = ports
    inv_p = b.vertex()
    inv_q = b.vertex()
    h1 = b.vertex()
    h2 = b.vertex()
    h3 = b.vertex()
    h4 = b.vertex()
    b.edge(base, inv_p)
    b.edge(base, inv_q)
    b.edge(p2, inv_p)
    b.edge(q2, inv_q)
    b.edge(p1, h1)
    b.edge(p2, h1)
    b.edge(q1, h2)
    b.edge(q2, h2)
    b.edge(p1, h3)
    b.edge(inv_p, h3)
    b.edge(q1, h4)
    b.edge(inv_q, h4)
    b.edge(h1, h2)
    b.edge(h3, h4)
    return (inv_p, inv_q, h1, h2, h3, h4)


def _wire_clause(b: _Builder, base: int, ports: tuple[int, ...]) -> tuple[int, ...]:
    """3-color-extendable exactly when some slot's ports share a color; slot
    i of the six is ports[2i], ports[2i + 1].

    Per slot a head vertex is forced gray when the slot is false.  Three
    combiner cells OR pairs of heads: the cell output is forced gray exactly
    when both its heads are gray.  The outputs feed a triangle through
    pendant edges; with all outputs gray the triangle would need three colors
    out of {white, black}, which fails, while any non-gray output frees its
    triangle corner to take gray.
    """
    heads = []
    for u, v in zip(ports[::2], ports[1::2]):
        w = b.vertex()
        b.edge(u, w)
        b.edge(v, w)
        heads.append(w)
    cells: list[int] = []
    outs = []
    for j in range(3):
        m1 = b.vertex()
        m2 = b.vertex()
        out = b.vertex()
        b.edge(heads[2 * j], m1)
        b.edge(heads[2 * j + 1], m2)
        b.edge(m1, m2)
        b.edge(m1, out)
        b.edge(m2, out)
        cells.extend((m1, m2, out))
        outs.append(out)
    corners = [b.vertex() for _ in range(3)]
    for t, out in zip(corners, outs):
        b.edge(t, out)
    b.edge(corners[0], corners[1])
    b.edge(corners[0], corners[2])
    b.edge(corners[1], corners[2])
    return tuple(heads) + tuple(cells) + tuple(corners)


_VERTICES_PER_VARIABLE = 10  # 4 ports + 6 negation internals
_VERTICES_PER_CLAUSE = 18  # 6 heads + 9 combiner cells + 3 triangle corners


def six_cnf_to_graph(phi: CnfFormula, *, vertex_budget: int | None = None) -> GadgetGraph:
    """Encode a width-<=6 formula as a 3-colorability instance.

    Clauses shorter than six literals are padded by repeating their final
    literal.  Every occurring variable gets both polarities' literal gadgets
    plus a negation gadget, whether or not both polarities occur, so decoding
    is total.  The graph is 3-colorable iff phi is satisfiable, and any
    proper 3-coloring decodes to a satisfying assignment.
    """
    if phi.width > 6:
        raise InputError("clause width exceeds 6")
    if phi.has_empty_clause:
        raise InputError("formula contains an empty clause")
    budget = DEFAULT_VERTEX_BUDGET if vertex_budget is None else vertex_budget
    variables = phi.variables()
    total = 1 + _VERTICES_PER_VARIABLE * len(variables) + _VERTICES_PER_CLAUSE * len(phi.clauses)
    if total > budget:
        raise BudgetExceededError(
            f"encoding would need {total} vertices, over the budget of {budget}"
        )

    b = _Builder()
    base = b.vertex()
    ports: dict[int, tuple[int, int]] = {}
    records: list[GadgetRecord] = []
    for v in variables:
        quad = b.ports(base, 4)
        ports[v], ports[-v] = quad[:2], quad[2:]
        records.append(GadgetRecord("literal", ports[v], (), v))
        records.append(GadgetRecord("literal", ports[-v], (), -v))
        records.append(GadgetRecord("negation", _wire_negation(b, base, quad), quad, v))
    for j, cl in enumerate(phi.clauses):
        slots = list(cl) + [cl[-1]] * (6 - len(cl))
        flat = tuple(x for lit in slots for x in ports[lit])
        records.append(GadgetRecord("clause", _wire_clause(b, base, flat), flat, j))
    return GadgetGraph(
        graph=b.graph(),
        base=base,
        literal_ports=ports,
        provenance=tuple(records),
        source_num_vars=phi.num_vars,
    )


def three_sat_to_coloring(phi3: CnfFormula) -> GadgetGraph:
    """Encode a 3-CNF formula as 3-colorability with one added edge to spare:
    when phi3 is satisfiable the output stays 3-colorable after any single
    edge addition.  Pipeline: blow up with s=2 (width <= 6), then encode,
    under DEFAULT_CLAUSE_BUDGET and DEFAULT_VERTEX_BUDGET."""
    if phi3.width > 3:
        raise InputError("input must have width <= 3")
    return six_cnf_to_graph(blow_up(phi3, 2))


def decode_coloring(gg: GadgetGraph, colors: Iterable[int]) -> dict[int, bool]:
    """Read a truth assignment off a proper 3-coloring of a gadget graph.

    A variable is true when its positive ports share a color, which no
    renaming of the colors changes.  Variables that never occur default to
    True.  An improper coloring raises InputError.
    """
    colors = tuple(colors)
    if not validate_coloring(gg.graph, colors, 3):
        raise InputError("not a proper 3-coloring of the gadget graph")
    assignment: dict[int, bool] = {}
    for v in range(1, gg.source_num_vars + 1):
        pair = gg.literal_ports.get(v)
        assignment[v] = True if pair is None else colors[pair[0]] == colors[pair[1]]
    return assignment


def provenance_json(gg: GadgetGraph) -> str:
    """Sidecar document mapping vertex ranges to gadget records."""
    doc = {
        "base": gg.base,
        "vertex_count": gg.graph.n,
        "source_num_vars": gg.source_num_vars,
        "literal_ports": {str(lit): list(pair) for lit, pair in sorted(gg.literal_ports.items())},
        "gadgets": [asdict(rec) for rec in gg.provenance],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@dataclass(frozen=True)
class ContractCheck:
    gadget: str
    contract: str
    pattern: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class ContractReport:
    checks: tuple[ContractCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> tuple[ContractCheck, ...]:
        return tuple(c for c in self.checks if not c.ok)

    def counts(self) -> tuple[int, int]:
        passed = sum(1 for c in self.checks if c.ok)
        return passed, len(self.checks) - passed


def _standalone(num_ports: int, wire) -> tuple[Graph, int, tuple[int, ...], tuple[int, ...]]:
    """A gadget on its own: the base, `num_ports` ports joined to the base and
    whatever `wire(builder, base, ports)` adds, if `wire` is not None; returns
    the graph, the base, the ports and the internal vertices `wire` returns."""
    b = _Builder()
    base = b.vertex()
    ports = b.ports(base, num_ports)
    internals = () if wire is None else wire(b, base, ports)
    return b.graph(), base, ports, internals


def _survival_checks(name: str, graph: Graph, base: int) -> list[ContractCheck]:
    """Adding any one edge to the standalone gadget must leave it 3-colorable
    with the base still gray (some admissible port pattern survives)."""
    checks = []
    for pair in non_edges(graph):
        ok = extend_coloring(add_edges(graph, [pair]), 3, {base: GRAY}) is not None
        detail = "" if ok else "no proper coloring with the base gray"
        checks.append(ContractCheck(name, "survives-one-added-edge", f"edge={pair}", ok, detail))
    return checks


# Per gadget with a port law: its name, port count and wiring, the law's
# contract name, and the law accepting exactly the port patterns (0 white,
# 1 black, base gray) that must extend.
_PORT_LAWS = (
    (
        "negation",
        4,
        _wire_negation,
        "exactly-one-polarity-true",
        lambda p: (p[0] == p[1]) != (p[2] == p[3]),
    ),
    (
        "clause",
        12,
        _wire_clause,
        "at-least-one-slot-true",
        lambda p: any(p[2 * i] == p[2 * i + 1] for i in range(6)),
    ),
)


def verify_gadget_contracts() -> ContractReport:
    """Exhaustively certify the gadget library on standalone copies.

    Checks, per gadget: (1) literal ports only ever take the two non-base
    colors; (2) the negation gadget extends exactly when one of its two
    literal pairs is monochromatic; (3) the clause gadget extends exactly
    when at least one of its six slots is; (4) every single added edge leaves
    the gadget 3-colorable with the base gray; (5) all but at most one
    internal vertex can take at least two different colors.
    """
    graph, base, (p1, p2), _ = _standalone(2, None)
    forced = all(
        (extend_coloring(graph, 3, {base: GRAY, p1: c1, p2: c2}) is not None)
        == (c1 != GRAY and c2 != GRAY)
        for c1 in range(3)
        for c2 in range(3)
    )
    checks = [ContractCheck("literal", "ports-avoid-base-color", "all 9 port colorings", forced)]
    checks += _survival_checks("literal", graph, base)

    for name, num_ports, wire, contract, accepts in _PORT_LAWS:
        graph, base, ports, internals = _standalone(num_ports, wire)
        # every white/black port pattern extends exactly when the law accepts it
        for pattern in itertools.product((0, 1), repeat=len(ports)):
            clamp = {base: GRAY}
            clamp.update(zip(ports, pattern))
            extendable = extend_coloring(graph, 3, clamp) is not None
            expected = accepts(pattern)
            ok = extendable == expected
            detail = "" if ok else f"extendable={extendable}, expected={expected}"
            checks.append(ContractCheck(name, contract, "".join(map(str, pattern)), ok, detail))
        checks += _survival_checks(name, graph, base)
        # with the base gray, every internal vertex but at most one can take
        # two colors across the gadget's proper colorings
        stuck = [
            v
            for v in internals
            if sum(extend_coloring(graph, 3, {base: GRAY, v: c}) is not None for c in range(3)) < 2
        ]
        ok = len(stuck) <= 1
        detail = "" if ok else f"single-color vertices: {stuck}"
        pattern = f"internals={len(internals)}"
        checks.append(ContractCheck(name, "two-colors-achievable", pattern, ok, detail))

    return ContractReport(tuple(checks))
