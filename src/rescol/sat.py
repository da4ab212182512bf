"""CNF formulas, DIMACS CNF I/O, an exact solver, and restriction resilience.

Variables are positive integers 1..num_vars; a literal is a signed variable.
A formula's literals are range-checked once, where it enters the library:
by the ``CnfFormula`` constructor, or by ``parse_cnf`` as it reads them.
The reductions, ``parse_cnf`` and ``is_satisfiable``'s eliminated core build
their formulas unchecked; ``restrict`` still checks its output.
DIMACS text is read by the DIMACS reader in ``rescol.graphs``, with a bulk
step here that cuts each block's integer tokens into clauses at the zeros.
Formulas are written one line per clause through a format string
built once per clause width.
A formula survives a restriction when it stays satisfiable after the
restricted variables are pinned to their values.  It is r-resilient when it
survives every restriction of exactly r variables.

There is one solver: an incremental DPLL built once per formula, which
answers each restriction as a set of assumed literals and undoes them
afterwards.  Its one trail records every assignment, and each clause is
watched through its first two slots (the MiniSat layout).  Decisions follow
a phase that the caller may pass, False by default; a solve reads its phase
once and keeps nothing for the next solve.  It first tests its phase
assignment, each variable at its phase value with the assumed literals
written over it: when that satisfies every clause it is returned without a
search, which is exact because DPLL guided by that phase meets no conflict
and ends at that same assignment.  ``is_satisfiable`` first resolves away
the top variables that occur in at most one clause of each polarity
(Davis–Putnam elimination, which never grows the formula; the switch
variables of ``hardness_chain``'s shrink rounds are such), runs the solver
on the remaining core, and extends its least model to phi's least model.
Resilience scans keep, for every model found so far, its implicant: the
first literal of each clause that the model makes true, with every other
variable left free, both of its values allowed.  They run the lex-prefix
search of ``rescol.resilience`` over variable prefixes, so a restriction
that agrees with a kept implicant is survived without a solve, and without
being visited.  Such hits can never flip a verdict, because every
assignment that agrees with a kept implicant is a model, so the restricted
formula has one.  Each scan solve takes a phase drawn from its restriction,
so kept implicants differ and cover more.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Iterable, Reversible

from .graphs import InputError, ParseError, _read_dimacs
from .resilience import (
    SATURATED,
    _bits,
    _CertificateStore,
    _first_uncovered,
    _max_resilience,
)

Clause = tuple[int, ...]
Assignment = dict[int, bool]


@dataclass(frozen=True)
class CnfFormula:
    """An immutable CNF formula: clause tuples over variables 1..num_vars.

    A formula is checked once, where it enters the library: the constructor
    and ``make`` reject a negative ``num_vars``, literal 0 and literals out
    of range.  Formulas the library derives from checked ones (the
    reductions, ``is_satisfiable``'s eliminated core) and the formulas
    ``parse_cnf`` has range-checked itself are built by ``_built``, which
    skips that per-literal loop.
    """

    num_vars: int
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        if self.num_vars < 0:
            raise ValueError("num_vars must be non-negative")
        for clause in self.clauses:
            for lit in clause:
                if lit == 0 or abs(lit) > self.num_vars:
                    raise ValueError(f"literal {lit} out of range for num_vars={self.num_vars}")

    @classmethod
    def _built(cls, num_vars: int, clauses: tuple[Clause, ...]) -> CnfFormula:
        """A formula whose literals are already known to lie in 1..num_vars
        up to sign, made without the constructor's check."""
        phi = object.__new__(cls)
        object.__setattr__(phi, "num_vars", num_vars)
        object.__setattr__(phi, "clauses", clauses)
        return phi

    @classmethod
    def make(cls, num_vars: int, clauses: Iterable[Iterable[int]]) -> CnfFormula:
        """Public constructor; rejects empty clauses (they only arise by restriction)."""
        tupled = tuple(tuple(cl) for cl in clauses)
        if any(len(cl) == 0 for cl in tupled):
            raise ValueError("empty clause not allowed at construction")
        return cls(num_vars, tupled)

    @cached_property
    def width(self) -> int:
        """Length of the longest clause (0 for a formula with no clauses)."""
        return max(map(len, self.clauses), default=0)

    @property
    def has_empty_clause(self) -> bool:
        return not all(self.clauses)

    def variables(self) -> tuple[int, ...]:
        """Variables that occur in at least one clause, ascending."""
        seen = {abs(lit) for cl in self.clauses for lit in cl}
        return tuple(sorted(seen))


@dataclass(frozen=True)
class Restriction:
    """A partial assignment: (variable, value) pairs sorted by variable."""

    fixes: tuple[tuple[int, bool], ...]

    def __post_init__(self) -> None:
        seen = set()
        for var, _ in self.fixes:
            if var < 1:
                raise ValueError(f"variable {var} must be positive")
            if var in seen:
                raise ValueError(f"variable {var} fixed twice")
            seen.add(var)
        if list(self.fixes) != sorted(self.fixes, key=lambda f: f[0]):
            raise ValueError("fixes must be sorted by variable")

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, bool]]) -> Restriction:
        return cls(tuple(sorted(((v, bool(b)) for v, b in pairs), key=lambda f: f[0])))

    def as_dict(self) -> Assignment:
        return dict(self.fixes)

    def __len__(self) -> int:
        return len(self.fixes)


@dataclass(frozen=True)
class SatResilienceVerdict:
    resilient: bool
    witness: Restriction | None
    r: int
    restrictions_checked: int


def parse_cnf(text: str) -> CnfFormula:
    """Read DIMACS CNF: a "p cnf n m" header, then m clauses, each a run of
    literals ended by 0.

    Clauses may share a line or span several lines.  Lines starting with "c"
    are comments, and a line starting with "%" ends the input (the SATLIB
    trailer).  Literal order inside clauses is preserved.

    ``rescol.graphs._read_dimacs`` reads the text.  Its blocks after the
    header are read in bulk here: split into integer tokens, range-checked
    as a whole and cut into clauses at the zeros.  A block holding a
    comment, the "%" trailer, a bad or out-of-range token, an empty clause
    or a clause past the announced count is not taken, and its lines are
    read one at a time.  The open clause is carried from line to line and
    block to block.
    """
    clauses: list[Clause] = []
    body: list[int] = []  # the open clause

    def read_block(lines: list[str], num_vars: int, expected: int) -> bool:
        try:
            lits = (*body, *map(int, " ".join(lines).split()))
        except ValueError:  # a comment, "%", a second header or a bad token
            return False
        zeros = lits.count(0)
        if lits and (max(lits) > num_vars or min(lits) < -num_vars) or len(clauses) + zeros > expected:
            return False
        closed, pos = [], 0
        for _ in range(zeros):
            cut = lits.index(0, pos)
            closed.append(lits[pos:cut])
            pos = cut + 1
        if not all(closed):  # an empty clause
            return False
        clauses.extend(closed)
        body[:] = lits[pos:]
        return True

    def read_line(lineno: int, line: str, fields: list[str], counts: tuple[int, int] | None) -> bool | None:
        if line.startswith("%"):  # the trailer ends the input
            return True
        if counts is None:
            raise ParseError(f"line {lineno}: clause before header {line!r}")
        num_vars, expected = counts
        try:
            lits = [int(tok) for tok in fields]
        except ValueError:
            raise ParseError(f"line {lineno}: malformed clause {line!r}") from None
        for lit in lits:
            if lit:
                if abs(lit) > num_vars:
                    raise ParseError(f"line {lineno}: variable out of range {line!r}")
                body.append(lit)
            elif not body:
                raise ParseError(f"line {lineno}: empty clause {line!r}")
            elif len(clauses) == expected:
                raise ParseError(
                    f"line {lineno}: stray 0 closes clause {expected + 1} "
                    f"of {expected} announced {line!r}"
                )
            else:
                clauses.append(tuple(body))
                body.clear()

    (num_vars, expected), (lineno, line) = _read_dimacs(
        text, "cnf", ("negative counts",) * 2, read_block, read_line
    )
    if body:  # the open clause ends on the last line read
        raise ParseError(f"line {lineno}: missing terminating 0 {line!r}")
    if expected != len(clauses):
        raise ParseError(f"header announced {expected} clauses, found {len(clauses)}")
    return CnfFormula._built(num_vars, tuple(clauses))


def serialize_cnf(phi: CnfFormula) -> str:
    """Write DIMACS CNF, literal order preserved; parse(serialize(phi)) == phi.

    One clause per line, each written through a "%d ... 0" format built
    once per clause width.
    """
    if phi.has_empty_clause:
        raise InputError("cannot serialize a formula containing an empty clause")
    formats = {w: "%d " * w + "0\n" for w in set(map(len, phi.clauses))}
    header = f"p cnf {phi.num_vars} {len(phi.clauses)}\n"
    return header + "".join([formats[len(cl)] % cl for cl in phi.clauses])


class _Solver:
    """Exact DPLL over one formula, reused across calls under assumptions.

    The constructor builds the watch lists and assigns the unit clauses once
    (the level-0 trail).  Each ``solve`` pushes its assumed literals, decides
    the lowest unassigned variable to its phase value (False unless the
    caller's ``phase`` says True), propagates units to fixpoint after each
    decision, and undoes back to the level-0 trail before it returns.
    ``marks`` holds the trail length before each open decision (MiniSat's
    ``trail_lim``).  A conflict pops the last mark, undoes to it and asserts
    the decision's negation as an implied literal of the level below, so the
    first model found is the first one extending the assumptions in the
    order where variable 1 is most significant and each variable's phase
    value comes first; with phase 0 it is the least model (False before
    True).  ``trail[head:]`` holds the literals not yet propagated.  A clause
    of two or more literals is a list watched through its slots 0 and 1.
    Propagation makes one forward pass over a newly falsified literal's
    watch list (MiniSat's, with the other watch as its blocker).  A clause
    whose other watch is true stays, its slots untouched.  Otherwise a
    literal in slot 2 or up that is not false takes the falsified watch's
    place and the clause moves to that literal's list; when there is none,
    the clause stays and is a unit or a conflict.  The clauses that stay
    make a fresh list, and a conflict keeps the unvisited rest.  Watches
    need no repair on undo.

    Each ``solve`` reads its phase once, into a string of binary digits
    whose character v is bit v, and keeps nothing for the next solve.
    Before any literal goes on the trail, it tests its phase assignment:
    each variable at its phase value, the assumed literals written over
    them.  When that assignment satisfies every clause it is the model the
    search would end at, so it is returned without one.
    """

    def __init__(self, phi: CnfFormula):
        n = phi.num_vars
        self.num_vars = n
        # value[lit] is the truth value of literal lit, None while unassigned;
        # watches[lit] holds the clauses whose slot 0 or 1 is lit.
        # Negative literals index from the end of these 2n+1 lists.
        self.value: list[bool | None] = [None] * (2 * n + 1)
        self.watches: list[list[list[int]]] = [[] for _ in range(2 * n + 1)]
        self.trail: list[int] = []
        self.head = 0
        self.clauses = phi.clauses
        watches = self.watches
        units = []
        for cl in phi.clauses:
            if len(cl) > 1:
                clause = list(cl)
                watches[cl[0]].append(clause)
                watches[cl[1]].append(clause)
            elif cl:
                units.append(cl[0])
        self.consistent = (
            not phi.has_empty_clause
            and all(self._assign(lit) for lit in units)
            and self._propagate()
        )
        self.base = len(self.trail)

    def _assign(self, lit: int) -> bool:
        """Make lit true; False when it is already false."""
        value = self.value
        cur = value[lit]
        if cur is not None:
            return cur
        value[lit] = True
        value[-lit] = False
        self.trail.append(lit)
        return True

    def _propagate(self) -> bool:
        """Propagate trail[head:] to fixpoint; False on a conflict."""
        value = self.value
        watches = self.watches
        trail = self.trail
        head = self.head
        while head < len(trail):
            falsified = -trail[head]
            head += 1
            visit = iter(watches[falsified])
            watches[falsified] = kept = []
            for cl in visit:
                other = cl[0]
                if other == falsified:
                    other = cl[1]
                if value[other] is True:
                    kept.append(cl)
                    continue
                k = 2
                for lit in cl[2:]:
                    if value[lit] is not False:
                        cl[0], cl[1], cl[k] = other, lit, falsified
                        watches[lit].append(cl)
                        break
                    k += 1
                else:
                    kept.append(cl)
                    if value[other] is False:
                        kept.extend(visit)
                        self.head = head
                        return False
                    value[other] = True
                    value[-other] = False
                    trail.append(other)
        self.head = head
        return True

    def _undo(self, mark: int) -> None:
        value = self.value
        trail = self.trail
        while len(trail) > mark:
            lit = trail.pop()
            value[lit] = value[-lit] = None
        self.head = mark

    def _phase_model(self, assumptions: tuple[int, ...], bits: str) -> list[bool] | None:
        """The phase assignment when it is a model, else None.

        The phase assignment sets variable v True when ``bits[v]`` is "1",
        then writes the assumed literals over it; it is no assignment when
        the assumptions hold both literals of a variable.  A clause fails
        it when none of its literals holds.
        """
        n = self.num_vars
        # holds[lit] tells whether literal lit is true, indexed as value is
        holds = [False] * (2 * n + 1)
        for var in range(1, n + 1):
            holds[var if bits[var] == "1" else -var] = True
        for lit in assumptions:
            holds[lit] = True
            holds[-lit] = False
        if not all(holds[lit] for lit in assumptions):
            return None
        for cl in self.clauses:
            for lit in cl:
                if holds[lit]:
                    break
            else:
                return None
        return holds[1 : n + 1]

    def solve(self, assumptions: Iterable[int] = (), phase: int = 0) -> list[bool] | None:
        """A model extending the assumed literals, or None.

        Each decision first tries variable v at bit v of ``phase``, so the
        model returned is the first one extending the assumptions when every
        variable tries its phase value first; phase 0 gives the least model.
        The model lists the values of variables 1..num_vars in order.  The
        phase is read once, in time linear in num_vars, into the digit
        string that the phase test and every decision read; the answer
        depends on the assumptions and the phase alone.

        When the phase assignment (``_phase_model``) is a model, it is that
        first model and is returned without a search.  Unit propagation from
        literals that are all true in a model A forces only literals true in
        A, and every decision takes A's value, so the DPLL below would meet
        no conflict and end at A.
        """
        if not self.consistent:
            return None
        assumptions = tuple(assumptions)
        n = self.num_vars
        # bits[v] is bit v of phase, "1" or "0"
        bits = f"{phase:0{n + 1}b}"[::-1]
        model = self._phase_model(assumptions, bits)
        if model is not None:
            return model
        try:
            if not (all(self._assign(lit) for lit in assumptions) and self._propagate()):
                return None
            value = self.value
            marks: list[int] = []
            var = 1
            while True:
                while var <= n and value[var] is not None:
                    var += 1
                if var > n:
                    return value[1 : n + 1]
                marks.append(len(self.trail))
                ok = self._assign(var if bits[var] == "1" else -var) and self._propagate()
                while not ok:
                    if not marks:
                        return None
                    mark = marks.pop()
                    lit = -self.trail[mark]
                    var = abs(lit)
                    self._undo(mark)
                    ok = self._assign(lit) and self._propagate()
        finally:
            self._undo(self.base)


def _eliminate_top(phi: CnfFormula) -> tuple[CnfFormula, list[tuple[int, Clause | None]]]:
    """Davis–Putnam resolution of the top variables that occur in at most
    one clause of each polarity.

    t is the smallest cut such that every variable above t has that
    property; variables n down to t + 1 are eliminated in turn.  A variable
    with one positive and one negative clause replaces them by their
    resolvent, and one that is pure, or occurs only in one clause that
    holds both its literals, drops its clause.  A resolvent never puts a
    literal in more clauses than before, so every variable above t keeps
    the property until its turn.  Returns the core over variables 1..t and
    the eliminated variables in elimination order, each with the clause
    that held its positive literal then (None when there was none, or when
    that clause also held the negative one).  An empty resolvent stays in
    the core as its refutation.  When nothing above t exists, the core is
    phi itself.
    """
    n = phi.num_vars
    clauses: list[Clause | None] = list(phi.clauses)
    # where[lit] is the index of the one clause holding lit, for |lit| > t;
    # negative literals index from the end of this 2n+1 list
    where: list[int | None] = [None] * (2 * n + 1)
    t = 0
    for j, cl in enumerate(clauses):
        for lit in cl:
            held = where[lit]
            if held is None:
                where[lit] = j
            elif held != j and abs(lit) > t:
                t = abs(lit)
    if t == n:
        return phi, []
    eliminated: list[tuple[int, Clause | None]] = []
    for v in range(n, t, -1):
        pos, neg = where[v], where[-v]
        if pos is not None and neg is not None and pos != neg:
            left, right = clauses[pos], clauses[neg]
            # the resolvent takes the positive clause's slot, so only the
            # negative clause's literals move; entries of variables at or
            # below t, and of v itself, are never read again
            resolvent = [lit for lit in left if lit != v]
            resolvent += [lit for lit in right if lit != -v]
            clauses[pos] = tuple(resolvent)
            clauses[neg] = None
            for lit in right:
                where[lit] = pos
            eliminated.append((v, left))
        else:
            # pure, absent, or both literals in one clause, which v satisfies
            # either way: drop what holds v
            eliminated.append((v, clauses[pos] if pos is not None and neg is None else None))
            for held in {pos, neg} - {None}:
                for lit in clauses[held]:
                    where[lit] = None
                clauses[held] = None
    core = tuple(cl for cl in clauses if cl is not None)
    return CnfFormula._built(t, core), eliminated


def is_satisfiable(phi: CnfFormula) -> Assignment | None:
    """Return the least model, variable 1 most significant and False before
    True, or None when the formula is unsatisfiable.

    The top variables that occur in at most one clause of each polarity
    are first resolved away (``_eliminate_top``).  The core's models are
    exactly the projections of phi's, and every eliminated variable ranks
    below every kept one, so the solver's least model of the core, with
    each eliminated variable then set in reverse elimination order to
    False unless the clause that held its positive literal is not yet
    satisfied, is phi's least model.
    """
    core, eliminated = _eliminate_top(phi)
    model = _Solver(core).solve()
    if model is None:
        return None
    # holds[lit] tells whether literal lit is true; v is still unassigned
    # while its positive clause is read, which never holds -v
    holds = [False] * (2 * phi.num_vars + 1)
    for v, value in enumerate(model, start=1):
        holds[v if value else -v] = True
    for v, positive in reversed(eliminated):
        value = positive is not None and not any(holds[lit] for lit in positive)
        holds[v if value else -v] = True
    return {v: holds[v] for v in range(1, phi.num_vars + 1)}


def _is_tautology(clause: Clause) -> bool:
    lits = set(clause)
    return any(-lit in lits for lit in lits)


def restrict(phi: CnfFormula, rho: Restriction) -> CnfFormula:
    """Pin the restricted variables: satisfied clauses (and tautologies) are
    dropped, falsified literals are removed, and a clause that loses all its
    literals stays as the empty clause marking unsatisfiability.  num_vars is
    unchanged."""
    values = rho.as_dict()
    for var in values:
        if var > phi.num_vars:
            raise InputError(f"restricted variable {var} out of range for num_vars={phi.num_vars}")
    out: list[Clause] = []
    for cl in phi.clauses:
        if _is_tautology(cl):
            continue
        kept = []
        satisfied = False
        for lit in cl:
            val = values.get(abs(lit))
            if val is None:
                kept.append(lit)
            elif (lit > 0) == val:
                satisfied = True
                break
        if not satisfied:
            out.append(tuple(kept))
    return CnfFormula(phi.num_vars, tuple(out))


def _implicant_mask(phi: CnfFormula, model: Reversible[bool]) -> int:
    """The literals of a model's implicant, as a mask with bit 2*(variable-1) + value.

    Each clause is supported by its first literal that the model makes
    true.  A supporting variable keeps its model literal; a variable that
    supports no clause is free, and both of its literals are in the mask.
    Every assignment that agrees with the model on the supporting variables
    still makes each clause's support true, so each is a model of phi.
    """
    n = phi.num_vars
    # holds[lit] tells whether literal lit is true in the model, and
    # supports[lit] whether it supports a clause; negative literals index
    # from the end of these 2n+1 lists
    holds = [False, *model, *[not val for val in reversed(model)]]
    supports = [False] * (2 * n + 1)
    for cl in phi.clauses:
        for lit in cl:
            if holds[lit]:
                supports[lit] = True
                break
    # variable v's two bits read "10" when its true literal supports a
    # clause, "01" when its false one does and "11" when it is free, the
    # last variable's pair first
    digits = ["10" if supports[v] else "01" if supports[-v] else "11" for v in range(n, 0, -1)]
    return int("".join(digits) or "0", 2)


def _fixes(mask: int) -> list[tuple[int, bool]]:
    """The (variable, value) pairs of a literal mask, by ascending variable."""
    return [((bit >> 1) + 1, bool(bit & 1)) for bit in _bits(mask)]


def _model_certifier(phi: CnfFormula) -> Callable[[int], int | None]:
    """The solve of a formula scan: a literal mask maps to the literal mask of
    the implicant (``_implicant_mask``) of a model that makes those literals
    true, or to None when there is none.  The implicant holds the mask, since
    each restricted variable is either free in it or held at its model value.

    ``is_satisfiable`` answers the empty mask on its eliminated core; any
    other mask may fix eliminated variables, so one solver over all of phi,
    built at the first such mask (an r = 0 scan builds none), answers it.
    Least models all look alike, so each would cover few restrictions that
    earlier ones miss.  Those solves therefore take a pseudo-random phase
    seeded with the mask itself: any model extending the restriction gives a
    valid certificate, and None does not depend on the phase, so verdicts,
    witnesses and counters cannot move.  A solve depends only on its
    assumptions and its phase, and the phase is a pure function of the
    mask, so the certifier carries no call history (a scan and a reference
    scan sharing it solve alike); seeding ``random`` with an int does not
    depend on ``PYTHONHASHSEED``.
    """
    solver = cache(lambda: _Solver(phi))
    width = phi.num_vars + 1

    def solve(mask: int) -> int | None:
        if not mask:
            least = is_satisfiable(phi)
            return None if least is None else _implicant_mask(phi, least.values())
        phase = random.Random(mask).getrandbits(width)
        model = solver().solve([var if val else -var for var, val in _fixes(mask)], phase)
        return None if model is None else _implicant_mask(phi, model)

    return solve


def is_r_resilient(phi: CnfFormula, r: int) -> SatResilienceVerdict:
    """Check every restriction of exactly min(r, num_vars) variables.

    Restrictions are enumerated in canonical order: variable subsets
    lexicographically, then value vectors in ascending binary order (False
    before True, first variable most significant).  The witness, if any, is
    the first failing restriction in that order; restrictions_checked counts
    restrictions up to and including the witness (all of them when
    resilient).

    ``is_satisfiable`` answers r = 0; above it one incremental solver
    serves the whole scan, each restriction pushed as assumptions.  Every
    model found so far is kept as its implicant (``_implicant_mask``),
    which leaves free each variable whose literals are no clause's first
    true one, and the search over variable prefixes solves only the
    restrictions that no kept implicant agrees with; restrictions_checked
    is computed from the witness's rank.  Such hits can never flip a
    verdict: every assignment that agrees with a kept implicant is a model
    of the restricted formula.
    """
    if r < 0:
        raise InputError("r must be >= 0")
    size = min(r, phi.num_vars)
    solve = _model_certifier(phi)
    failure, checked = _first_uncovered(_CertificateStore(phi.num_vars, 2), size, solve)
    witness = None if failure is None else Restriction(tuple(_fixes(failure)))
    return SatResilienceVerdict(failure is None, witness, size, checked)


def max_sat_resilience(phi: CnfFormula) -> int | str:
    """Largest r for which phi is r-resilient.

    Returns SATURATED, without a search, exactly when every clause is a
    tautology, that is when phi survives fixing all num_vars variables; raises
    InputError for unsatisfiable input, which is not even 0-resilient.  One
    certifier and one store of every implicant found serve the sweep from r = 0,
    which stops at the first failing r or at w - 1, whichever comes first:
    fixing the w distinct variables of the narrowest non-tautological clause
    against it falsifies it, so phi is not w-resilient.
    """
    widths = [len(set(cl)) for cl in phi.clauses if not _is_tautology(cl)]
    if not widths:
        return SATURATED
    return _max_resilience(
        _CertificateStore(phi.num_vars, 2),
        _model_certifier(phi),
        "formula is not even 0-resilient",
        # an empty clause gives w = 0: phi is unsatisfiable, and the r = 0 scan raises
        max(min(widths) - 1, 0),
    )
