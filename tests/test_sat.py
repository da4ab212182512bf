"""CNF model, DIMACS round-trips, satisfiability, restriction, resilience."""
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from conftest import (
    assert_checked,
    brute_satisfiable,
    canonical_masks,
    carried_scans_match_reference,
    count_calls,
    counted,
    oracle_sat_first_failure,
    random_cnf,
    reference_first_uncovered,
    sat_table,
)
from rescol import graphs, sat
from rescol.graphs import ParseError
from rescol.reductions import blow_up, hardness_chain
from rescol.sat import (
    SATURATED,
    CnfFormula,
    Restriction,
    is_r_resilient,
    is_satisfiable,
    max_sat_resilience,
    parse_cnf,
    restrict,
    serialize_cnf,
)


def test_make_and_invariants():
    phi = CnfFormula.make(3, [(1, -2), (3,)])
    assert phi.num_vars == 3
    assert phi.clauses == ((1, -2), (3,))
    assert phi.width == 2
    assert phi.variables() == (1, 2, 3)
    assert CnfFormula.make(2, []).width == 0
    assert CnfFormula.make(5, [(2,)]).variables() == (2,)


@pytest.mark.parametrize(
    "num_vars,clauses",
    [
        (1, [(2,)]),
        (1, [(-2,)]),
        (2, [(1, 0)]),
        (-1, []),
        (2, [()]),
    ],
)
def test_make_rejects_bad_input(num_vars, clauses):
    with pytest.raises(ValueError):
        CnfFormula.make(num_vars, clauses)


def test_restriction_validation():
    rho = Restriction.from_pairs([(3, True), (1, False)])
    assert rho.fixes == ((1, False), (3, True))
    assert rho.as_dict() == {1: False, 3: True}
    assert len(rho) == 2
    with pytest.raises(ValueError):
        Restriction(((0, True),))
    with pytest.raises(ValueError):
        Restriction(((1, True), (1, False)))
    with pytest.raises(ValueError):
        Restriction(((2, True), (1, False)))


def test_parse_simple():
    phi = parse_cnf("p cnf 2 1\n1 -2 0\n")
    assert phi == CnfFormula(2, ((1, -2),))


def test_parse_comments_and_blank_lines():
    text = "c a comment\n\np cnf 3 2\nc more\n1 2 0\n-3 0\n"
    phi = parse_cnf(text)
    assert phi == CnfFormula(3, ((1, 2), (-3,)))


def test_parse_preserves_literal_order():
    phi = parse_cnf("p cnf 3 1\n3 -1 2 0\n")
    assert phi.clauses == ((3, -1, 2),)


def test_parse_several_clauses_on_one_line():
    phi = parse_cnf("p cnf 3 2\n1 2 0 -3 0\n")
    assert phi == CnfFormula(3, ((1, 2), (-3,)))


def test_parse_clause_split_over_lines():
    phi = parse_cnf("p cnf 3 2\n1 -2\n3 0\nc between\n-1\n0\n")
    assert phi == CnfFormula(3, ((1, -2, 3), (-1,)))


def test_parse_satlib_trailer():
    phi = parse_cnf("c uf-style\np cnf 3 2\n 1 -2 3 0\n-1 2 0\n%\n0\n\n")
    assert phi == CnfFormula(3, ((1, -2, 3), (-1, 2)))


def test_parse_stream_round_trips_through_serialize():
    phi = parse_cnf("p cnf 4 3\n1 -2 0 3\n4 0 -1\n-4 0\n%\n0\n")
    assert phi == CnfFormula(4, ((1, -2), (3, 4), (-1, -4)))
    assert parse_cnf(serialize_cnf(phi)) == phi


# (text, the case's name in the test id, the full error message)
_PARSE_ERRORS = [
    ("p cnf 1 1\n2 0\n", "out of range", "line 2: variable out of range '2 0'"),
    ("p cnf 1 1\n-2 0\n", "out of range", "line 2: variable out of range '-2 0'"),
    ("p cnf 2 1\n1 2\n", "missing terminating 0", "line 2: missing terminating 0 '1 2'"),
    ("1 0\n", "before header", "line 1: clause before header '1 0'"),
    ("p cnf 2 1\np cnf 2 1\n1 0\n", "duplicate header", "line 2: duplicate header 'p cnf 2 1'"),
    ("p edge 2 1\n1 0\n", "malformed header", "line 1: malformed header 'p edge 2 1'"),
    ("p cnf x 1\n1 0\n", "malformed header", "line 1: malformed header 'p cnf x 1'"),
    ("p cnf 2 2\n1 0\n", "announced 2 clauses", "header announced 2 clauses, found 1"),
    ("p cnf 2 1\n1 z 0\n", "malformed clause", "line 2: malformed clause '1 z 0'"),
    (
        "p cnf 2 1\n1 0 2 0\n",
        "stray 0",
        "line 2: stray 0 closes clause 2 of 1 announced '1 0 2 0'",
    ),
    ("p cnf 2 1\n0\n", "empty clause", "line 2: empty clause '0'"),
    (
        "p cnf 2 2\n1 0\n2\n%\n0\n",
        "line 3: missing terminating 0",
        "line 3: missing terminating 0 '2'",
    ),
    (
        "p cnf 2 2\n1 0\n\n2 3 0\n",
        "line 4: variable out of range",
        "line 4: variable out of range '2 3 0'",
    ),
    ("", "missing 'p cnf' header", "missing 'p cnf' header"),
    ("p cnf -1 0\n", "negative counts", "line 1: negative counts 'p cnf -1 0'"),
]


@pytest.mark.parametrize(
    "text,message",
    [pytest.param(text, message, id=f"{text}-{name}") for text, name, message in _PARSE_ERRORS],
)
def test_parse_errors(text, message):
    with pytest.raises(ParseError) as caught:
        parse_cnf(text)
    assert str(caught.value) == message


_DEFAULT_BLOCK_LINES = graphs._BLOCK_LINES
_LINE_BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85")
# int() reads the first four as -0, 0, 1 and 10, and U+0661 (Arabic-Indic
# one) as 1; the rest are no integers at all
_ODD_TOKENS = ("-0", "00", "+1", "1_0", "\u0661", "x", "c", "p", "%")


def _random_dimacs(rng: random.Random) -> str:
    """A DIMACS-like text: mostly well formed, with seeded damage."""
    n = rng.randint(0, 12)
    tokens = []
    for _ in range(rng.randint(0, 6)):
        width = rng.randint(1, 4)
        tokens += [str(rng.choice((1, -1)) * rng.randint(1, max(n, 1))) for _ in range(width)]
        tokens.append("0")
    announced = tokens.count("0")
    roll = rng.random()
    if roll < 0.1:
        announced += rng.choice((-1, 1))
    elif roll < 0.15 and tokens:
        del tokens[rng.choice([i for i, tok in enumerate(tokens) if tok == "0"])]
    elif roll < 0.2:
        tokens.insert(rng.randint(0, len(tokens)), "0")
    elif roll < 0.25 and tokens:
        tokens[rng.randrange(len(tokens))] = str(rng.choice((1, -1)) * (n + 1))
    if rng.random() < 0.3 and tokens:
        tokens[rng.randrange(len(tokens))] = rng.choice(_ODD_TOKENS)

    def filler() -> str:
        return rng.choice(("", " ", "\t", "c", "c a comment", " c indented", "cnf 1 0"))

    lines = [filler() for _ in range(rng.choice((0, 0, 1, 2)))]
    counts = [str(n), str(announced)]
    if rng.random() < 0.05:
        counts[rng.randrange(2)] = rng.choice(_ODD_TOKENS)
    if rng.random() < 0.97:
        kind = rng.choice(("cnf",) * 30 + ("edge",))
        lines.append(rng.choice(("", " ")) + f"p {kind} " + " ".join(counts) + rng.choice(("", " ", "\t")))
    line: list[str] = []
    for tok in tokens:
        line.append(tok)
        if rng.random() < 0.4:
            lines.append(rng.choice(("", " ")) + " ".join(line))
            line = []
            if rng.random() < 0.1:
                lines.append(filler())
    if line:
        lines.append(" ".join(line))
    if rng.random() < 0.05:
        lines.insert(rng.randint(0, len(lines)), f"p cnf {n} {announced}")
    if rng.random() < 0.15:
        lines.append(rng.choice(("%", "% trailer")))
        lines.append(rng.choice(("0", "", "x y", "1 2")))
    text = "".join(line + rng.choice(_LINE_BREAKS) for line in lines)
    return text if rng.random() < 0.8 else text.rstrip("\r\n")


def _reference_header(lineno: int, line: str, fields: list[str]) -> tuple[int, int]:
    """(num_vars, clauses) of a "p" line's fields, or a ParseError."""
    if len(fields) != 4 or fields[1] != "cnf":
        raise ParseError(f"line {lineno}: malformed header {line!r}")
    try:
        num_vars, expected = int(fields[2]), int(fields[3])
    except ValueError:
        raise ParseError(f"line {lineno}: malformed header {line!r}") from None
    if num_vars < 0 or expected < 0:
        raise ParseError(f"line {lineno}: negative counts {line!r}")
    return num_vars, expected


def _reference_parse(text: str) -> CnfFormula:
    """The line walker parse_cnf replaced: one line at a time, every error
    naming the offending line."""
    num_vars = None
    expected = None
    clauses: list[tuple[int, ...]] = []
    body: list[int] = []
    last = (0, "")  # the last clause line, named when its clause stays open
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):
            break
        fields = line.split()
        if fields[0] == "p":
            if num_vars is not None:
                raise ParseError(f"line {lineno}: duplicate header {line!r}")
            num_vars, expected = _reference_header(lineno, line, fields)
            continue
        if num_vars is None:
            raise ParseError(f"line {lineno}: clause before header {line!r}")
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
                body = []
        last = (lineno, line)
    if body:
        raise ParseError(f"line {last[0]}: missing terminating 0 {last[1]!r}")
    if num_vars is None:
        raise ParseError("missing 'p cnf' header")
    if expected != len(clauses):
        raise ParseError(f"header announced {expected} clauses, found {len(clauses)}")
    return CnfFormula(num_vars, tuple(clauses))


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


def _walks_a_block(text: str) -> bool:
    """Whether parse_cnf walks some block of a text it reads: a token after
    the header that is no integer (a comment, the "%" trailer, what follows
    the trailer)."""
    lines = text.splitlines()
    header = next(i for i, raw in enumerate(lines) if raw.strip()[:1] not in ("", "c"))
    for tok in " ".join(lines[header + 1 :]).split():
        try:
            int(tok)
        except ValueError:
            return True
    return False


_ERROR_KINDS = {
    "variable out of range", "missing terminating 0", "clause before header",
    "duplicate header", "malformed header", "negative counts", "malformed clause",
    "stray 0", "empty clause", "header announced", "missing 'p cnf' header",
}


def test_parse_matches_line_walker(monkeypatch):
    """parse_cnf and the line walker agree on every text, formula or error.

    Small blocks make clauses span block boundaries on every few lines.
    """
    rng = random.Random(24)
    tally = {"read whole in bulk": 0, "some block walked": 0}
    seen = set()
    for _ in range(20_000):
        text = _random_dimacs(rng)
        monkeypatch.setattr(graphs, "_BLOCK_LINES", rng.choice((1, 2, 3, 1024, _DEFAULT_BLOCK_LINES)))
        expected = _outcome(_reference_parse, text)
        assert _outcome(parse_cnf, text) == expected, repr(text)
        if isinstance(expected, CnfFormula):
            tally["some block walked" if _walks_a_block(text) else "read whole in bulk"] += 1
        else:
            seen |= {kind for kind in _ERROR_KINDS if kind in expected}
    assert seen == _ERROR_KINDS
    assert min(tally.values()) > 2_000, tally


def test_open_clause_is_named_by_the_last_line_read():
    """A missing terminating 0 names the last line read that is neither
    blank nor a comment, whether its block was taken in bulk or walked,
    and however many blank, comment or trailer lines follow it."""
    body = "p cnf 2 300\n" + "1 0\n" * 299 + "  1 2 \n"
    for tail in ("", "\n" * 300, " \n" * 300 + "c end\n", "\n" * 600 + "%\n3 0\n"):
        with pytest.raises(ParseError) as caught:
            parse_cnf(body + tail)
        assert str(caught.value) == "line 301: missing terminating 0 '1 2'"


def _long_dimacs(rng: random.Random) -> str:
    """A DIMACS text longer than one default block, with comments, blank
    lines, a "%" trailer or one piece of damage placed anywhere in its body."""
    n = rng.randint(1, 30)
    lines = []
    for _ in range(rng.randint(_DEFAULT_BLOCK_LINES + 1, 4 * _DEFAULT_BLOCK_LINES)):
        tokens = [str(rng.choice((1, -1)) * rng.randint(1, n)) for _ in range(rng.randint(1, 4))] + ["0"]
        roll = rng.random()
        if roll < 0.1:  # the clause spans two lines
            cut = rng.randint(1, len(tokens) - 1)
            lines += [" ".join(tokens[:cut]), " ".join(tokens[cut:])]
        elif roll < 0.2 and lines:  # the clause shares a line
            lines[-1] += " " + " ".join(tokens)
        else:
            lines.append(" ".join(tokens))

    def closed(part: list[str]) -> int:
        """The clauses that the zeros of part of the body close."""
        return sum(line.split().count("0") for line in part if not line.lstrip().startswith("c"))

    def anywhere() -> int:
        return rng.randint(0, len(lines))

    announced = closed(lines)
    for _ in range(rng.randint(0, 4)):
        lines.insert(anywhere(), rng.choice(("", " ", "c a comment", "  c indented", "cnf 1 0")))
    kind = rng.randrange(9)  # kinds 0 and 8 add nothing
    if kind == 1:  # the trailer, mostly with the count of the clauses before it
        at = anywhere()
        lines[at:] = ["%", *rng.choice(([], ["0"], ["x y", "1 2"]))] + lines[at:]
        if rng.random() < 0.7:
            announced = closed(lines[:at])
    elif kind == 2:
        at = rng.randrange(len(lines))
        lines[at] = f"{lines[at]} {rng.choice(_ODD_TOKENS)} 0"
    elif kind == 3:
        at = rng.randrange(len(lines))
        lines[at] = f"{rng.choice((1, -1)) * (n + 1)} {lines[at]}"
    elif kind == 4:  # an empty clause, or a 0 that closes a clause early
        lines.insert(anywhere(), "0")
    elif kind == 5:  # a stray 0, or a clause too few
        announced += rng.choice((-1, 1))
    elif kind == 6:  # two clauses merged, or the last one left open
        at = rng.choice([i for i, line in enumerate(lines) if closed([line])])
        tokens = lines[at].split()
        del tokens[len(tokens) - 1 - tokens[::-1].index("0")]
        lines[at] = " ".join(tokens)
    elif kind == 7:
        lines.insert(anywhere(), f"p cnf {n} {announced}")
    head = [rng.choice(("c long", "", "c")) for _ in range(rng.randint(0, 2))]
    breaks = rng.choice((("\n",), _LINE_BREAKS))
    return "".join(line + rng.choice(breaks) for line in [*head, f"p cnf {n} {announced}", *lines])


def test_parse_long_texts_match_line_walker():
    """Texts of several default blocks agree with the line walker, with the
    comments, trailer or damage landing mid-body, in a block the bulk step
    rejects between blocks it takes."""
    assert graphs._BLOCK_LINES == _DEFAULT_BLOCK_LINES
    rng = random.Random(25)
    formulas, seen = 0, set()
    for _ in range(200):
        text = _long_dimacs(rng)
        expected = _outcome(_reference_parse, text)
        assert _outcome(parse_cnf, text) == expected, repr(text)
        if isinstance(expected, CnfFormula):
            formulas += 1
        else:
            seen |= {kind for kind in _ERROR_KINDS if kind in expected}
    assert formulas > 30
    # every error a clause line can raise; the rest come from the header
    assert seen == _ERROR_KINDS - {
        "clause before header", "malformed header", "negative counts", "missing 'p cnf' header",
    }, seen


def test_serialize_exact():
    phi = CnfFormula.make(2, [(1, -2)])
    assert serialize_cnf(phi) == "p cnf 2 1\n1 -2 0\n"


def test_serialize_rejects_empty_clause():
    broken = restrict(CnfFormula.make(1, [(1,)]), Restriction(((1, False),)))
    assert broken.has_empty_clause
    with pytest.raises(ValueError):
        serialize_cnf(broken)


def test_round_trip_random():
    rng = random.Random(20)
    for _ in range(100):
        phi = random_cnf(rng)
        assert parse_cnf(serialize_cnf(phi)) == phi


def test_round_trip_blow_up_output():
    phi = CnfFormula.make(3, [(1, 2, 3), (-1, -2, -3)])
    psi = blow_up(phi, 2)
    assert parse_cnf(serialize_cnf(psi)) == psi


def _reference_serialize(phi: CnfFormula) -> str:
    """The writer serialize_cnf replaced: one join per clause."""
    lines = [f"p cnf {phi.num_vars} {len(phi.clauses)}"]
    lines.extend(" ".join(map(str, cl)) + " 0" for cl in phi.clauses)
    return "\n".join(lines) + "\n"


def test_serialize_matches_reference_writer():
    rng = random.Random(25)
    contradiction = CnfFormula.make(3, itertools.product((1, -1), (2, -2), (3, -3)))
    formulas = [
        CnfFormula(0, ()),
        CnfFormula(7, ()),
        CnfFormula.make(3, [(1,), (-3,), (2,)]),
        CnfFormula.make(5, [(1,), (-2, 3), (5, -4, 1, 2, -3), (4,), (-1, -5)]),
        blow_up(contradiction, 2),
        hardness_chain(2, contradiction),
    ]
    formulas += [random_cnf(rng, max_vars=40, max_clauses=12, max_width=7) for _ in range(300)]
    for phi in formulas:
        assert serialize_cnf(phi) == _reference_serialize(phi)


def _chain_text() -> tuple[CnfFormula, str]:
    """hardness_chain(3) of the 3-variable contradiction and its DIMACS text."""
    contradiction = CnfFormula.make(3, itertools.product((1, -1), (2, -2), (3, -3)))
    psi = hardness_chain(3, contradiction)
    assert len(psi.clauses) == 32_768
    return psi, serialize_cnf(psi)


def test_parse_memory_within_line_walker():
    """The reader tokenises a block of lines at a time, so its peak stays
    near the line walker's, which holds every line of the text at once."""
    psi, text = _chain_text()
    peaks = {}
    for parse in (parse_cnf, _reference_parse):
        tracemalloc.start()
        try:
            assert parse(text) == psi
            peaks[parse.__name__] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["parse_cnf"] <= 1.2 * peaks["_reference_parse"], peaks


def test_parse_comment_after_last_clause():
    """A comment after the last clause, or one mid-body and the "%" trailer,
    leave the formula of the plain text."""
    psi, text = _chain_text()
    assert parse_cnf(text + "c done\n") == psi
    half = text.index("\n", len(text) // 2) + 1
    assert parse_cnf("c start\n" + text[:half] + "c mid\n" + text[half:] + "%\n0\n") == psi


def test_is_satisfiable_examples():
    assert is_satisfiable(CnfFormula.make(1, [(1,), (-1,)])) is None
    got = is_satisfiable(CnfFormula.make(2, [(1, 2)]))
    assert got is not None and (got[1] or got[2])
    psi = blow_up(CnfFormula.make(3, [(1, 2, 3), (-1, -2, -3)]), 2)
    assert is_satisfiable(psi) is not None


def test_satisfying_assignment_is_total_and_satisfies():
    rng = random.Random(21)
    for _ in range(200):
        phi = random_cnf(rng)
        got = is_satisfiable(phi)
        if got is None:
            assert not brute_satisfiable(phi)
            continue
        assert set(got) == set(range(1, phi.num_vars + 1))
        for cl in phi.clauses:
            assert any(got[abs(lit)] == (lit > 0) for lit in cl)


def test_restrict_examples():
    phi = CnfFormula.make(2, [(1, 2)])
    assert restrict(phi, Restriction(((1, True),))).clauses == ()
    assert restrict(phi, Restriction(((1, False),))).clauses == ((2,),)
    pinned = restrict(CnfFormula.make(1, [(1,)]), Restriction(((1, False),)))
    assert pinned.has_empty_clause
    assert is_satisfiable(pinned) is None


def test_restrict_keeps_num_vars():
    phi = CnfFormula.make(5, [(1, 2)])
    assert restrict(phi, Restriction(((1, True),))).num_vars == 5


def test_restrict_drops_tautologies():
    phi = CnfFormula(2, ((1, -1), (2,)))
    got = restrict(phi, Restriction(((2, False),)))
    assert got.clauses == ((),)
    got = restrict(phi, Restriction(((1, False),)))
    assert got.clauses == ((2,),)


def test_restrict_rejects_out_of_range():
    phi = CnfFormula.make(2, [(1, 2)])
    with pytest.raises(ValueError):
        restrict(phi, Restriction(((3, True),)))


def test_restrict_matches_semantics():
    """restrict(phi, rho) is satisfiable iff phi has a model extending rho."""
    rng = random.Random(22)
    for _ in range(200):
        phi = random_cnf(rng)
        if phi.num_vars == 0:
            continue
        size = rng.randint(1, phi.num_vars)
        subset = rng.sample(range(1, phi.num_vars + 1), size)
        rho = Restriction.from_pairs((v, rng.random() < 0.5) for v in subset)
        fixed = rho.as_dict()
        expected = any(
            all(any((dict(zip(range(1, phi.num_vars + 1), bits)) | fixed)[abs(lit)] == (lit > 0) for lit in cl) for cl in phi.clauses)
            for bits in itertools.product((False, True), repeat=phi.num_vars)
        )
        assert (is_satisfiable(restrict(phi, rho)) is not None) == expected


def test_resilient_blow_up_example():
    phi = blow_up(CnfFormula.make(3, [(1, 2, 3)]), 2)
    assert phi.clauses == ((1, 2, 3, 4, 5, 6),)
    verdict = is_r_resilient(phi, 1)
    assert verdict.resilient and verdict.witness is None
    assert verdict.restrictions_checked == 12


def test_single_positive_clause_witness():
    verdict = is_r_resilient(CnfFormula.make(1, [(1,)]), 1)
    assert not verdict.resilient
    assert verdict.witness == Restriction(((1, False),))
    assert verdict.restrictions_checked == 1


def test_witness_is_first_in_canonical_order():
    phi = CnfFormula.make(2, [(1,), (2,)])
    verdict = is_r_resilient(phi, 1)
    assert verdict.witness == Restriction(((1, False),))
    # (x2) alone fails on variable 2, after both values of variable 1 pass
    verdict = is_r_resilient(CnfFormula.make(2, [(2,)]), 1)
    assert verdict.witness == Restriction(((2, False),))
    assert verdict.restrictions_checked == 3


def test_r_capped_at_num_vars():
    phi = CnfFormula.make(2, [(1, 2)])
    verdict = is_r_resilient(phi, 5)
    assert verdict.r == 2 and not verdict.resilient
    with pytest.raises(ValueError):
        is_r_resilient(phi, -1)


def test_r_zero_is_satisfiability():
    rng = random.Random(23)
    for _ in range(100):
        phi = random_cnf(rng)
        assert is_r_resilient(phi, 0).resilient == brute_satisfiable(phi)


def test_resilience_monotone_in_r():
    rng = random.Random(24)
    for _ in range(60):
        phi = random_cnf(rng, max_vars=5)
        best = None
        for r in range(phi.num_vars + 1):
            ok = is_r_resilient(phi, r).resilient
            if best is None:
                best = ok
            if not best:
                assert not ok
            best = best and ok


def canonical_restrictions(num_vars, size):
    for subset in itertools.combinations(range(1, num_vars + 1), size):
        for values in itertools.product((False, True), repeat=size):
            yield tuple(zip(subset, values))


def test_matches_oracle_on_random_formulas():
    rng = random.Random(25)
    for _ in range(150):
        phi = random_cnf(rng, max_vars=6, max_clauses=4)
        r = rng.randint(0, phi.num_vars)
        verdict = is_r_resilient(phi, r)
        expected = oracle_sat_first_failure(phi, r)
        if expected is None:
            assert verdict.resilient and verdict.witness is None
            assert verdict.restrictions_checked == math.comb(phi.num_vars, r) * 2**r
        else:
            assert not verdict.resilient
            assert verdict.witness.fixes == expected
            position = list(canonical_restrictions(phi.num_vars, r)).index(expected) + 1
            assert verdict.restrictions_checked == position


def test_witness_restriction_breaks_formula():
    rng = random.Random(26)
    for _ in range(100):
        phi = random_cnf(rng, max_vars=5)
        r = rng.randint(0, phi.num_vars)
        verdict = is_r_resilient(phi, r)
        if verdict.witness is not None:
            assert len(verdict.witness) == verdict.r
            assert is_satisfiable(restrict(phi, verdict.witness)) is None


def test_max_sat_resilience_examples():
    assert max_sat_resilience(CnfFormula.make(2, [(1, 2)])) == 1
    assert max_sat_resilience(CnfFormula.make(1, [(1,)])) == 0
    phi = blow_up(CnfFormula.make(3, [(1, 2, 3), (-1, -2, -3)]), 2)
    assert max_sat_resilience(phi) >= 1


def test_max_sat_resilience_matches_oracle():
    """One solver and model cache serve the whole sweep over r."""
    rng = random.Random(28)
    for _ in range(120):
        phi = random_cnf(rng, max_vars=7, max_clauses=5, max_width=5)
        if not brute_satisfiable(phi):
            continue
        survived = [r for r in range(phi.num_vars + 1) if oracle_sat_first_failure(phi, r) is None]
        expected = SATURATED if len(survived) == phi.num_vars + 1 else max(survived)
        assert max_sat_resilience(phi) == expected


def test_model_cache_solver_calls_pinned(monkeypatch):
    """Perf gate: the model cache answers most restrictions of a blow-up scan
    without a solve; a cache regression changes this count.  Each kept
    implicant leaves free every variable that supports no clause, so 4
    solves cover the 144 restrictions (10 with whole models)."""
    calls = count_calls(monkeypatch, sat._Solver, "solve")
    propagations = count_calls(monkeypatch, sat._Solver, "_propagate")
    psi = blow_up(CnfFormula.make(3, [(1, 2, 3), (-1, -2, 3), (1, -2, -3)]), 3)
    verdict = is_r_resilient(psi, 2)
    assert verdict.resilient and verdict.restrictions_checked == math.comb(9, 2) * 4
    assert calls[0] == 4
    assert calls[0] < verdict.restrictions_checked
    # every solve's phase assignment is a model: only the constructor propagates
    assert propagations[0] == 1


def test_max_sat_resilience_solver_calls_pinned(monkeypatch):
    """Perf gate: every model found, from the r = 0 scan on, serves the
    whole sweep.  The r = 0 scan keeps is_satisfiable's least model."""
    calls = count_calls(monkeypatch, sat._Solver, "solve")
    propagations = count_calls(monkeypatch, sat._Solver, "_propagate")
    psi = blow_up(CnfFormula.make(3, [(1, 2, 3), (-1, -2, 3), (1, -2, -3)]), 3)
    assert max_sat_resilience(psi) == 8
    assert calls[0] == 52
    # the solves whose phase assignment is a model run no propagation
    assert propagations[0] == 36


def test_searched_scan_pinned(monkeypatch):
    """Perf gate: a blow-up scan whose solves fall through to the DPLL
    (8 solves, 65 propagations for 612 restrictions)."""
    calls = count_calls(monkeypatch, sat._Solver, "solve")
    propagations = count_calls(monkeypatch, sat._Solver, "_propagate")
    phi6 = CnfFormula.make(
        6, [(1, -2, 3), (-1, 4, 5), (2, -4, 6), (-3, -5, -6), (1, 5, -6), (-2, 3, 4), (2, -5, 6), (-1, -3, 5)]
    )
    verdict = is_r_resilient(blow_up(phi6, 3), 2)
    assert verdict.resilient and verdict.restrictions_checked == 612
    assert calls[0] == 8
    assert propagations[0] == 65


def with_extra_clauses(rng, phi):
    """phi, and for a third of the formulas also a clause that repeats a
    literal, a tautology, or both."""
    extra = []
    if rng.random() < 1 / 3:
        v, u = rng.randint(1, phi.num_vars), rng.randint(1, phi.num_vars)
        extra = rng.choice([[(v, v, u)], [(v, -v, u)], [(v, v, u), (u, -v, v, -u)]])
    return CnfFormula(phi.num_vars, phi.clauses + tuple(extra))


def test_bounded_max_matches_unbounded_sweep(monkeypatch):
    """The sweep bounded by the narrowest non-tautological clause gives the
    answer of an r-by-r sweep of single-r scans, raising where it raises,
    and never solves more than the sweep that runs until its first failing
    r.  Random clauses repeat literals and hold tautologies; a third of the
    formulas also get a repeated-literal clause, a tautology, or both."""
    calls = count_calls(monkeypatch, sat._Solver, "solve")
    rng = random.Random(47)
    for _ in range(600):
        phi = with_extra_clauses(rng, random_cnf(rng, max_vars=6, max_clauses=5, max_width=4))
        r = next((r for r in range(phi.num_vars + 1) if not is_r_resilient(phi, r).resilient), None)
        if r is None:
            expect = SATURATED
        else:
            expect = "raises" if r == 0 else r - 1
        calls[0] = 0
        try:
            got = max_sat_resilience(phi)
        except ValueError:
            got = "raises"
        assert got == expect
        if isinstance(got, int):
            bounded = calls[0]
            calls[0] = 0
            store = sat._CertificateStore(phi.num_vars, 2)
            solve = sat._model_certifier(phi)
            assert sat._max_resilience(store, solve, "", phi.num_vars) == got
            assert bounded <= calls[0]


def test_scan_matches_plain_reference_scan(monkeypatch):
    """The lex-prefix search solves exactly the restrictions that the plain
    scan solves: same verdict, witness, restrictions_checked and solver calls
    through the public API, and the same results and models when one store
    is carried through r = 0..3 (as the max sweep does), including sizes
    above num_vars."""
    calls = count_calls(monkeypatch, sat._Solver, "solve")
    rng = random.Random(29)
    for _ in range(250):
        phi = random_cnf(rng, max_vars=7, max_clauses=8, max_width=4)
        n = phi.num_vars
        solve = sat._model_certifier(phi)
        store = sat._CertificateStore(n, 2)
        certs = []
        for r in range(4):
            size = min(r, n)
            ref = [0]
            failure, checked = reference_first_uncovered(
                canonical_masks(n, 2, size), counted(solve, ref, 0), []
            )
            calls[0] = 0
            verdict = is_r_resilient(phi, r)
            assert verdict.resilient == (failure is None)
            if failure is not None:
                fixes = tuple((i // 2 + 1, bool(i % 2)) for i in range(2 * n) if failure >> i & 1)
                assert verdict.witness.fixes == fixes
            assert verdict.restrictions_checked == checked
            assert calls[0] == ref[0]

            pair = [0, 0]
            got = sat._first_uncovered(store, r, counted(solve, pair, 0))
            want = reference_first_uncovered(canonical_masks(n, 2, r), counted(solve, pair, 1), certs)
            assert got == want
            assert pair[0] == pair[1]
            universe = (1 << 2 * n) - 1
            assert sorted(store.complements) == sorted(universe & ~cert for cert in certs)


def test_scan_matches_plain_reference_scan_through_r4():
    """One store carried through r = 0..4 on formulas of up to 6 variables:
    each scan returns the plain scan's result, solves the same restrictions
    in the same order and keeps the same models.  The cases reach the
    walk's last level both ways: a pick whose kept model met a sibling, and
    a prefix whose children pass the dead-group test yet all escape
    nothing."""
    rng = random.Random(37)
    siblings = covered = 0
    for _ in range(100):
        phi = random_cnf(rng, max_vars=6, max_clauses=8, max_width=4)
        shapes = carried_scans_match_reference(
            sat._first_uncovered,
            sat._CertificateStore(phi.num_vars, 2),
            sat._model_certifier(phi),
            range(5),
        )
        siblings += shapes[0]
        covered += shapes[1]
    assert siblings and covered


def test_solver_reuse_matches_oracle():
    """One solver answers many assumption lists in a row: watch slots or a
    trail head left wrong by one call would change a later answer."""
    rng = random.Random(30)
    seen = {"unit": 0, "duplicate": 0, "tautology": 0, "repeated": 0, "contradictory": 0}
    for _ in range(100):
        phi = random_cnf(rng, max_vars=10, max_clauses=30, max_width=5)
        seen["unit"] += any(len(cl) == 1 for cl in phi.clauses)
        seen["duplicate"] += any(len(set(cl)) < len(cl) for cl in phi.clauses)
        seen["tautology"] += any(-lit in cl for cl in phi.clauses for lit in cl)
        solver = sat._Solver(phi)
        for _ in range(40):
            n = rng.randint(0, 4)
            assumptions = [rng.choice((1, -1)) * rng.randint(1, phi.num_vars) for _ in range(n)]
            fixes = {abs(lit): lit > 0 for lit in assumptions}
            contradictory = len(fixes) < len(set(assumptions))
            seen["repeated"] += len(set(assumptions)) < len(assumptions)
            seen["contradictory"] += contradictory
            model = solver.solve(assumptions)
            assert model == sat._Solver(phi).solve(assumptions)
            if contradictory:
                assert model is None
                continue
            rho = Restriction.from_pairs(fixes.items())
            assert (model is not None) == brute_satisfiable(restrict(phi, rho))
            if model is not None:
                assert all(model[abs(lit) - 1] == (lit > 0) for lit in assumptions)
                assert all(any(model[abs(lit) - 1] == (lit > 0) for lit in cl) for cl in phi.clauses)
    assert min(seen.values()) > 0, seen


def test_solver_returns_least_model():
    """Each answer is the least model extending the assumptions, variable 1
    most significant and False before True, found here by enumerating every
    assignment in that order."""
    rng = random.Random(31)
    seen = {"unit": 0, "duplicate": 0, "tautology": 0, "repeated": 0, "contradictory": 0, "phase model": 0}
    for _ in range(300):
        phi = random_cnf(rng, max_vars=9, max_clauses=12, max_width=4)
        seen["unit"] += any(len(cl) == 1 for cl in phi.clauses)
        seen["duplicate"] += any(len(set(cl)) < len(cl) for cl in phi.clauses)
        seen["tautology"] += any(-lit in cl for cl in phi.clauses for lit in cl)
        models = [
            list(values)
            for values in itertools.product((False, True), repeat=phi.num_vars)
            if all(any(values[abs(lit) - 1] == (lit > 0) for lit in cl) for cl in phi.clauses)
        ]
        least = models[0] if models else None
        assert is_satisfiable(phi) == (None if least is None else dict(enumerate(least, start=1)))
        solver = sat._Solver(phi)
        for _ in range(6):
            n = rng.randint(0, 4)
            assumptions = [rng.choice((1, -1)) * rng.randint(1, phi.num_vars) for _ in range(n)]
            seen["repeated"] += len(set(assumptions)) < len(assumptions)
            seen["contradictory"] += any(-lit in assumptions for lit in assumptions)
            expected = next(
                (m for m in models if all(m[abs(lit) - 1] == (lit > 0) for lit in assumptions)),
                None,
            )
            # the all-False assignment with the assumptions written over it
            phased = [False] * phi.num_vars
            for lit in assumptions:
                phased[abs(lit) - 1] = lit > 0
            seen["phase model"] += expected == phased
            assert solver.solve(assumptions) == expected
    assert min(seen.values()) > 0, seen


def test_solver_follows_phase():
    """Under a phase mask, each answer is the first model extending the
    assumptions when variable 1 is most significant and each variable v
    tries bit v of the phase first, found here by enumerating every
    assignment in that order."""
    # deciding x1 True conflicts at once, so the flip must assert the literal
    # -1 and the scan go on from variable 2, deciding no variable 0
    solver = sat._Solver(CnfFormula.make(3, [(-1, 2), (-1, -2)]))
    assigned = []
    assign = solver._assign
    solver._assign = lambda lit: assigned.append(lit) or assign(lit)
    assert solver.solve((), 0b0010) == [False, False, False]
    assert assigned == [1, -1, -2, -3]
    assert solver.solve((), 0b1110) == [False, True, True]
    assert solver.solve((3,), 0b0010) == [False, False, True]
    rng = random.Random(32)
    seen = {"unit": 0, "tautology": 0, "contradictory": 0, "unsat": 0, "phase model": 0}
    for _ in range(300):
        phi = random_cnf(rng, max_vars=9, max_clauses=12, max_width=4)
        n = phi.num_vars
        seen["unit"] += any(len(cl) == 1 for cl in phi.clauses)
        seen["tautology"] += any(-lit in cl for cl in phi.clauses for lit in cl)
        solver = sat._Solver(phi)
        for _ in range(6):
            phase = rng.getrandbits(n + 1)
            first = [bool(phase >> var & 1) for var in range(1, n + 1)]
            models = [
                list(values)
                for values in itertools.product(*([f, not f] for f in first))
                if all(any(values[abs(lit) - 1] == (lit > 0) for lit in cl) for cl in phi.clauses)
            ]
            assumptions = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 4))]
            seen["contradictory"] += any(-lit in assumptions for lit in assumptions)
            expected = next(
                (m for m in models if all(m[abs(lit) - 1] == (lit > 0) for lit in assumptions)),
                None,
            )
            seen["unsat"] += expected is None
            # the phase assignment with the assumptions written over it
            phased = first[:]
            for lit in assumptions:
                phased[abs(lit) - 1] = lit > 0
            seen["phase model"] += expected == phased
            assert solver.solve(assumptions, phase) == expected
    assert min(seen.values()) > 0, seen


class _CountingPhase(int):
    """A phase that counts its right shifts."""

    shifts = 0

    def __rshift__(self, other):
        _CountingPhase.shifts += 1
        return int(self) >> other


def test_solve_reads_its_phase_once(monkeypatch):
    """A solve turns its phase into one per-variable view: the number of
    shifts of the phase per solve does not grow with num_vars, for solves
    that end at the phase assignment and for ones that fall through to the
    DPLL, and the answers equal those under the plain int phase."""
    propagations = count_calls(monkeypatch, sat._Solver, "_propagate")
    rng = random.Random(50)
    shifts = {}
    for n in (200, 2_000):
        # (x_v or x_v+1): the all-False phase fails it, the all-True one is a model
        phi = CnfFormula.make(n, [(v, v + 1) for v in range(1, n)])
        solver = sat._Solver(phi)
        queries = [((), 0), ((), (1 << n + 1) - 1), ((-1,), rng.getrandbits(n + 1)), ((2, -3), 0)]
        counts, searched = [], []
        for assumptions, phase in queries:
            _CountingPhase.shifts = 0
            propagations[0] = 0
            model = solver.solve(assumptions, _CountingPhase(phase))
            counts.append(_CountingPhase.shifts)
            searched.append(propagations[0] > 0)
            assert model == solver.solve(assumptions, phase)
        assert searched == [True, False, True, True]
        shifts[n] = counts
    assert shifts[200] == shifts[2_000], shifts


def test_solves_carry_no_history():
    """A solve is a function of its assumptions and its phase: one solver
    answering the same queries forwards and backwards gives, for each, what
    a fresh solver gives.  Queries include contradictory assumptions and
    phases that are not models."""
    rng = random.Random(51)
    seen = {"contradictory": 0, "unsat": 0, "phase model": 0, "searched model": 0}
    for _ in range(1_000):
        phi = random_cnf(rng, max_vars=8, max_clauses=12, max_width=4)
        n = phi.num_vars
        queries = []
        for _ in range(6):
            assumptions = tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 3)))
            queries.append((assumptions, rng.getrandbits(n + 1)))
        fresh = [sat._Solver(phi).solve(assumptions, phase) for assumptions, phase in queries]
        solver = sat._Solver(phi)
        assert [solver.solve(assumptions, phase) for assumptions, phase in queries] == fresh
        assert [solver.solve(assumptions, phase) for assumptions, phase in reversed(queries)] == fresh[::-1]
        for (assumptions, phase), model in zip(queries, fresh):
            seen["contradictory"] += any(-lit in assumptions for lit in assumptions)
            seen["unsat"] += model is None
            # the phase assignment with the assumptions written over it
            phased = [bool(phase >> var & 1) for var in range(1, n + 1)]
            for lit in assumptions:
                phased[abs(lit) - 1] = lit > 0
            seen["phase model"] += model == phased
            seen["searched model"] += model is not None and model != phased
    assert min(seen.values()) > 0, seen


def watch_cnf(rng):
    """A random formula whose clauses now and then repeat their first
    literal in slot 1, or hold a literal and its negation."""
    n = rng.randint(1, 7)
    clauses = []
    for _ in range(rng.randint(1, 24)):
        cl = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 5))]
        roll = rng.random()
        if len(cl) > 1 and roll < 0.15:
            cl[1] = cl[0]
        elif len(cl) > 1 and roll < 0.25:
            cl[-1] = -cl[0]
        clauses.append(tuple(cl))
    return CnfFormula(n, tuple(clauses))


def test_watch_lists_survive_solves():
    """After every solve, each clause of two or more literals sits in the
    watch lists of its slots 0 and 1 (twice in one list when the two are
    equal) and in no other, holding its own literals, and the trail is back
    at the level-0 trail.  A propagation that loses the unvisited rest of a
    watch list on a conflict breaks this."""
    rng = random.Random(52)
    seen = {"unit": 0, "duplicate watch": 0, "tautology": 0, "conflict": 0}
    for _ in range(400):
        phi = watch_cnf(rng)
        n = phi.num_vars
        seen["unit"] += any(len(cl) == 1 for cl in phi.clauses)
        seen["duplicate watch"] += any(len(cl) > 1 and cl[0] == cl[1] for cl in phi.clauses)
        seen["tautology"] += any(-lit in cl for cl in phi.clauses for lit in cl)
        solver = sat._Solver(phi)
        level0 = solver.trail[:]
        propagate = solver._propagate

        def counted_propagate():
            ok = propagate()
            seen["conflict"] += not ok
            return ok

        solver._propagate = counted_propagate
        long_clauses = sorted(sorted(cl) for cl in phi.clauses if len(cl) > 1)
        for _ in range(8):
            assumptions = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(0, 3))]
            solver.solve(assumptions, rng.getrandbits(n + 1))
            assert solver.trail == level0 and solver.base == len(level0)
            # a solver inconsistent at level 0 never moves its head again
            assert solver.head == solver.base or not solver.consistent
            held = {}
            for lit in range(-n, n + 1):
                for cl in solver.watches[lit]:
                    held.setdefault(id(cl), [cl, []])[1].append(lit)
            assert sorted(sorted(cl) for cl, _ in held.values()) == long_clauses
            for cl, lits in held.values():
                assert sorted(lits) == sorted(cl[:2])
    assert min(seen.values()) > 0, seen


def reference_closure(phi, literals):
    """Unit propagation of phi from its unit clauses and the given literals,
    by repeated passes over every clause: the set of literals reached, or
    None when a clause or a pair of literals is contradicted.  A clause is
    unit when only one of its slots is not false: a literal repeated in a
    clause fills two slots, as it can fill both watches, so (x, x) forces
    nothing."""
    true = set(literals) | {cl[0] for cl in phi.clauses if len(cl) == 1}
    while True:
        if any(-lit in true for lit in true):
            return None
        grown = False
        for cl in phi.clauses:
            if any(lit in true for lit in cl):
                continue
            open_slots = [lit for lit in cl if -lit not in true]
            if not open_slots:
                return None
            if len(open_slots) == 1:
                true.add(open_slots[0])
                grown = True
        if not grown:
            return true


def test_propagate_matches_reference_closure():
    """Literals pushed through _assign and propagated: _propagate returns
    False exactly when the reference closure meets a conflict, and otherwise
    leaves exactly the closure's literals assigned, whatever order it
    visits the watch lists in."""
    rng = random.Random(53)
    seen = {"conflict": 0, "fixpoint": 0, "forced": 0}
    for _ in range(600):
        phi = watch_cnf(rng)
        n = phi.num_vars
        solver = sat._Solver(phi)
        if not solver.consistent:
            assert reference_closure(phi, ()) is None
            continue
        assert set(solver.trail) == reference_closure(phi, ())
        for _ in range(6):
            chosen = {rng.randint(1, n): rng.random() < 0.5 for _ in range(rng.randint(1, 3))}
            literals = [var if positive else -var for var, positive in chosen.items()]
            expected = reference_closure(phi, literals)
            ok = all(solver._assign(lit) for lit in literals) and solver._propagate()
            assert ok == (expected is not None)
            if ok:
                assert set(solver.trail) == expected and len(solver.trail) == len(expected)
                assert all(solver.value[lit] is True and solver.value[-lit] is False for lit in expected)
                assert sum(value is not None for value in solver.value[1:]) == 2 * len(expected)
                seen["forced"] += len(expected) > len(set(literals) | set(solver.trail[: solver.base]))
            seen["fixpoint" if ok else "conflict"] += 1
            solver._undo(solver.base)
    assert min(seen.values()) > 0, seen


def test_chain_scan_at_r1_pinned(monkeypatch):
    """Perf gate: the r = 1 scan of the r = 3 chain of a satisfiable
    8-clause formula (28,688 variables) checks 57,376 restrictions with
    12 solves."""
    phi8 = CnfFormula.make(4, [*itertools.islice(itertools.product((1, -1), (2, -2), (3, -3)), 7), (1, 2, 4)])
    psi = hardness_chain(3, phi8)
    calls = count_calls(monkeypatch, sat._Solver, "solve")
    verdict = is_r_resilient(psi, 1)
    assert verdict.resilient and verdict.restrictions_checked == 57_376
    assert calls[0] == 12


def test_chain_lemma_scan_at_r3_pinned(monkeypatch):
    """Perf gate: the r = 3 chain of (x1 or x2 or x3)(not x1 or not x2 or
    x3), 124 variables, survives all 2,480,992 restrictions of 3 variables
    with 44 solves.  A kept implicant leaves most variables free, so the
    prefix walk drops whole prefixes (93 solves with whole models)."""
    psi = hardness_chain(3, CnfFormula.make(3, [(1, 2, 3), (-1, -2, 3)]))
    calls = count_calls(monkeypatch, sat._Solver, "solve")
    verdict = is_r_resilient(psi, 3)
    assert psi.num_vars == 124
    assert verdict.resilient and verdict.restrictions_checked == 2_480_992
    assert calls[0] == 44


def top_heavy_cnf(rng):
    """A random formula over low + top variables where each top variable
    goes into at most one clause of each polarity: an existing clause (so
    clauses mix top variables and resolvents chain), or a new one with up to
    two literals of lower variables.  Now and then a literal is doubled in
    its clause, or put into a second clause, which keeps its variable in the
    core.  Returns the formula and its number of low variables."""
    low = rng.randint(1, 5)
    n = low + rng.randint(0, 5)
    clauses = [
        [rng.choice((1, -1)) * rng.randint(1, low) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(0, 6))
    ]
    for v in range(low + 1, n + 1):
        for lit in (v, -v):
            roll = rng.random()
            if roll < 0.25:
                continue
            if roll < 0.6 and clauses:
                held = rng.choice(clauses)
                held.insert(rng.randint(0, len(held)), lit)
            else:
                held = [rng.choice((1, -1)) * rng.randint(1, v - 1) for _ in range(rng.randint(0, 2))]
                held.insert(rng.randint(0, len(held)), lit)
                clauses.append(held)
            if rng.random() < 0.1:
                held.append(lit)
            if rng.random() < 0.05:
                rng.choice(clauses).append(lit)
    rng.shuffle(clauses)
    return CnfFormula(n, tuple(map(tuple, clauses))), low


def least_model(phi):
    """The least model by a truth table, variable 1 most significant and
    False before True, or None."""
    ok = sat_table(phi)
    if not ok.any():
        return None
    n = phi.num_vars
    idx = np.flatnonzero(ok)
    keys = sum(((idx >> (v - 1)) & 1) << (n - v) for v in range(1, n + 1))
    best = int(idx[np.argmin(keys)])
    return {v: bool(best >> (v - 1) & 1) for v in range(1, n + 1)}


def test_eliminate_top_keeps_the_least_model():
    """Resolving the top variables away changes no answer of
    is_satisfiable: on random formulas built so their top variables occur in
    at most one clause of each polarity it returns the least model found by
    a truth table, and the model of the plain solver on the whole formula."""
    rng = random.Random(34)
    seen = {
        "pure": 0,
        "tautology": 0,
        "duplicate": 0,
        "empty resolvent": 0,
        "chained": 0,
        "kept top": 0,
    }
    eliminating = 0
    for _ in range(5000):
        phi, low = top_heavy_cnf(rng)
        core, eliminated = sat._eliminate_top(phi)
        assert_checked(core)
        t = core.num_vars
        assert [v for v, _ in eliminated] == list(range(phi.num_vars, t, -1))
        eliminating += t < phi.num_vars
        top = [cl for cl in phi.clauses if any(abs(lit) > t for lit in cl)]
        lits = {lit for cl in phi.clauses for lit in cl}
        seen["pure"] += any((v in lits) != (-v in lits) for v in range(t + 1, phi.num_vars + 1))
        seen["tautology"] += any(lit > t and -lit in cl for cl in top for lit in cl)
        seen["duplicate"] += any(abs(lit) > t and cl.count(lit) > 1 for cl in top for lit in cl)
        seen["empty resolvent"] += () in core.clauses
        # a clause holding two top variables: one's resolvent is the other's clause
        seen["chained"] += any(len({abs(lit) for lit in cl} - set(range(t + 1))) > 1 for cl in top)
        # a top variable put into a second clause of one polarity stays in the core
        seen["kept top"] += t > low
        expected = least_model(phi)
        model = sat._Solver(phi).solve()
        assert expected == (None if model is None else dict(enumerate(model, start=1)))
        assert is_satisfiable(phi) == expected
    assert eliminating > 2500, eliminating
    assert min(seen.values()) > 0, seen


def test_eliminate_top_core_sizes():
    """On chain outputs every shrink-round switch variable is resolved away,
    leaving the blow-up over 3 * (input variables after the exact 3-CNF
    rewrite); a formula whose top variable occurs in two clauses of one
    polarity comes back unchanged."""
    contradiction = CnfFormula.make(3, itertools.product((1, -1), (2, -2), (3, -3)))
    core, eliminated = sat._eliminate_top(hardness_chain(2, contradiction))
    assert (core.num_vars, len(core.clauses), len(eliminated)) == (9, 512, 3584)
    assert_checked(core)
    core, eliminated = sat._eliminate_top(hardness_chain(2, CnfFormula.make(1, [(1,), (-1,)])))
    assert (core.num_vars, len(core.clauses), len(eliminated)) == (15, 512, 3584)
    assert_checked(core)
    phi = CnfFormula.make(3, [(1, 3), (2, 3), (-3,)])
    core, eliminated = sat._eliminate_top(phi)
    assert core is phi and eliminated == []


def test_eliminate_top_on_chain_outputs():
    """is_satisfiable agrees with the plain solver on hardness_chain(2, .)
    outputs of satisfiable and unsatisfiable 1-4-variable inputs: a random
    nonempty set of the sign patterns over min(n, 3) of the variables, all
    of them (unsatisfiable) half of the time."""
    rng = random.Random(35)
    seen = {"sat": 0, "unsat": 0}
    for _ in range(30):
        n = rng.randint(1, 4)
        chosen = rng.sample(range(1, n + 1), min(n, 3))
        patterns = [
            [s * v for s, v in zip(signs, chosen)]
            for signs in itertools.product((1, -1), repeat=len(chosen))
        ]
        if rng.random() < 0.5:
            patterns = rng.sample(patterns, rng.randint(1, len(patterns) - 1))
        phi = CnfFormula.make(n, [rng.sample(p, len(p)) for p in patterns])
        out = hardness_chain(2, phi)
        expected = None
        # the plain solver takes 0.3-3 s to refute the chain of an
        # unsatisfiable input of other than 3 variables; the chain lemma
        # (test_hardness_chain_maps_unsat_to_unsat) makes None the answer
        if brute_satisfiable(phi) or n == 3:
            model = sat._Solver(out).solve()
            expected = None if model is None else dict(enumerate(model, start=1))
            assert (expected is not None) == brute_satisfiable(phi)
        assert is_satisfiable(out) == expected
        seen["sat" if expected else "unsat"] += 1
    assert min(seen.values()) > 0, seen


def test_library_formulas_skip_the_literal_check(monkeypatch):
    """A formula is checked once, where it enters the library: building the
    r = 2 chain of the 3-variable contradiction, writing it, reading it
    back and refuting it builds 11 formulas and runs the constructor's
    check on none of them.  The public constructor and the reference
    parser still run it."""
    contradiction = CnfFormula.make(3, itertools.product((1, -1), (2, -2), (3, -3)))
    calls = count_calls(monkeypatch, CnfFormula, "__post_init__")
    psi = hardness_chain(2, contradiction)
    assert is_satisfiable(parse_cnf(serialize_cnf(psi))) is None
    assert calls == [0]
    _reference_parse("p cnf 1 1\n1 0\n")
    assert calls == [1]
    with pytest.raises(ValueError, match="out of range"):
        CnfFormula(1, ((2,),))
    assert calls == [2]


def model_mask(model):
    """A whole model as a literal mask, bit 2*(variable-1) + value: the
    certificate of a scan that keeps each model whole, the reference for the
    scan's implicant masks."""
    # variable v's two bits read "10" when it is true and "01" when false,
    # the last variable's pair first
    return int("".join(["10" if val else "01" for val in reversed(model)]) or "0", 2)


def satisfied_cnf(rng, model, clauses):
    """Random clauses of one to three literals over the model's variables,
    each holding at least one literal the model makes true."""
    n = len(model)
    made = []
    for _ in range(clauses):
        clause = [rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 3))]
        var = rng.randint(1, n)
        clause.insert(rng.randint(0, len(clause)), var if model[var - 1] else -var)
        made.append(tuple(clause))
    return CnfFormula(n, tuple(made))


def test_model_mask_matches_the_shift_sum():
    """_implicant_mask, built from one binary digit string, equals the plain
    sum of shifted bits: the model literal of each variable whose literal is
    the first true one of some clause, and both literals of every other
    variable, from no variable to more than 100,000 bits.  The reference
    model_mask is the same sum over every variable's model literal."""
    rng = random.Random(49)
    for n in (0, 1, 2, 129, 50_001):
        model = [rng.random() < 0.5 for _ in range(n)]
        for values in (model, [False] * n, [True] * n):
            assert model_mask(values) == sum(1 << (2 * var + val) for var, val in enumerate(values))
            for clauses in (0, 1, n // 3) if n else (0,):
                phi = satisfied_cnf(rng, values, clauses)
                supports = {
                    abs(next(lit for lit in cl if (lit > 0) == values[abs(lit) - 1])) for cl in phi.clauses
                }
                expected = sum(
                    1 << (2 * var + val) if var + 1 in supports else 3 << 2 * var
                    for var, val in enumerate(values)
                )
                assert sat._implicant_mask(phi, values) == expected


def test_zero_resilience_runs_is_satisfiable(monkeypatch):
    """The r = 0 scan is one is_satisfiable call, so it refutes the chain
    of (x1)(not x1) on the eliminated core, not on the whole formula."""
    calls = count_calls(monkeypatch, sat, "_eliminate_top")
    psi = hardness_chain(2, CnfFormula.make(1, [(1,), (-1,)]))
    verdict = is_r_resilient(psi, 0)
    assert calls[0] == 1
    assert not verdict.resilient and verdict.restrictions_checked == 1


def test_zero_resilience_builds_one_solver(monkeypatch):
    """An r = 0 scan builds only is_satisfiable's solver, not a second one
    over the whole formula; so does the max sweep of an unsatisfiable
    formula, which stops there."""
    inits = count_calls(monkeypatch, sat._Solver, "__init__")
    psi = hardness_chain(2, CnfFormula.make(3, itertools.product((1, -1), (2, -2), (3, -3))))
    assert not is_r_resilient(psi, 0).resilient
    assert inits == [1]
    inits[0] = 0
    with pytest.raises(ValueError, match="not even 0-resilient"):
        max_sat_resilience(psi)
    assert inits == [1]


def test_max_sat_resilience_errors_on_unsat():
    with pytest.raises(ValueError, match="not even 0-resilient"):
        max_sat_resilience(CnfFormula.make(1, [(1,), (-1,)]))


def test_max_sat_resilience_saturated(monkeypatch):
    assert max_sat_resilience(CnfFormula.make(1, [(1, -1)])) == SATURATED
    assert max_sat_resilience(CnfFormula.make(2, [])) == SATURATED
    # answered without a search: a sweep to r = num_vars would cost 2^n solves
    calls = count_calls(monkeypatch, sat._Solver, "solve")
    assert max_sat_resilience(CnfFormula(12, ())) == SATURATED
    assert max_sat_resilience(CnfFormula.make(12, [(1, -1)])) == SATURATED
    assert calls[0] == 0


def test_clause_bound():
    """A non-tautological clause with c distinct variables caps resilience below c."""
    rng = random.Random(27)
    for _ in range(80):
        phi = random_cnf(rng, max_vars=4, max_clauses=3)
        if not brute_satisfiable(phi):
            continue
        got = max_sat_resilience(phi)
        bounds = [
            len({abs(lit) for lit in cl})
            for cl in phi.clauses
            if not any(-lit in cl for lit in cl)
        ]
        if bounds:
            assert got != SATURATED and got < min(bounds)


def least_model_certifier(phi):
    """The scan's certifier with every decision False, keeping whole models:
    each model is the least one extending its restriction."""
    solver = sat._Solver(phi)

    def solve(mask):
        model = solver.solve([var if val else -var for var, val in sat._fixes(mask)])
        return None if model is None else model_mask(model)

    return solve


def test_phase_changes_no_answer(monkeypatch):
    """The certifier's phase picks only which model certifies a restriction:
    verdicts, witnesses, restrictions_checked and max resilience equal those
    of the least-model certifier on random formulas, blow-ups and chain
    outputs."""
    rng = random.Random(33)
    corpus = [random_cnf(rng, max_vars=7, max_clauses=8, max_width=4) for _ in range(300)]
    for s in (2, 3):
        for _ in range(3):
            corpus.append(blow_up(random_cnf(rng, max_vars=3, max_clauses=3, exact_width=True), s))
    corpus += [
        hardness_chain(2, CnfFormula.make(3, [(1, 2, 3)])),
        hardness_chain(2, CnfFormula.make(3, [(1, -2, 3), (-1, 2, 3)])),
        hardness_chain(2, CnfFormula.make(3, [(1, 2, 3), (-1, -2, -3)])),
        hardness_chain(3, CnfFormula.make(3, [(1, 2, 3)])),
    ]

    def answers(phi):
        verdicts = [is_r_resilient(phi, r) for r in range(4)]
        best = None if is_satisfiable(phi) is None else max_sat_resilience(phi)
        return verdicts, best

    seen = {"resilient": 0, "witness": 0, "saturated": 0}
    for phi in corpus:
        phased = answers(phi)
        with monkeypatch.context() as patch:
            patch.setattr(sat, "_model_certifier", least_model_certifier)
            assert answers(phi) == phased
        seen["resilient"] += sum(v.resilient for v in phased[0])
        seen["witness"] += sum(v.witness is not None for v in phased[0])
        seen["saturated"] += phased[1] == SATURATED
    assert min(seen.values()) > 0, seen


def test_implicants_change_no_answer(monkeypatch):
    """Keeping each model's implicant rather than the whole model moves no
    answer: on 3,000 random formulas, repeated literals and tautologies
    included, the verdicts, witnesses and restrictions_checked of the scans
    at r = 0..3 and the max sweep's value equal those of scans that keep
    whole models (model_mask), with fewer solves in all."""
    calls = count_calls(monkeypatch, sat._Solver, "solve")
    rng = random.Random(53)
    solves = [0, 0]
    seen = {"resilient": 0, "witness": 0, "saturated": 0, "raises": 0}

    def answers(phi, slot):
        calls[0] = 0
        verdicts = [is_r_resilient(phi, r) for r in range(4)]
        try:
            best = max_sat_resilience(phi)
        except ValueError:
            best = "raises"
        solves[slot] += calls[0]
        return verdicts, best

    for _ in range(3000):
        phi = with_extra_clauses(rng, random_cnf(rng, max_vars=7, max_clauses=8, max_width=4))
        implicant = answers(phi, 0)
        with monkeypatch.context() as patch:
            patch.setattr(sat, "_implicant_mask", lambda phi, model: model_mask(model))
            assert answers(phi, 1) == implicant
        seen["resilient"] += sum(v.resilient for v in implicant[0])
        seen["witness"] += sum(v.witness is not None for v in implicant[0])
        seen["saturated"] += implicant[1] == SATURATED
        seen["raises"] += implicant[1] == "raises"
    assert min(seen.values()) > 0, seen
    assert solves[0] < solves[1], solves


def test_kept_implicants_are_models():
    """Every assignment inside a kept certificate's mask is a model: the
    certificates kept by scans at r = 0..3, carried in one store, are
    checked against the brute-force truth table on random formulas of up
    to 8 variables, repeated literals and tautologies included.  A
    variable is free in a certificate when both its literals are in it."""
    rng = random.Random(59)
    kept = free = 0
    for _ in range(400):
        phi = with_extra_clauses(rng, random_cnf(rng, max_vars=8, max_clauses=10, max_width=4))
        n = phi.num_vars
        table = sat_table(phi)
        if not table.any():
            continue
        idx = np.arange(1 << n, dtype=np.uint32)
        store = sat._CertificateStore(n, 2)
        solve = sat._model_certifier(phi)
        for r in range(4):
            sat._first_uncovered(store, r, solve)
        for complement in store.complements:
            cert = store.universe & ~complement
            inside = np.ones(1 << n, dtype=bool)
            for var in range(n):
                pair = cert >> 2 * var & 3
                assert pair, "a certificate holds a literal of every variable"
                if pair == 3:
                    free += 1
                else:
                    inside &= (idx >> var & 1) == pair - 1
            assert table[inside].all()
            kept += 1
    assert kept and free
