"""Machine certification of the gadget library's behavioral contracts."""
import itertools

from rescol.coloring import extend_coloring
from rescol.reductions import (
    GRAY,
    _standalone,
    _wire_clause,
    _wire_negation,
    verify_gadget_contracts,
)

WHITE, BLACK = 0, 1


def test_contract_report_is_clean():
    report = verify_gadget_contracts()
    assert report.ok
    assert report.failures() == ()
    # frozen totals: literal 9 pattern colorings collapse to 1 law check
    # plus 1 survival; negation 16 patterns + 37 survivals + 1 flexibility;
    # clause 4096 patterns + 420 survivals + 1 flexibility
    assert report.counts() == (4573, 0)


def test_contract_kinds_present():
    report = verify_gadget_contracts()
    kinds = {(c.gadget, c.contract) for c in report.checks}
    assert kinds == {
        ("literal", "ports-avoid-base-color"),
        ("literal", "survives-one-added-edge"),
        ("negation", "exactly-one-polarity-true"),
        ("negation", "survives-one-added-edge"),
        ("negation", "two-colors-achievable"),
        ("clause", "at-least-one-slot-true"),
        ("clause", "survives-one-added-edge"),
        ("clause", "two-colors-achievable"),
    }


def test_contract_check_sequence_is_pinned():
    report = verify_gadget_contracts()
    runs = [
        (gadget, contract, len(list(group)))
        for (gadget, contract), group in itertools.groupby(
            report.checks, key=lambda c: (c.gadget, c.contract)
        )
    ]
    assert runs == [
        ("literal", "ports-avoid-base-color", 1),
        ("literal", "survives-one-added-edge", 1),
        ("negation", "exactly-one-polarity-true", 16),
        ("negation", "survives-one-added-edge", 37),
        ("negation", "two-colors-achievable", 1),
        ("clause", "at-least-one-slot-true", 4096),
        ("clause", "survives-one-added-edge", 420),
        ("clause", "two-colors-achievable", 1),
    ]
    for gadget, width in (("negation", 4), ("clause", 12)):
        patterns = [c.pattern for c in report.checks if c.gadget == gadget][: 2**width]
        assert patterns == ["".join(map(str, p)) for p in itertools.product((0, 1), repeat=width)]


def test_literal_ports_never_gray():
    graph, base, (p1, p2), _ = _standalone(2, None)
    for cp in range(3):
        for cq in range(3):
            colors = extend_coloring(graph, 3, {base: GRAY, p1: cp, p2: cq})
            if colors is not None:
                assert cp != GRAY and cq != GRAY


def test_negation_accepts_exactly_one_true():
    graph, base, (p1, p2, n1, n2), _ = _standalone(4, _wire_negation)
    for pat in itertools.product((WHITE, BLACK), repeat=4):
        clamp = {base: GRAY, p1: pat[0], p2: pat[1], n1: pat[2], n2: pat[3]}
        extendable = extend_coloring(graph, 3, clamp) is not None
        pos_true = pat[0] == pat[1]
        neg_true = pat[2] == pat[3]
        assert extendable == (pos_true != neg_true)


def test_negation_rejects_both_true():
    graph, base, (p1, p2, n1, n2), _ = _standalone(4, _wire_negation)
    clamp = {base: GRAY, p1: WHITE, p2: WHITE, n1: BLACK, n2: BLACK}
    assert extend_coloring(graph, 3, clamp) is None


def test_clause_accepts_iff_some_slot_true():
    graph, base, ports, _ = _standalone(12, _wire_clause)
    for pat in itertools.product((WHITE, BLACK), repeat=12):
        clamp = {base: GRAY} | dict(zip(ports, pat))
        extendable = extend_coloring(graph, 3, clamp) is not None
        some_true = any(pat[2 * i] == pat[2 * i + 1] for i in range(6))
        assert extendable == some_true


def test_clause_rejects_all_false():
    graph, base, ports, _ = _standalone(12, _wire_clause)
    pat = (WHITE, BLACK) * 6
    clamp = {base: GRAY} | dict(zip(ports, pat))
    assert extend_coloring(graph, 3, clamp) is None
