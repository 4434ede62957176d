"""The completed rewriting system: convergence oracles and caps."""

import itertools

import pytest

import graphmonoid as gm
from graphmonoid import enumeration, knuth_bendix
from graphmonoid.knuth_bendix import complete
from graphmonoid.rewriting import exhaustive_reducts, successors

from conftest import corpus, make_abcd

ABCD = make_abcd()


def _completions(g):
    # the graph's own rules and those of every proper collapse
    yield complete(g)
    for h in gm.enumerate_hsat(g):
        if 0 < len(h.members) < len(g.vertices):
            yield complete(g, h.members)


def test_critical_pairs_of_the_rules_join():
    for g in corpus():
        for rules, reduce in _completions(g):
            for (l1, r1), (l2, r2) in itertools.combinations(rules, 2):
                lcm = tuple(map(max, l1, l2))
                one = tuple(m - a + b for m, a, b in zip(lcm, l1, r1))
                two = tuple(m - a + b for m, a, b in zip(lcm, l2, r2))
                assert reduce(one) == reduce(two)


def test_rules_are_interreduced_and_ordered():
    for g in corpus():
        for rules, reduce in _completions(g):
            for lhs, rhs in rules:
                assert (sum(rhs), rhs) < (sum(lhs), lhs)
                assert reduce(rhs) == rhs
            for (l1, _), (l2, _) in itertools.permutations(rules, 2):
                assert not all(map(int.__ge__, l1, l2))


def test_normal_form_is_invariant_under_single_moves():
    for g in corpus():
        reduce = complete(g).reduce
        for x in gm.elements_up_to(g, 6):
            nf = reduce(x.counts)
            assert reduce(nf) == nf
            assert (sum(nf), nf) <= (x.size, x.counts)
            for _, y in successors(x):
                assert reduce(y.counts) == nf


def _finite_reducts(g, size):
    """Each element up to ``size`` with its whole reduct set, or None when
    one of those sets outgrows the search cap."""
    out = []
    for x in gm.elements_up_to(g, size):
        rx = exhaustive_reducts(x, 500)
        if rx is None:
            return None
        out.append((x, rx))
    return out


def test_normal_forms_match_exhaustive_reducts():
    # where every element's reducts are finite, two elements are equal
    # exactly when their reduct sets meet (moves are confluent)
    checked = 0
    for g in corpus():
        pairs = _finite_reducts(g, 3)
        if pairs is None:
            continue
        checked += 1
        reduce = complete(g).reduce
        for (x, rx), (y, ry) in itertools.combinations(pairs, 2):
            assert (reduce(x.counts) == reduce(y.counts)) == bool(rx & ry)
        classes = []
        for _, rx in pairs:
            if not any(rx & c for c in classes):
                classes.append(rx)
        assert gm.bounded_class_count(g, 3) == (len(classes), len(classes))
    assert checked >= 20


@pytest.fixture
def tiny_cap(monkeypatch):
    """Set one of the completion caps, with the completion and model
    caches emptied on both sides."""

    def set_cap(name, value):
        monkeypatch.setattr(knuth_bendix, name, value)
        knuth_bendix._complete.cache_clear()
        enumeration._build_model.cache_clear()

    yield set_cap
    knuth_bendix._complete.cache_clear()
    enumeration._build_model.cache_clear()


def test_tiny_rule_cap_raises(tiny_cap):
    tiny_cap("RULE_CAP", 1)
    with pytest.raises(gm.CapExceeded, match="exceeds 1 rules"):
        complete(ABCD)


def test_tiny_pair_cap_raises(tiny_cap):
    tiny_cap("PAIR_CAP", 0)
    with pytest.raises(gm.CapExceeded, match="more than 0 pairs"):
        complete(ABCD)


def test_cap_hits_become_unknown_with_a_reason(tiny_cap):
    tiny_cap("RULE_CAP", 1)
    reports = [
        gm.check_separativity(ABCD),
        gm.check_unperforation(ABCD),
        gm.check_refinement(ABCD),
        gm.is_prime(gm.parse_element(ABCD, "d")),
    ]
    for report in reports:
        assert report.verdict == "unknown"
        assert "completion exceeds 1 rules" in report.details
    # ideal_membership reads no completion
    d, c = gm.parse_element(ABCD, "d"), gm.parse_element(ABCD, "c")
    assert gm.ideal_membership(d, c)[0] == "member"
