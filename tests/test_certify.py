import random
from dataclasses import replace
from fractions import Fraction

import pytest

from berncert import (
    BernsteinForm,
    CertifyConfig,
    CertKind,
    CertificateTree,
    EdgeSplit,
    Elevation,
    MalformedTreeError,
    Strategy,
    Target,
    certify,
    counterexample_polynomial,
    enclosure_bound,
    failing_leaves,
    from_bernstein,
    is_certified,
    parse_polynomial,
    split_demo_polynomial,
    standard_simplex,
    status_meets,
    verify_tree,
    walk,
)
from berncert.bernstein import CertStatus
from helpers import rand_point_in, rand_polynomial

STD2 = standard_simplex(2)


def test_demo_polynomial_certifies_at_depth_one():
    tree = certify(split_demo_polynomial(), STD2, CertifyConfig(max_depth=1))
    assert is_certified(tree, Target.NONNEGATIVE)
    assert tree.split == EdgeSplit(1, 2, Fraction(1, 2))
    assert len(tree.children) == 2
    leaf_coeff_sets = [
        sorted(child.form.coeffs.values()) for child in tree.children
    ]
    expected = [Fraction(1, 4), Fraction(1, 4), Fraction(1)]
    assert leaf_coeff_sets == [expected, expected]
    assert all(child.status.kind is CertKind.NONNEGATIVE for child in tree.children)


def test_positive_target_unreachable_when_polynomial_has_a_zero():
    # the demo quadratic vanishes at v0, so no positivity certificate exists
    tree = certify(
        split_demo_polynomial(),
        STD2,
        CertifyConfig(max_depth=2, target=Target.POSITIVE),
    )
    assert not is_certified(tree, Target.POSITIVE)
    assert failing_leaves(tree, Target.POSITIVE)


def test_positive_constant_is_a_single_node():
    tree = certify(parse_polynomial("2", 2), STD2, CertifyConfig())
    assert tree.children == ()
    assert tree.split is None
    assert tree.status.kind is CertKind.POSITIVE


def test_zero_depth_budget_returns_root_only():
    tree = certify(split_demo_polynomial(), STD2, CertifyConfig(max_depth=0))
    assert tree.children == ()
    assert not is_certified(tree, Target.NONNEGATIVE)


def test_certify_is_deterministic():
    config = CertifyConfig(max_depth=3)
    p = counterexample_polynomial()
    assert certify(p, STD2, config) == certify(p, STD2, config)


def test_bisection_splits_longest_edge_at_half():
    tree = certify(
        split_demo_polynomial(),
        STD2,
        CertifyConfig(max_depth=1, strategy=Strategy.EDGE_BISECTION),
    )
    # on std2 the longest edge is v1-v2 (squared length 2)
    assert tree.split == EdgeSplit(1, 2, Fraction(1, 2))
    assert is_certified(tree, Target.NONNEGATIVE)


def test_elevation_only_reaches_the_frozen_minimal_degree():
    q = parse_polynomial("x1^2 + x2^2 - x1*x2 + 1/10", 2)
    config = CertifyConfig(
        max_depth=0,
        max_degree=20,
        strategy=Strategy.ELEVATION_ONLY,
        target=Target.POSITIVE,
    )
    tree = certify(q, STD2, config)
    assert is_certified(tree, Target.POSITIVE)
    chain = list(walk(tree))
    # degrees 2 and 3 are indeterminate, 4 is positive: three nodes
    assert [node.form.degree for _, node in chain] == [2, 3, 4]
    assert all(
        node.split == Elevation(1) for _, node in chain[:-1]
    )


def test_elevation_does_not_consume_split_depth():
    q = parse_polynomial("x1^2 + x2^2 - x1*x2 + 1/10", 2)
    config = CertifyConfig(
        max_depth=0,
        max_degree=20,
        strategy=Strategy.ELEVATION_ONLY,
        target=Target.POSITIVE,
    )
    assert is_certified(certify(q, STD2, config), Target.POSITIVE)


def test_elevation_then_split_elevates_root_once():
    tree = certify(
        counterexample_polynomial(),
        STD2,
        CertifyConfig(
            max_depth=1,
            max_degree=6,
            strategy=Strategy.ELEVATION_THEN_SPLIT,
        ),
    )
    assert tree.split == Elevation(2)
    assert len(tree.children) == 1
    child = tree.children[0]
    assert child.form.degree == 6
    assert isinstance(child.split, EdgeSplit)


def test_max_degree_below_polynomial_degree_rejected():
    with pytest.raises(ValueError):
        certify(
            counterexample_polynomial(), STD2, CertifyConfig(max_degree=3)
        )


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        certify(parse_polynomial("x1 + x2 + x3", 3), STD2, CertifyConfig())


def test_counterexample_exhausts_with_negative_frontier():
    tree = certify(
        counterexample_polynomial(), STD2, CertifyConfig(max_depth=4)
    )
    assert not is_certified(tree, Target.NONNEGATIVE)
    frontier = failing_leaves(tree, Target.NONNEGATIVE)
    assert frontier
    assert any(leaf.status.negative_indices for _, leaf in frontier)


def test_walk_paths_address_children():
    tree = certify(
        counterexample_polynomial(), STD2, CertifyConfig(max_depth=2)
    )
    for path, node in walk(tree):
        cursor = tree
        for step in path:
            cursor = cursor.children[step]
        assert cursor is node


def test_status_meets():
    positive = CertStatus(CertKind.POSITIVE)
    nonneg = CertStatus(CertKind.NONNEGATIVE)
    indet = CertStatus(CertKind.INDETERMINATE, ((0, 1, 1),))
    assert status_meets(positive, Target.POSITIVE)
    assert status_meets(positive, Target.NONNEGATIVE)
    assert not status_meets(nonneg, Target.POSITIVE)
    assert status_meets(nonneg, Target.NONNEGATIVE)
    assert not status_meets(indet, Target.NONNEGATIVE)


def test_verify_tree_accepts_real_trees():
    for config in (
        CertifyConfig(max_depth=1),
        CertifyConfig(max_depth=3),
        CertifyConfig(max_depth=2, strategy=Strategy.EDGE_BISECTION),
        CertifyConfig(
            max_depth=1, max_degree=6, strategy=Strategy.ELEVATION_THEN_SPLIT
        ),
        CertifyConfig(
            max_depth=0,
            max_degree=6,
            strategy=Strategy.ELEVATION_ONLY,
            target=Target.POSITIVE,
        ),
    ):
        tree = certify(counterexample_polynomial(), STD2, config)
        assert verify_tree(tree)
    demo = certify(split_demo_polynomial(), STD2, CertifyConfig(max_depth=1))
    assert verify_tree(demo)


def test_three_variable_search_uses_exact_child_forms():
    p = parse_polynomial("x1^2 + x2^2 + x3^2 - x1*x2 - x2*x3 + 1/100")
    tree = certify(p, standard_simplex(3), CertifyConfig(target=Target.POSITIVE))
    assert is_certified(tree, Target.POSITIVE)
    assert sum(1 for _ in walk(tree)) == 9
    assert verify_tree(tree)
    assert all(from_bernstein(node.form) == p for _, node in walk(tree))


def test_search_solves_barycentric_coordinates_only_for_the_root(monkeypatch):
    import berncert.simplices

    calls = []
    invert = berncert.simplices.invert
    monkeypatch.setattr(
        berncert.simplices, "invert", lambda m: calls.append(m) or invert(m)
    )
    runs = (
        (counterexample_polynomial(), STD2, CertifyConfig(max_depth=8)),
        (
            parse_polynomial("x1^2 + x2^2 + x3^2 - x1*x2 - x2*x3 + 1/100"),
            standard_simplex(3),
            CertifyConfig(
                max_depth=3, strategy=Strategy.EDGE_BISECTION, target=Target.POSITIVE
            ),
        ),
    )
    for p, simplex, config in runs:
        calls.clear()
        tree = certify(p, simplex, config)
        assert tree.children  # the search split, yet only the root's to_bernstein solved
        assert len(calls) == 1


def test_verify_tree_detects_tampered_leaf():
    tree = certify(split_demo_polynomial(), STD2, CertifyConfig(max_depth=1))
    victim = tree.children[0]
    doctored_coeffs = dict(victim.form.coeffs)
    index = next(iter(doctored_coeffs))
    doctored_coeffs[index] += Fraction(1, 7)
    doctored_leaf = CertificateTree(
        BernsteinForm(victim.form.system, victim.form.degree, doctored_coeffs),
        victim.status,
    )
    tampered = replace(tree, children=(doctored_leaf, tree.children[1]))
    assert not verify_tree(tampered)


def test_verify_tree_detects_wrong_status():
    tree = certify(split_demo_polynomial(), STD2, CertifyConfig(max_depth=1))
    victim = tree.children[0]
    lied = CertificateTree(victim.form, CertStatus(CertKind.POSITIVE))
    tampered = replace(tree, children=(lied, tree.children[1]))
    assert not verify_tree(tampered)


def test_verify_tree_raises_on_malformed_structure():
    tree = certify(split_demo_polynomial(), STD2, CertifyConfig(max_depth=1))
    only_one_child = replace(tree, children=(tree.children[0],))
    with pytest.raises(MalformedTreeError):
        verify_tree(only_one_child)

    no_split_record = replace(tree, split=None)
    with pytest.raises(MalformedTreeError):
        verify_tree(no_split_record)

    # duplicated child: volumes still add up, but the recorded split disagrees
    half_cover = replace(tree, children=(tree.children[0], tree.children[0]))
    with pytest.raises(MalformedTreeError):
        verify_tree(half_cover)


def test_certified_leaves_are_sound_by_sampling():
    rng = random.Random(2024)
    p = split_demo_polynomial()
    tree = certify(p, STD2, CertifyConfig(max_depth=1))
    for leaf in tree.leaves():
        for _ in range(10):
            assert p.evaluate(rand_point_in(rng, leaf.simplex)) >= 0

    q = parse_polynomial("x1^2 + x2^2 - x1*x2 + 1/10", 2)
    tree_q = certify(
        q,
        STD2,
        CertifyConfig(
            max_depth=0,
            max_degree=6,
            strategy=Strategy.ELEVATION_ONLY,
            target=Target.POSITIVE,
        ),
    )
    assert is_certified(tree_q, Target.POSITIVE)
    for leaf in tree_q.leaves():
        for _ in range(10):
            assert q.evaluate(rand_point_in(rng, leaf.simplex)) > 0


def test_enclosure_tightens_under_refinement_reported_not_asserted():
    """Refinement results are reported; monotonicity is observed, not required.

    The transfer weights are convex, so child enclosures never widen on
    any input this suite generates; if that ever changed the report below
    would show it without failing the build.
    """
    rng = random.Random(3030)
    observed = []
    for _ in range(5):
        p = rand_polynomial(rng, max_degree=3)
        form_tree = certify(p, STD2, CertifyConfig(max_depth=2))
        root_lo, root_hi = enclosure_bound(form_tree.form)
        for leaf in form_tree.leaves():
            lo, hi = enclosure_bound(leaf.form)
            observed.append(root_lo <= lo and hi <= root_hi)
    print(
        f"enclosure monotone on {sum(observed)}/{len(observed)} leaves "
        "(reported, not asserted)"
    )
    assert observed  # the sampling itself must have happened
