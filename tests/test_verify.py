import ast
import gc
import inspect
import json
import tracemalloc
from math import comb, factorial
from pathlib import Path

import pytest

from planarcount import graphs, series, tableaux, verify, walks
from planarcount.graphs import enumeration_cost
from planarcount.tableaux import count_tableau_pairs, iter_block_tableaux
from planarcount.verify import (
    METHODS,
    VerificationReport,
    audit_bijections,
    audit_involution,
    count_graphs,
    verify_gessel_identity,
    verify_matching_identity,
    verify_subgraph_identity,
    verify_walk_scaling,
)
from planarcount.walks import (
    BudgetExceeded,
    QuasiConfiguration,
    Walk,
    endpoint,
    in_restricted_family,
    is_profile_walk,
    iter_restricted_family,
    iter_restricted_walks,
    iter_toeplitz,
    nonprofile_involution,
    offregion_involution,
    restricted_halves,
    reverse_negative_half,
    signed_walk_cost,
    signed_walk_sum,
    translated_exit,
)


def test_matching_identity_examples():
    for n, r, d, value in [(2, 2, 1, 1), (3, 1, 2, 5), (2, 2, 2, 3)]:
        report = verify_matching_identity(n, r, d)
        assert report.passed
        assert set(report.methods.values()) == {value}


def test_matching_identity_with_threads():
    report = verify_matching_identity(2, 2, 2, threads=4)
    assert report.passed and set(report.methods.values()) == {3}


def test_verifiers_reject_threads_below_one():
    for verify, args in (
        (verify_matching_identity, (2, 1, 1)),
        (verify_subgraph_identity, (2, 1, 1)),
        (verify_walk_scaling, (1, 1)),
    ):
        for threads in (0, -3):
            with pytest.raises(ValueError, match="need threads >= 1"):
                verify(*args, threads=threads)


def test_subgraph_identity_examples():
    report = verify_subgraph_identity(1, 2, 2)
    assert report.passed and set(report.methods.values()) == {1}
    # the n=2, r=2 subgraph sizes are 4, 3, 2
    for d, value in [(1, 0), (2, 1), (3, 2), (4, 3)]:
        report = verify_subgraph_identity(2, 2, d)
        assert report.passed
        assert set(report.methods.values()) == {value}
    report = verify_subgraph_identity(2, 1, 1)
    assert report.passed and set(report.methods.values()) == {1}


def test_walk_scaling_examples():
    for d in (1, 2, 3):
        report = verify_walk_scaling(1, d)
        assert report.passed and set(report.methods.values()) == {2}
    report = verify_walk_scaling(2, 2)
    assert report.passed and set(report.methods.values()) == {12}
    report = verify_walk_scaling(3, 2)
    assert report.passed and set(report.methods.values()) == {100}


def test_gessel_identity_small():
    report = verify_gessel_identity(1, 8)
    assert report.passed
    report = verify_gessel_identity(2, 10)
    assert report.passed
    coeffs = report.methods["determinant_coefficients"]
    assert str(coeffs[2]) == "1/2"
    with pytest.raises(ValueError):
        verify_gessel_identity(2, 7)
    with pytest.raises(ValueError):
        verify_gessel_identity(0, 4)


@pytest.mark.parametrize("d", range(1, 9))
def test_gessel_identity_to_degree_14(d):
    assert verify_gessel_identity(d, 14).passed


def test_budget_refusals():
    with pytest.raises(BudgetExceeded):
        verify_matching_identity(2, 2, 2, budget=3)
    with pytest.raises(BudgetExceeded):
        verify_walk_scaling(3, 3, budget=3)
    with pytest.raises(BudgetExceeded):
        verify_gessel_identity(3, 10, budget=3)
    with pytest.raises(BudgetExceeded):
        audit_involution(2, 2, 2, "second", budget=3)
    with pytest.raises(BudgetExceeded):
        audit_involution(1, 1, 12, "second")
    with pytest.raises(BudgetExceeded):
        audit_bijections(2, 2, 2, budget=3)


def test_involution_audit_examples():
    report = audit_involution(2, 1, 2, "second")
    assert report.passed
    assert report.methods["signed_total"] == 0
    assert report.methods["domain_size"] == 8
    report = audit_involution(1, 2, 2, "first")
    assert report.passed
    report = audit_involution(2, 1, 2, "first")
    assert report.passed


INVOLUTIONS = {"first": offregion_involution, "second": nonprofile_involution}


def audit_involution_with(rho, n, r, d, which):
    """`audit_involution(n, r, d, which)` with `rho` in place of the
    involution of `which`."""
    name = INVOLUTIONS[which].__name__
    setattr(verify, name, rho)
    try:
        return audit_involution(n, r, d, which)
    finally:
        setattr(verify, name, INVOLUTIONS[which])


def audit_second_involution_with(rho):
    """`audit_involution(2, 1, 2, "second")` with `rho` in place of the
    second involution."""
    return audit_involution_with(rho, 2, 1, 2, "second")


def identity_map(w, r):
    return w


def constant_map(w, r):
    return Walk(d=w.d, pos=w.pos, neg=w.pos)


def raising_on_images(rho):
    """`rho` on the lexicographically smaller walk of every pair, a raise on
    the larger one: the smaller walk's image cannot be mapped back."""

    def raises_on_images(w, r):
        image = rho(w, r)
        if (w.pos, w.neg) > (image.pos, image.neg):
            raise ValueError("refusing an image")
        return image

    return raises_on_images


def test_involution_audit_catches_broken_map():
    # identity map: fails sign reversal (and fixed points)
    report = audit_second_involution_with(identity_map)
    assert not report.passed
    assert report.witness is not None
    assert report.methods["fixed_points"] > 0

    # constant map: fails self-inverse / closure
    report = audit_second_involution_with(constant_map)
    assert not report.passed
    assert report.witness is not None


def test_involution_audit_reports_a_raise_on_images():
    report = audit_second_involution_with(raising_on_images(nonprofile_involution))
    assert not report.passed
    assert report.witness is not None
    half = report.methods["domain_size"] // 2
    assert half > 0
    assert report.methods["self_inverse_failures"] == half
    assert report.methods["closure_failures"] == half


def test_bijection_audit_catches_a_wrong_rsk_pair():
    # swapping P and Q of one lift gives the pair of its inverse: the round
    # trip fails and the pair map stops being injective wherever the lift
    # (largest planar matching 2) is bounded
    real_rsk = verify.rsk
    bad_lift = (2, 3, 1)

    def wrong_rsk(perm):
        p, q = real_rsk(perm)
        return (q, p) if tuple(perm) == bad_lift else (p, q)

    verify.rsk = wrong_rsk
    verify._lift_table.cache_clear()
    try:
        for d in range(4):
            report = audit_bijections(3, 1, d)
            if d < 2:
                assert report.passed, d
            else:
                assert not report.passed, d
                assert report.methods["failures"] >= 2
                assert report.witness == (
                    "configuration (2, 3, 1): insertion round trip failed"
                )
    finally:
        verify.rsk = real_rsk
        verify._lift_table.cache_clear()
    assert all(audit_bijections(3, 1, d).passed for d in range(4))


def test_bijection_audit_works_only_on_bounded_lifts():
    # a single-d call fills the facts slots of the lifts bounded by d alone;
    # a larger d then fills the newly bounded ones
    verify._lift_table.cache_clear()
    for d, bounded in ((1, 1), (2, 14), (4, 24)):
        report = audit_bijections(4, 1, d)
        assert report.passed
        assert report.methods["configurations"] == bounded
        facts = verify._lift_table(4, 1).facts
        assert sum(slot is not None for slot in facts) == bounded


@pytest.mark.parametrize(
    "n,r", [(0, 1), (1, 1), (2, 1), (3, 1), (5, 1), (2, 2), (1, 3), (1, 5)]
)
def test_restricted_walk_family_joins_every_endpoint_in_order(n, r):
    for d in range(4):
        expected = [
            (w, sign)
            for pi, _, sign in iter_toeplitz(d, max_l1=2 * n * r)
            for w in iter_restricted_walks(n, r, d, pi, "matching")
        ]
        assert list(iter_restricted_family(n, r, d)) == expected


def test_bijection_audit_reads_each_column_word_once():
    # the 24 region walks of (4, 1, 4) have 10 distinct halves, one per
    # standard tableau of [4]; the same words appear as positive halves and
    # as reversed negative halves
    real = verify.tableau_from_column_word
    words = []

    def counting(word, d):
        words.append(tuple(word))
        return real(word, d)

    verify.tableau_from_column_word = counting
    try:
        report = audit_bijections(4, 1, 4)
    finally:
        verify.tableau_from_column_word = real
    assert report.passed and report.methods["region_walks"] == 24
    assert len(words) == len(set(words)) == 10


def test_bijection_audit_reports_a_profile_walk_mapped_out_of_bounds():
    # with the identity pairing for 111|111, the one profile walk at
    # (3, 1, 1) lifts to (1, 2, 3), whose largest planar matching is 3 > d:
    # the audit notes it instead of raising from the profile round trip
    real = verify.crossing_pairing
    flat = Walk.from_text("111|111")

    def identity_for_flat(w):
        if w == flat:
            return QuasiConfiguration(m=3, pairs=((1, 1), (2, 2), (3, 3)))
        return real(w)

    verify.crossing_pairing = identity_for_flat
    verify._lift_table.cache_clear()
    try:
        report = audit_bijections(3, 1, 1)
    finally:
        verify.crossing_pairing = real
        verify._lift_table.cache_clear()
    assert not report.passed
    # the lift side notes the broken inverse, the walk side the bound
    assert report.methods["failures"] == 2
    assert report.witness == (
        "crossing pairing does not invert the profile of (3, 2, 1)"
    )
    assert audit_bijections(3, 1, 1).passed


def test_bijection_audit_notes_an_enumerated_walk_that_is_no_profile():
    # the walk side still checks every enumerated walk that is not the
    # image of a lift the lift side has verified
    real = verify.iter_profile_walks
    stray = Walk.from_text("12|21")

    def with_stray(n, r, d):
        yield from real(n, r, d)
        yield stray

    verify.iter_profile_walks = with_stray
    try:
        report = audit_bijections(2, 1, 2)
    finally:
        verify.iter_profile_walks = real
    assert not report.passed
    assert report.witness == "enumerated walk 12|21 fails the profile test"
    assert report.methods["profile_walks"] == 3
    # the profile test, the round trip of its pairing (2, 1), and the sets
    assert report.methods["failures"] == 3


def audit_with_region_halves(n, r, d, change):
    """`audit_bijections(n, r, d)` with `change` applied to its region
    halves, endpoint -> list of halves."""
    real = verify.region_halves

    def changed(n, r, d):
        halves = real(n, r, d)
        change(halves)
        return halves

    verify.region_halves = changed
    try:
        return audit_bijections(n, r, d)
    finally:
        verify.region_halves = real


def test_bijection_audit_notes_a_region_half_that_is_no_column_word():
    # 21 leaves the dominance region at its first step: the audit notes it
    # instead of raising from `tableau_from_column_word`
    stray = Walk.from_text("21|12", d=2)
    report = audit_with_region_halves(
        2, 1, 2, lambda halves: halves[(1, 1)].append(stray.pos)
    )
    assert not report.passed
    assert report.methods["region_walks"] == 1 + 2**2
    assert report.witness == "walk sets differ: 2 from pairs vs 5 enumerated"
    # the sets, and the half that is no column word
    assert report.methods["failures"] == 2
    assert audit_bijections(2, 1, 2).passed


def test_bijection_audit_notes_a_missing_region_half():
    report = audit_with_region_halves(
        3, 1, 3, lambda halves: halves[(2, 1, 0)].pop()
    )
    assert not report.passed
    assert report.witness == "walk sets differ: 6 from pairs vs 3 enumerated"
    assert report.methods["failures"] == 1


def test_bijection_audit_notes_an_extra_region_half():
    # 12|11 stays in the region but its first block increases: it is no
    # column word of a tableau with strict block descents
    report = audit_with_region_halves(
        2, 2, 2, lambda halves: halves[(3, 1)].append((1, 2, 1, 1))
    )
    assert not report.passed
    assert report.witness == "walk sets differ: 3 from pairs vs 6 enumerated"
    # the sets, and the region walk 1211|1121 without a pair
    assert report.methods["failures"] == 2


def audit_with_profile_walks(n, r, d, change):
    """`audit_bijections(n, r, d)` with `change` applied to the list of its
    enumerated profile walks."""
    real = verify.iter_profile_walks

    def changed(n, r, d):
        walks = list(real(n, r, d))
        change(walks)
        return iter(walks)

    verify.iter_profile_walks = changed
    try:
        return audit_bijections(n, r, d)
    finally:
        verify.iter_profile_walks = real


def test_bijection_audit_notes_a_dropped_profile_walk():
    report = audit_with_profile_walks(4, 1, 3, lambda walks: walks.pop(5))
    assert not report.passed
    assert report.methods["profile_walks"] == report.methods["configurations"] - 1
    assert report.witness == "profile-walk sets differ: 22 enumerated vs 23 images"
    assert report.methods["failures"] == 1


def test_bijection_audit_notes_a_repeated_profile_walk():
    report = audit_with_profile_walks(4, 1, 3, lambda walks: walks.insert(9, walks[3]))
    assert not report.passed
    assert report.witness == "profile walk 1112|1112 enumerated twice"
    assert report.methods["failures"] == 1
    assert report.methods["profile_walks"] == report.methods["configurations"] == 23
    # every witness twice: each repeat is noted, and counted once
    report = audit_with_profile_walks(
        3, 1, 3, lambda walks: walks.extend(list(walks))
    )
    assert not report.passed
    assert report.witness == "profile walk 111|111 enumerated twice"
    assert report.methods["failures"] == 6
    assert report.methods["profile_walks"] == 6


def test_bijection_audit_notes_a_repeated_walk_that_is_no_image():
    # a repeat of an enumerated walk outside the images is noted too
    stray = Walk.from_text("12|21")
    report = audit_with_profile_walks(
        2, 1, 2, lambda walks: walks.extend([stray, stray])
    )
    assert not report.passed
    assert report.witness == "enumerated walk 12|21 fails the profile test"
    assert report.methods["profile_walks"] == 3
    # as for one stray, and the repeat
    assert report.methods["failures"] == 4


def test_bijection_audit_notes_a_repeated_tableau():
    real = verify.iter_block_tableaux

    def twice(n, r, d, kind):
        for t in real(n, r, d, kind):
            yield t
            yield t

    verify.iter_block_tableaux = twice
    try:
        report = audit_bijections(3, 1, 3)
    finally:
        verify.iter_block_tableaux = real
    assert not report.passed
    assert report.witness == "tableau [[1,2,3]] enumerated twice"
    assert report.methods["failures"] == 4
    assert report.methods["tableau_pairs"] == 6


def test_bijection_audit_notes_a_repeated_region_half():
    def double(halves):
        for group in halves.values():
            group.extend(list(group))

    report = audit_with_region_halves(3, 1, 3, double)
    assert not report.passed
    assert report.witness == "region half (1, 1, 1) enumerated twice"
    assert report.methods["failures"] == 4
    assert report.methods["region_walks"] == 6


def test_bijection_audit_pairs_each_profile_walk_once():
    # a walk the lift side has verified is not paired again on the walk side
    real = verify.crossing_pairing
    calls = []

    def counting(w):
        calls.append(w)
        return real(w)

    verify.crossing_pairing = counting
    verify._lift_table.cache_clear()
    try:
        report = audit_bijections(4, 1, 4)
    finally:
        verify.crossing_pairing = real
        verify._lift_table.cache_clear()
    assert report.passed
    assert len(calls) == report.methods["configurations"] == 24


def test_bijection_audit_at_the_empty_size():
    for d in range(3):
        report = audit_bijections(0, 1, d)
        assert report.passed, d
        assert report.methods == {
            "configurations": 1,
            "tableau_pairs": 1,
            "region_walks": 1,
            "profile_walks": 1,
            "failures": 0,
        }


def test_bijection_audit_examples():
    report = audit_bijections(2, 2, 2)
    assert report.passed
    assert report.methods["configurations"] == 3
    assert report.methods["tableau_pairs"] == 3
    assert report.methods["region_walks"] == 3
    assert report.methods["profile_walks"] == 3

    report = audit_bijections(3, 1, 3)
    assert report.passed
    assert report.methods["configurations"] == 6

    report = audit_bijections(2, 2, 1)
    assert report.passed
    assert report.methods["configurations"] == 1

    report = audit_bijections(2, 2, 0)
    assert report.passed
    assert report.methods["configurations"] == 0


def test_report_json_schema_and_reproducibility():
    first = verify_matching_identity(2, 2, 2)
    second = verify_matching_identity(2, 2, 2)
    assert first.content() == second.content()
    payload = json.loads(first.to_json())
    assert list(payload) == ["identity", "params", "methods", "pass", "elapsed_ms"]
    assert payload["identity"] == "theorem1"
    assert payload["params"] == {"d": 2, "n": 2, "r": 2}
    assert payload["methods"] == {
        "graph_enumeration": "3",
        "tableau_pairs": "3",
        "walks_enumerated": "3",
        "walks_dp": "3",
    }
    assert payload["pass"] is True
    assert isinstance(payload["elapsed_ms"], float)


def test_failed_report_includes_witness():
    report = VerificationReport(
        identity="demo",
        params={"n": 1},
        methods={"a": 1, "b": 2},
        passed=False,
        witness="method disagreement: a=1, b=2",
        elapsed_ms=0.1,
    )
    payload = json.loads(report.to_json())
    assert payload["witness"].startswith("method disagreement")


def test_identity_budget_matches_the_sum_of_method_costs():
    # the estimate written out term by term: brute-force fill bound, (rn)!
    # tableaux, and the two walk counters, which share one bound
    for verify, kind in (
        (verify_matching_identity, "matching"),
        (verify_subgraph_identity, "subgraph"),
    ):
        for r in (1, 2, 3):
            for n in range(1, 7 // r + 1):
                for d in range(n * r + 1):
                    estimate = (
                        comb(n + r - 1, n - 1) ** n * n
                        + factorial(n * r)
                        + 2 * signed_walk_cost(n, r, d, kind)
                    )
                    with pytest.raises(BudgetExceeded) as refused:
                        verify(n, r, d, budget=estimate - 1)
                    assert f"estimated {estimate} nodes" in str(refused.value)
    assert verify_matching_identity(2, 2, 2, budget=18 + 24 + 18 + 18).passed


def test_walk_scaling_budget_is_the_sum_of_its_layer_costs():
    # all-walks DP (2md moves times the 74 pairs of partitions of total size
    # <= 5), the r = 1 representative shape DP and the m! * m LIS
    # enumeration, written out at (m, d) = (5, 4)
    estimate = 2 * 5 * 4 * 74 + 5 * 4 * comb(9, 4) + factorial(5) * 5
    assert estimate == 6080
    assert verify_walk_scaling(5, 4, budget=estimate).passed
    with pytest.raises(BudgetExceeded) as refused:
        verify_walk_scaling(5, 4, budget=estimate - 1)
    assert f"estimated {estimate} nodes" in str(refused.value)


def test_walk_scaling_refuses_the_twelve_factorial_enumeration():
    with pytest.raises(BudgetExceeded):
        verify_walk_scaling(12, 2)


def test_gessel_budget_is_the_sum_of_its_layer_costs():
    # the 3 x 3 determinant to degree 10, and k! * k for each LIS count k <= 5
    estimate = 3 * 2**2 * 11**2 + sum(factorial(k) * k for k in range(6))
    assert verify_gessel_identity(3, 10, budget=estimate).passed
    with pytest.raises(BudgetExceeded) as refused:
        verify_gessel_identity(3, 10, budget=estimate - 1)
    assert f"estimated {estimate} nodes" in str(refused.value)


def test_bijection_audit_budget_is_its_up_front_estimate():
    # the multigraph enumeration bound plus (rn)! * (rn + 1), at (2, 2, 2)
    estimate = enumeration_cost(2, 2) + factorial(4) * 5
    assert estimate == 138
    assert audit_bijections(2, 2, 2, budget=estimate).passed
    with pytest.raises(BudgetExceeded) as refused:
        audit_bijections(2, 2, 2, budget=estimate - 1)
    assert f"estimated {estimate} nodes" in str(refused.value)


def test_involution_audit_budget_is_its_up_front_estimate():
    # (2 * blocks**n + d!)**2 with C(3, 2)**2 = 9 matching-kind half-walks
    # and 2! endpoints, at (2, 2, 2)
    with pytest.raises(BudgetExceeded) as refused:
        audit_involution(2, 2, 2, "second", budget=399)
    assert "estimated 400 nodes" in str(refused.value)
    assert audit_involution(2, 2, 2, "second", budget=400).passed


def test_bijection_audit_admitted_is_never_refused_later():
    # the estimate is 2 + 1! * 2 = 3 at rn = 1; the walk generators the
    # audit runs keep no budget of their own, so nothing refuses mid-run
    for d in range(3):
        assert audit_bijections(1, 1, d, budget=3).passed


def test_only_the_refusal_helper_below_the_entry_points_takes_a_budget():
    # budgets are checked at the entry points in verify and cli, before any
    # work; the layers below them only price their work
    taking = [
        f"{module.__name__}.{name}"
        for module in (graphs, walks, tableaux, series)
        for name, fn in vars(module).items()
        if inspect.isfunction(fn)
        and fn.__module__ == module.__name__
        and not name.startswith("_")
        and "budget" in inspect.signature(fn).parameters
    ]
    assert taking == ["planarcount.walks.require_budget"]


@pytest.mark.parametrize("method", list(METHODS))
def test_count_graphs_refuses_exactly_above_cost(method):
    n, r, d, kind = 2, 2, 3, "subgraph"
    cost = METHODS[method].cost(n, r, d, kind)
    assert count_graphs(n, r, d, kind, method, budget=cost) == 2
    with pytest.raises(BudgetExceeded):
        count_graphs(n, r, d, kind, method, budget=cost - 1)


def test_count_graphs_rejects_unknown_names():
    with pytest.raises(ValueError):
        count_graphs(2, 2, 2, "matching", "nonsense")
    with pytest.raises(ValueError):
        count_graphs(2, 2, 2, "nonsense", "brute")


@pytest.mark.parametrize(
    "call",
    [
        lambda: signed_walk_cost(1, 1, 1, "bogus"),
        lambda: signed_walk_sum(1, 1, 1, "bogus"),
        lambda: count_tableau_pairs(1, 1, 1, "bogus"),
        lambda: list(iter_block_tableaux(1, 1, 1, "bogus")),
        lambda: in_restricted_family(Walk(d=1, pos=(1,), neg=(1,)), 1, "bogus"),
        lambda: list(iter_restricted_walks(1, 1, 1, (1,), "bogus")),
        lambda: count_graphs(1, 1, 1, "bogus", "brute"),
    ],
)
def test_unknown_kind_is_one_value_error(call):
    with pytest.raises(ValueError, match=r"^unknown kind 'bogus'$"):
        call()


def test_no_module_imports_a_private_name_from_a_sibling():
    package = Path(verify.__file__).parent
    private = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("planarcount")
            ):
                private += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert private == []


def transient_peak_mib(call):
    """The tracemalloc peak of `call()` above what was allocated before it,
    after one untraced warm-up call has filled the caches, in MiB."""
    call()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - before) / 2**20


def test_audits_hold_no_witness_products():
    # the pair and region sides are compared shape by shape, profile images
    # are marked in one dict, and involution images are domain indices:
    # holding every pair walk, region walk and image needs 6.6 MiB at
    # (7, 1, 7) and 5.7 and 6.9 MiB for the involutions at (5, 1, 3)
    assert transient_peak_mib(lambda: audit_bijections(7, 1, 7)) < 3
    for which in ("first", "second"):
        assert transient_peak_mib(lambda: audit_involution(5, 1, 3, which)) < 5


def test_audits_hold_flat_domains_and_one_lift_table():
    # the involution domain is three arrays over the half-walk table (keys,
    # sign bits, image keys; about 0.5 MiB at (5, 1, 3)), and the lift side
    # one table per (n, r): a dict from walk to index needed 3.8 and 2.2 MiB
    # for the involutions at (5, 1, 3), and a per-lift cache with a copied
    # list of bounded lifts 1.7 MiB at (7, 1, 7)
    for which in ("first", "second"):
        assert transient_peak_mib(lambda: audit_involution(5, 1, 3, which)) < 1
    assert transient_peak_mib(lambda: audit_bijections(7, 1, 7)) < 1.5


# (label, image of w) for images that are no walk of the family: another d,
# a half longer than rn, and halves of the table joined at (rn, 0, .., -rn)
NO_FAMILY_WALK = {
    "wider": lambda w, r: Walk(d=w.d + 1, pos=w.pos, neg=w.neg),
    "longer": lambda w, r: Walk(d=w.d, pos=w.pos + (1,), neg=w.neg + (1,)),
    "off_toeplitz": lambda w, r: Walk(
        d=w.d, pos=(1,) * len(w.pos), neg=(w.d,) * len(w.neg)
    ),
}


@pytest.mark.parametrize(
    "which,image,witness",
    [
        ("first", "wider", "walk 112|112: image 112|112 left the domain"),
        ("first", "longer", "walk 112|112: image 1121|1121 left the domain"),
        ("first", "off_toeplitz", "walk 112|112: image 111|222 left the domain"),
        ("second", "wider", "walk 112|211: image 112|211 left the domain"),
        ("second", "longer", "walk 112|211: image 1121|2111 left the domain"),
        ("second", "off_toeplitz", "walk 112|211: image 111|222 left the domain"),
    ],
)
def test_involution_audit_notes_an_image_outside_the_family(which, image, witness):
    report = audit_involution_with(NO_FAMILY_WALK[image], 3, 1, 2, which)
    assert not report.passed
    assert report.methods == {
        "domain_size": 30,
        "signed_total": 0,
        "closure_failures": 30,
        "sign_flip_failures": 0,
        "self_inverse_failures": 0,
        "fixed_points": 0,
    }
    assert report.witness == witness


def reference_involution_audit(n, r, d, which, rho):
    """The report of `audit_involution(n, r, d, which)` with `rho` as the
    involution, in the predicate form: an image is a member when its d
    matches, its halves are in the table, it ends at a Toeplitz point and it
    passes the domain test; rho(rho(w)) is a second call, and nothing is
    stored."""
    table = {half for half, _ in restricted_halves(n, r, d)[0]}
    signs = {point: sign for _, point, sign in iter_toeplitz(d, max_l1=2 * n * r)}
    first = which == "first"

    def in_domain(w):
        return translated_exit(w) is not None if first else not is_profile_walk(w)

    def is_member(w):
        return (
            w.d == d
            and w.pos in table
            and (w.neg[::-1] if first else w.neg) in table
            and endpoint(w) in signs
            and in_domain(w)
        )

    def image(w):
        try:
            return rho(w, r)
        except Exception as exc:  # noqa: BLE001 - a refusal is a failed audit
            return exc

    methods = dict.fromkeys(
        (
            "domain_size",
            "signed_total",
            "closure_failures",
            "sign_flip_failures",
            "self_inverse_failures",
            "fixed_points",
        ),
        0,
    )
    witness = None

    def note(failure, w, why):
        nonlocal witness
        methods[failure] += 1
        if witness is None:
            witness = f"walk {w.to_text()}: {why}"

    for w, sign in iter_restricted_family(n, r, d):
        if first:
            w = reverse_negative_half(w)
        if not in_domain(w):
            continue
        methods["domain_size"] += 1
        methods["signed_total"] += sign
        v = image(w)
        if isinstance(v, Exception):
            note("closure_failures", w, f"involution raised {v!r}")
            continue
        if not is_member(v):
            note("closure_failures", w, f"image {v.to_text()} left the domain")
            continue
        if v == w:
            note("fixed_points", w, "fixed point")
            continue
        if signs[endpoint(v)] == sign:
            note("sign_flip_failures", w, "endpoint permutation sign did not flip")
        back = image(v)
        if back == w:
            continue
        if isinstance(back, Exception):
            note("self_inverse_failures", w, f"rho(rho(w)) raised {back!r}")
        else:
            note("self_inverse_failures", w, f"rho(rho(w)) = {back.to_text()} differs")
    passed = methods["signed_total"] == 0 and witness is None
    params = {"n": n, "r": r, "d": d}
    return VerificationReport(
        f"involution-{which}", params, methods, passed, witness, 0.0
    )


@pytest.mark.parametrize("which", ["first", "second"])
def test_involution_audit_equals_the_reference_on_the_grid(which):
    for n in range(1, 6):
        for r in range(1, 5 // n + 1):
            for d in range(4):
                expected = reference_involution_audit(
                    n, r, d, which, INVOLUTIONS[which]
                )
                report = audit_involution(n, r, d, which)
                assert report.content() == expected.content(), (n, r, d)


def broken_maps(which):
    """(label, map in place of the involution of `which`) for the broken
    maps above, plus the true image with its negative half reversed: a
    family walk whose own image is mostly some other walk."""
    real = INVOLUTIONS[which]
    return {
        "identity": identity_map,
        "constant": constant_map,
        "raises_on_images": raising_on_images(real),
        **NO_FAMILY_WALK,
        "reversed_image": lambda w, r: reverse_negative_half(real(w, r)),
    }


@pytest.mark.parametrize("label", list(broken_maps("second")))
@pytest.mark.parametrize("which", ["first", "second"])
def test_involution_audit_equals_the_reference_on_broken_maps(which, label):
    rho = broken_maps(which)[label]
    for n, r, d in [(2, 1, 2), (3, 1, 2), (3, 1, 3), (2, 2, 2), (4, 1, 3)]:
        expected = reference_involution_audit(n, r, d, which, rho)
        report = audit_involution_with(rho, n, r, d, which)
        assert not report.passed
        assert report.content() == expected.content(), (n, r, d)
