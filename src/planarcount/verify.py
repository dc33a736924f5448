"""Cross-method equality reports, bijection audits and involution audits.

Every verifier computes one quantity by several independent routes and
reports whether all routes agree exactly.  Audits enumerate both sides of a
claimed bijection (or the whole domain of an involution) and check the maps
witness by witness.  All reports are deterministic apart from elapsed_ms.

Verifiers and audits refuse to start when a cheap upper bound on the work
exceeds the node budget; the bound is checked once, before any work, so a
refusal raises BudgetExceeded and never returns a partial count.
"""

from __future__ import annotations

import json
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import comb, factorial
from operator import sub
from typing import Callable, NamedTuple

from .graphs import (
    check_count_params,
    check_kind,
    check_length_params,
    count_bounded_lis,
    count_bounded_matching,
    count_bounded_subgraph,
    enumeration_cost,
    lifted_multigraphs,
    lis_cost,
    planar_matching_profile,
)
from .series import bessel_series, determinant_cost, series_determinant
from .tableaux import (
    blocks_strictly_below,
    column_word,
    column_words_walk,
    count_tableau_pairs,
    iter_block_tableaux,
    rsk,
    rsk_inverse,
    tableau_from_column_word,
    tableau_pairs_cost,
)
from .walks import (
    Walk,
    all_walks_cost,
    count_all_walks_signed,
    crossing_pairing,
    endpoint,
    in_restricted_family,
    is_profile_walk,
    iter_profile_walks,
    iter_toeplitz,
    nonprofile_involution,
    offregion_involution,
    profile_walk,
    region_halves,
    require_budget,
    restricted_halves,
    signed_walk_cost,
    signed_walk_sum,
    translated_exit,
)

DEFAULT_BUDGET = 500_000_000


class Method(NamedTuple):
    """A counting method: report label, count and cost (a work bound)."""

    label: str
    count: Callable[[int, int, int, str], int]
    cost: Callable[[int, int, int, str], int]


# The one list of counting methods.  The lambdas look the functions up when
# called, so a function rebound in this module's namespace is the one used.
METHODS = {
    "brute": Method(
        "graph_enumeration",
        lambda n, r, d, kind: (
            count_bounded_subgraph if kind == "subgraph" else count_bounded_matching
        )(n, r, d),
        lambda n, r, d, kind: enumeration_cost(n, r),
    ),
    "tableaux": Method(
        "tableau_pairs",
        lambda n, r, d, kind: count_tableau_pairs(n, r, d, kind),
        lambda n, r, d, kind: tableau_pairs_cost(n, r),
    ),
    "walks-enum": Method(
        "walks_enumerated",
        lambda n, r, d, kind: signed_walk_sum(n, r, d, kind, "enumerate"),
        lambda n, r, d, kind: signed_walk_cost(n, r, d, kind),
    ),
    "walks-dp": Method(
        "walks_dp",
        lambda n, r, d, kind: signed_walk_sum(n, r, d, kind, "dp"),
        lambda n, r, d, kind: signed_walk_cost(n, r, d, kind),
    ),
}


def count_graphs(
    n: int, r: int, d: int, kind: str, method: str, budget: int | None = DEFAULT_BUDGET
) -> int:
    """Graphs with largest planar matching (or subgraph) <= d, counted by
    one method of METHODS: validate, refuse on cost, then count."""
    check_count_params(n, r, d)
    check_kind(kind)
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    entry = METHODS[method]
    require_budget(entry.cost(n, r, d, kind), budget, f"{method} count")
    return entry.count(n, r, d, kind)


@dataclass(frozen=True)
class VerificationReport:
    identity: str
    params: dict
    methods: dict
    passed: bool
    witness: str | None
    elapsed_ms: float

    def content(self):
        """Everything except the timing; reproducible bit for bit."""
        return (
            self.identity,
            tuple(sorted(self.params.items())),
            tuple(sorted((k, _as_text(v)) for k, v in self.methods.items())),
            self.passed,
            self.witness,
        )

    def to_json(self) -> str:
        obj = {
            "identity": self.identity,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "methods": {k: _as_text(self.methods[k]) for k in self.methods},
            "pass": self.passed,
        }
        if self.witness is not None:
            obj["witness"] = self.witness
        obj["elapsed_ms"] = round(self.elapsed_ms, 3)
        return json.dumps(obj)


def _as_text(value):
    """Counts as decimal strings; coefficient sequences as lists of p/q."""
    if isinstance(value, (list, tuple)):
        return [str(x) for x in value]
    return str(value)


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError("need threads >= 1")


def _report(identity, params, methods, passed, witness, started) -> VerificationReport:
    """The report of a check that began at perf_counter() time `started`."""
    elapsed_ms = (time.perf_counter() - started) * 1000
    return VerificationReport(identity, params, methods, passed, witness, elapsed_ms)


def _identity_report(identity, params, methods, started) -> VerificationReport:
    values = list(methods.values())
    passed = all(v == values[0] for v in values)
    witness = None
    if not passed:
        listing = ", ".join(f"{k}={v}" for k, v in methods.items())
        witness = f"method disagreement: {listing}"
    return _report(identity, params, methods, passed, witness, started)


def _verify_identity(identity, n, r, d, kind, budget, threads) -> VerificationReport:
    """Count one (n, r, d, kind) with every method of METHODS, one after
    another, under the sum of their costs; the report keys are their labels."""
    _check_threads(threads)
    started = time.perf_counter()
    check_count_params(n, r, d)
    estimate = sum(entry.cost(n, r, d, kind) for entry in METHODS.values())
    require_budget(estimate, budget, f"{kind} identity")
    methods = {entry.label: entry.count(n, r, d, kind) for entry in METHODS.values()}
    return _identity_report(identity, {"n": n, "r": r, "d": d}, methods, started)


def verify_matching_identity(
    n: int, r: int, d: int, budget: int | None = DEFAULT_BUDGET, threads: int = 1
) -> VerificationReport:
    """Count graphs with largest planar matching <= d with every method of
    METHODS.  `threads` must be >= 1; the methods run one after another."""
    return _verify_identity("theorem1", n, r, d, "matching", budget, threads)


def verify_subgraph_identity(
    n: int, r: int, d: int, budget: int | None = DEFAULT_BUDGET, threads: int = 1
) -> VerificationReport:
    """Same check for the largest planar subgraph variant."""
    return _verify_identity("plk", n, r, d, "subgraph", budget, threads)


def verify_walk_scaling(
    m: int, d: int, budget: int | None = DEFAULT_BUDGET, threads: int = 1
) -> VerificationReport:
    """The signed count over all (interleaved) walks of length 2m to Toeplitz
    points equals C(2m, m) times both the representative signed sum and the
    number of permutations with bounded increasing subsequences."""
    _check_threads(threads)
    started = time.perf_counter()
    check_length_params(m, d)
    estimate = (
        all_walks_cost(m, d)
        + signed_walk_cost(m, 1, d, "matching")
        + lis_cost(m)
    )
    require_budget(estimate, budget, "walk scaling")
    scale = comb(2 * m, m)
    methods = {
        "all_walks_dp": count_all_walks_signed(m, d),
        "representatives_scaled": scale * signed_walk_sum(m, 1, d, "matching", "dp"),
        "lis_scaled": scale * count_bounded_lis(m, d),
    }
    return _identity_report("mot", {"m": m, "d": d}, methods, started)


def verify_gessel_identity(
    d: int, truncation: int, budget: int | None = DEFAULT_BUDGET
) -> VerificationReport:
    """Gessel's identity, exactly: the coefficient of x^(2m) in the d x d
    determinant of modified Bessel series I_(|i-j|)(2x) equals u_m(d)/(m!)^2
    where u_m(d) counts permutations with increasing subsequences <= d."""
    started = time.perf_counter()
    if d < 1:
        raise ValueError("need d >= 1")
    if truncation < 0 or truncation % 2:
        raise ValueError("truncation degree must be even and >= 0")
    require_budget(
        determinant_cost(d, truncation)
        + sum(lis_cost(m) for m in range(truncation // 2 + 1)),
        budget,
        "gessel identity",
    )
    matrix = [
        [bessel_series(abs(i - j), truncation) for j in range(d)] for i in range(d)
    ]
    det = series_determinant(matrix)
    det_coeffs = [det.coefficient(2 * m) for m in range(truncation // 2 + 1)]
    lis_coeffs = [
        Fraction(count_bounded_lis(m, d), factorial(m) ** 2)
        for m in range(truncation // 2 + 1)
    ]
    methods = {
        "determinant_coefficients": det_coeffs,
        "scaled_lis_counts": lis_coeffs,
    }
    passed = det_coeffs == lis_coeffs
    witness = None
    if not passed:
        bad = next(i for i, (a, b) in enumerate(zip(det_coeffs, lis_coeffs)) if a != b)
        witness = (
            f"coefficient of x^{2 * bad}: determinant gives {det_coeffs[bad]}, "
            f"permutation count gives {lis_coeffs[bad]}"
        )
    params = {"d": d, "M": truncation}
    return _report("gessel", params, methods, passed, witness, started)


# ---------------------------------------------------------------- audits


class _LiftFacts(NamedTuple):
    """What the bijection audit needs to know about one lift that does not
    depend on d: its RSK pair (None when the shapes differ), its profile
    image (left, right) as one key, and the failure notes of the RSK checks
    and of the profile-walk checks."""

    pair: tuple | None
    image: tuple[tuple[int, ...], tuple[int, ...]]
    rsk_notes: tuple[str, ...]
    profile_notes: tuple[str, ...]


class _LiftTable(NamedTuple):
    """The lift side of `audit_bijections` at one (n, r), shared by every d:
    the lifts in `lifted_multigraphs` order, their largest planar matchings,
    and one facts slot per lift, filled the first time some d bounds it."""

    lifts: list[tuple[int, ...]]
    sizes: bytearray
    facts: list[_LiftFacts | None]


@lru_cache(maxsize=None)
def _lift_table(n: int, r: int) -> _LiftTable:
    """The lift table of (n, r), built once per process, its slots empty."""
    lifts, sizes = [], bytearray()
    for lift, size, _ in lifted_multigraphs(n, r):
        lifts.append(lift)
        sizes.append(size)
    return _LiftTable(lifts, sizes, [None] * len(lifts))


@lru_cache(maxsize=None)
def _interned(t):
    """One shared object per distinct tableau or profile half."""
    return t


def _lift_facts(lift: tuple[int, ...], n: int, r: int) -> _LiftFacts:
    """The lift side of `audit_bijections` for one configuration."""
    p, q = rsk(lift)
    p, q = _interned(p), _interned(q)
    pair = None
    rsk_notes = []
    if p.shape != q.shape:
        rsk_notes.append(f"configuration {lift}: unequal shapes")
    else:
        pair = (p, q)
        if not (blocks_strictly_below(p, n, r) and blocks_strictly_below(q, n, r)):
            rsk_notes.append(
                f"configuration {lift}: image lacks strict block descents"
            )
        if rsk_inverse(p, q) != lift:
            rsk_notes.append(f"configuration {lift}: insertion round trip failed")
    w = profile_walk(lift)
    profile_notes = []
    if not in_restricted_family(w, r, "matching"):
        profile_notes.append(
            f"profile walk {w.to_text()} violates the block conditions"
        )
    if not is_profile_walk(w):
        profile_notes.append(
            f"profile walk {w.to_text()} fails its own characterization"
        )
    back = crossing_pairing(w)
    if not back.is_complete or back.as_permutation() != lift:
        profile_notes.append(f"crossing pairing does not invert the profile of {lift}")
    return _LiftFacts(
        pair,
        (_interned(w.pos), _interned(w.neg)),
        tuple(rsk_notes),
        tuple(profile_notes),
    )


def audit_involution(
    n: int,
    r: int,
    d: int,
    which: str,
    budget: int | None = DEFAULT_BUDGET,
) -> VerificationReport:
    """Exhaustively check one of the two sign-reversing involutions.

    which="second": domain is every restricted walk (over all Toeplitz
    endpoints) that is not a prefix matching profile.  which="first": domain
    is every reversed-family walk that leaves the dominance region after
    translation.  Checks: the map stays in the domain, reverses the endpoint
    permutation's sign, squares to the identity, has no fixed point, and the
    domain's signed total is zero.

    The domain is held in arrays over one `restricted_halves` table of H
    halves.  A family walk is named by one int, its key (e*H + p)*H + q:
    e is its endpoint's index in `iter_toeplitz` order, p and q the numbers
    of its positive and negative halves.  Each histogram group lists its
    half numbers in ascending order, so keys increase in family order.  For
    each domain walk the audit keeps its key, a sign bit and its image's
    key; an image's domain index is found by bisection, so the checks
    compare ints.  Each family walk is built as a `Walk` once, to be tested
    for the domain and mapped; for "first" each negative half is reversed
    once, in the table.  An image that raised, or that is no family walk
    (another d, a half outside the table, an endpoint that is no Toeplitz
    point), is kept only for its note, and the walk behind a note is
    decoded from its key.
    """
    started = time.perf_counter()
    if which not in ("first", "second"):
        raise ValueError("which must be 'first' or 'second'")
    check_count_params(n, r, d)
    # one table of the blocks**n matching-kind half-walks, joined at each of
    # the d! Toeplitz endpoints
    half_walks = comb(d + r - 1, r) ** n
    require_budget((2 * half_walks + factorial(d)) ** 2, budget, "involution audit")

    halves, by_hist = restricted_halves(n, r, d)
    size = len(halves)
    pos_number = {half: i for i, (half, _) in enumerate(halves)}
    if which == "second":
        negs, neg_number = [half for half, _ in halves], pos_number
    else:
        negs = [half[::-1] for half, _ in halves]
        neg_number = {half: i for i, half in enumerate(negs)}
    endpoints = list(iter_toeplitz(d, max_l1=2 * n * r))
    endpoint_index = {point: e for e, (_, point, _) in enumerate(endpoints)}

    def family_key(image) -> int:
        """The key of an image, or -1 when it is no family walk."""
        p = pos_number.get(image.pos)
        q = neg_number.get(image.neg)
        if image.d != d or p is None or q is None:
            return -1
        e = endpoint_index.get(tuple(map(sub, halves[p][1], halves[q][1])))
        return -1 if e is None else (e * size + p) * size + q

    def walk_at(key: int) -> Walk:
        """The domain-form walk of a key."""
        rest, q = divmod(key, size)
        return Walk(d=d, pos=halves[rest % size][0], neg=negs[q])

    rho = nonprofile_involution if which == "second" else offregion_involution

    # per domain walk: its key, whether its endpoint permutation is odd, and
    # its image's key, -1 for an image that `strays` keeps
    keys = array("q")
    odd = bytearray()
    image_keys = array("q")
    strays: dict[int, Walk | Exception] = {}
    for e, (_, point, sign) in enumerate(endpoints):
        for p, (pos, hist) in enumerate(halves):
            for q in by_hist.get(tuple(map(sub, hist, point)), ()):
                w = Walk(d=d, pos=pos, neg=negs[q])
                if (
                    is_profile_walk(w)
                    if which == "second"
                    else translated_exit(w) is None
                ):
                    continue
                try:
                    image = rho(w, r)
                except Exception as exc:  # noqa: BLE001 - a refusal is a failed audit
                    image = exc
                key = -1 if isinstance(image, Exception) else family_key(image)
                if key < 0:
                    strays[len(keys)] = image
                keys.append((e * size + p) * size + q)
                odd.append(sign < 0)
                image_keys.append(key)

    def image_walk(k: int) -> Walk | Exception:
        """Domain walk k's image, or what the involution raised on it."""
        return strays[k] if image_keys[k] < 0 else walk_at(image_keys[k])

    closure_failures = 0
    sign_failures = 0
    self_inverse_failures = 0
    fixed_points = 0
    witness = None

    def note(k, why):
        nonlocal witness
        if witness is None:
            witness = f"walk {walk_at(keys[k]).to_text()}: {why}"

    for k, key in enumerate(image_keys):
        # the image's domain index; a stray's key -1 is found nowhere
        j = bisect_left(keys, key)
        if j == len(keys) or keys[j] != key:
            closure_failures += 1
            if witness is None:
                image = image_walk(k)
                if isinstance(image, Exception):
                    note(k, f"involution raised {image!r}")
                else:
                    note(k, f"image {image.to_text()} left the domain")
            continue
        if j == k:
            fixed_points += 1
            note(k, "fixed point")
            continue
        if odd[j] == odd[k]:
            sign_failures += 1
            note(k, "endpoint permutation sign did not flip")
        if image_keys[j] == keys[k]:
            continue
        self_inverse_failures += 1
        if witness is None:
            back = image_walk(j)
            if isinstance(back, Exception):
                note(k, f"rho(rho(w)) raised {back!r}")
            else:
                note(k, f"rho(rho(w)) = {back.to_text()} differs")

    signed_total = len(odd) - 2 * odd.count(1)
    methods = {
        "domain_size": len(odd),
        "signed_total": signed_total,
        "closure_failures": closure_failures,
        "sign_flip_failures": sign_failures,
        "self_inverse_failures": self_inverse_failures,
        "fixed_points": fixed_points,
    }
    passed = (
        signed_total == 0
        and closure_failures == 0
        and sign_failures == 0
        and self_inverse_failures == 0
        and fixed_points == 0
    )
    params = {"n": n, "r": r, "d": d}
    return _report(f"involution-{which}", params, methods, passed, witness, started)


# the marks of the profile side of `audit_bijections`: an image not yet
# enumerated, one whose lift the lift side has verified, and one enumerated
_UNVERIFIED, _VERIFIED, _SEEN = range(3)


def _word_end(word: tuple[int, ...], d: int) -> tuple[int, ...]:
    """The endpoint of a half-walk: its direction histogram."""
    return endpoint(Walk(d=d, pos=word, neg=()))


def audit_bijections(
    n: int, r: int, d: int, budget: int | None = DEFAULT_BUDGET
) -> VerificationReport:
    """Two-sided audit of the three structural bijections at one (n, r, d):

    1. lifting to configurations then applying RSK lands exactly on the
       equal-shape tableau pairs with <= d columns and strict block descents;
    2. those pairs correspond to the closed reversed-family walks staying in
       the dominance region;
    3. prefix-profile walks: the profile map sends bounded configurations
       exactly onto the restricted walks that look like prefix profiles, with
       the crossing pairing as two-sided inverse.

    The lift side does not depend on d.  It is one table per (n, r)
    (`_lift_table`): the lifts, their largest planar matchings in a
    bytearray, and one facts slot per lift that `_lift_facts` fills the
    first time some d bounds that lift.  The audit reads the bounded lifts
    from the table twice, for the RSK checks and for the profile marks, and
    replays their notes.  The other side (tableaux, region halves, profile
    walks) is enumerated afresh here.

    Both sides of bijection 2 are unions of squares: the pairs are G x G
    over the tableaux G of each shape, and the region walks are
    H x reversed(H) over the region halves H of each endpoint
    (`region_halves`).  They are compared one factor at a time, so neither
    product is built, and their sizes are sums of squares.  A tableau,
    region half or profile walk enumerated twice is noted by name.  Beyond
    the lift table the audit holds the tableaux grouped by shape, their
    column words, the region halves, a set of the bounded lifts' pairs and
    one dict from each bounded lift's image key to its mark.
    """
    started = time.perf_counter()
    check_count_params(n, r, d)
    m = n * r
    require_budget(
        enumeration_cost(n, r) + factorial(m) * (m + 1), budget, "bijection audit"
    )

    failures = 0
    witness = None

    def note(why):
        nonlocal failures, witness
        failures += 1
        if witness is None:
            witness = why

    table = _lift_table(n, r)
    configurations = 0

    # --- RSK image characterization
    pairs_from_graphs = set()
    for k, size in enumerate(table.sizes):
        if size > d:
            continue
        configurations += 1
        facts = table.facts[k]
        if facts is None:
            facts = table.facts[k] = _lift_facts(table.lifts[k], n, r)
        if facts.pair is None:
            note(facts.rsk_notes[0])
            continue
        if facts.pair[0].column_count > d:
            note(f"configuration {table.lifts[k]}: more than {d} columns")
        for why in facts.rsk_notes:
            note(why)
        pairs_from_graphs.add(facts.pair)
    if len(pairs_from_graphs) != configurations:
        note("tableau-pair map is not injective")

    by_shape: dict[tuple[int, ...], set] = {}
    for t in iter_block_tableaux(n, r, d, "matching"):
        group = by_shape.setdefault(t.shape, set())
        if t in group:
            note(f"tableau {t.to_text()} enumerated twice")
        group.add(t)
    pair_count = sum(len(group) ** 2 for group in by_shape.values())
    # the pairs via graphs are the pairs of G x G iff each lies in G x G for
    # its shape and there are as many
    if len(pairs_from_graphs) != pair_count or not all(
        p in (shape_group := by_shape.get(p.shape, ())) and q in shape_group
        for p, q in pairs_from_graphs
    ):
        note(
            f"pair sets differ: {pair_count} direct vs "
            f"{len(pairs_from_graphs)} via graphs"
        )

    # --- pairs <-> region-staying closed walks
    # the pair walks of a group are closed iff its column words share one
    # endpoint, and they are the region walks iff each group's words are
    # the region halves at that endpoint
    halves = {}
    for end, group in region_halves(n, r, d).items():
        distinct = halves[end] = set()
        for half in group:
            if half in distinct:
                note(f"region half {half} enumerated twice")
            distinct.add(half)
    region_count = sum(len(group) ** 2 for group in halves.values())
    words_at = {}
    word_pairs = 0
    for group in by_shape.values():
        words = {column_word(t) for t in group}
        word_pairs += len(words) ** 2
        first = next(iter(words))
        end = _word_end(first, d)
        for word in words:
            if _word_end(word, d) != end:
                walk = column_words_walk(first, word, d)
                note(f"pair walk {walk.to_text()} is not closed")
                break
        words_at[end] = words
    if words_at != halves or word_pairs != region_count:
        note(
            f"walk sets differ: {word_pairs} from pairs vs "
            f"{region_count} enumerated"
        )
    # a region walk has a pair iff both its halves are column words of
    # tableaux in their shape's group
    for half in chain.from_iterable(halves.values()):
        try:
            t = tableau_from_column_word(half, d)
        except ValueError as exc:
            note(f"region half {half} is no column word: {exc}")
            break
        if t not in by_shape.get(t.shape, ()):
            walk = Walk(d=d, pos=half, neg=half[::-1])
            note(f"region walk {walk.to_text()} has no matching pair")
            break

    # --- profile walks
    # (left, right) of each image -> its mark.  An image is verified when
    # some lift with that image has no profile notes: `_lift_facts` ran the
    # profile test and the crossing pairing on the same halves, and building
    # the image at d bounds its lift's largest planar matching,
    # max(facts.image[0]), by d
    marks: dict[tuple, int] = {}
    for facts, size in zip(table.facts, table.sizes):
        if size > d:
            continue
        for why in facts.profile_notes:
            note(why)
        if facts.profile_notes:
            marks.setdefault(facts.image, _UNVERIFIED)
        else:
            marks[facts.image] = _VERIFIED
    if len(marks) != configurations:
        note("profile map is not injective")
    extras = set()
    for w in iter_profile_walks(n, r, d):
        key = (w.pos, w.neg)
        mark = marks.get(key)
        if mark == _SEEN or mark is None and key in extras:
            note(f"profile walk {w.to_text()} enumerated twice")
            continue
        if mark is None:
            extras.add(key)
        else:
            marks[key] = _SEEN
            if mark == _VERIFIED:
                continue
        if not is_profile_walk(w):
            note(f"enumerated walk {w.to_text()} fails the profile test")
        config = crossing_pairing(w)
        if not config.is_complete:
            note(f"profile walk {w.to_text()} is not closed")
            continue
        prof = planar_matching_profile(config.as_permutation())
        if prof.largest > d:
            note(f"profile walk {w.to_text()} maps outside the bounded family")
            continue
        # the profile walk of the lift, as `profile_walk` builds it
        if Walk(d=w.d, pos=prof.left, neg=prof.right) != w:
            note(f"profile round trip failed for {w.to_text()}")
    seen = sum(mark == _SEEN for mark in marks.values())
    profile_count = seen + len(extras)
    if extras or seen != len(marks):
        note(
            f"profile-walk sets differ: {profile_count} enumerated vs "
            f"{len(marks)} images"
        )

    methods = {
        "configurations": configurations,
        "tableau_pairs": pair_count,
        "region_walks": region_count,
        "profile_walks": profile_count,
        "failures": failures,
    }
    sizes = {configurations, pair_count, region_count, profile_count}
    passed = failures == 0 and len(sizes) == 1
    params = {"n": n, "r": r, "d": d}
    return _report("bijections", params, methods, passed, witness, started)
