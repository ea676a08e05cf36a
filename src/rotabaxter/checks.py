"""Exact verification (or refutation with witness) of operator identities.

The sign convention is fixed once, here, and every other identity in
the package is implemented against it:

    R(x)R(y) + λ·R(xy) = R(R(x)·y + x·R(y))          (weight λ)

A check sweeps the tuples of a domain: every basis tuple of a
:class:`~rotabaxter.algebra.BasisWindow` (exact for all elements
supported in the window, by multilinearity) or the reproducible random
tuples of a :class:`~rotabaxter.algebra.RandomSample`.  Sweeps are
deterministic, so a failing witness is reproducible byte for byte; the
first tuple in sweep order that violates the identity becomes the witness.  Every sweep, of one
identity or of several that share work per tuple (such as the axioms of
one dendriform structure), runs in a :class:`SharedPass`, the one loop
that compares sides and builds a witness; each identity still gets the
report of a sweep of its own.  Every identity is evaluated on term
dicts, and elements are built only for a witness.

Every identity checked here is multilinear in its element slots, and
every intermediate of its two sides (R(x), xy, R(x)y + xR(y), a ≺ b,
...) is homogeneous in each slot.  So for nonzero integers d_i both
sides at (d_1·x_1, ..., d_n·x_n) are those at (x_1, ..., x_n) times
d_1···d_n: the verdict is the same, and so is the support of every
intermediate, hence every error.  A random tuple is therefore swept as
its denominator-cleared multiple (:func:`_cleared`), each element x with
a non-integer coefficient replaced by d·x for d the lcm of its
denominators, so its products and operator images run on ``int``
coefficients.  A witness is still the tuple as drawn: its sides are the
cleared ones divided by d_1···d_n, exactly.  Only the inputs are
cleared: an operator with non-integer matrix entries, or a rational
weight, still brings ``Fraction`` arithmetic into a sweep.

A basis sweep visits and evaluates only the first tuple of each verdict
key (:func:`_basis_key`), and takes each tuple's count from its place in
sweep order and the count of a passing sweep from the window's size.
Tuples with equal keys have the same verdict, and raise the same error
if any, so the first failing tuple in sweep order is the first of its
key: the verdict, the tuple count, the witness and any error are those
of the full sweep.  There are two keys, and random tuples get neither.

The sign pattern, on a Laurent-type algebra, for an operator built by
scale, sum and compose from ``id`` and the truncations ``ms``,
``ms-opp`` and ``shift:r`` (:func:`~rotabaxter.operators.thresholds`).
Such an operator maps z^e to c(e)·z^e, where c(e) depends only on which
of its cuts t have e ≤ t.  On (z^a, z^b) each side of a pair identity is
then a scalar times z^(a+b), and both scalars depend only on c(a), c(b)
and c(a+b).  On (z^a, z^b, z^c) each side of a dendriform axiom of a
splitting of such an operator is a scalar times z^(a+b+c), fixed by the
sides of a, b, c, a+b, b+c and a+b+c (see :mod:`rotabaxter.dendriform`).
The key is the side of every cut for each of these contiguous sums.  On
any window, ``rbr`` of ``ms`` evaluates at most 6 pairs, and the ``tri``
axioms of its splitting at most 24 triples.

The first tuple of each sign pattern is found without visiting the
others.  Along the last member, with the members before it fixed, a side
can change only where that member, or a contiguous sum ending in it,
crosses a cut.  So the key is constant on the runs between those places,
and the first tuple of a key starts a run: its last member is the
window's start, or the first exponent past t − s, for a cut t and s such
a sum less the member, found by bisecting the window's exponents.  Each
earlier member of a first tuple is likewise the least value its pattern
allows given the members before it, but a sum that holds later members
bounds it too, by a cut less what those members can at most add: that
least value is a longest path in the pattern's difference constraints
(:func:`_least_members`).  So a sweep visits a few tuples per cut,
however wide the window: 72 triples for the ``tri`` axioms of ``ms``.

Otherwise the transposition key, the sorted pair, on a commutative
algebra (``Algebra.commutative``: Laurent-type ones, and a
finite-dimensional one whose table is symmetric).  Each side of an
identity of :data:`IDENTITIES` at (y, x) is its side at (x, y), since
xy = yx, R(x)y = yR(x), and so on; for ``lie-modified`` both sides only
change sign.  The same holds for the product of an image-closure pair,
keyed on positions in the image basis.  The operator sees the same
inputs on both, so one raises when the other does.  Basis order is key
order, so of n² pairs the n(n + 1)/2 with a ≤ b are evaluated.  The key
applies only where the product is the algebra's own: never to the
dendriform axioms, or to ``rbr.on.*``, whose ≺ and ≻ do not commute.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from fractions import Fraction
from math import prod

from .algebra import (
    Algebra,
    BasisWindow,
    DomainSpec,
    Element,
    RandomSample,
    add_terms,
    clean_terms,
    scale_terms,
)
from .algebras import FiniteAlgebra, LaurentAlgebra
from .errors import InvalidDomainError, UnsupportedDomainError
from .operators import WeightedOperator, opposite_of, thresholds
from .rationals import as_rational, div, integral
from .report import CheckReport, Witness


def _element(algebra: Algebra, terms: dict, d: int) -> Element:
    """The element terms/d of ``algebra``, exactly."""
    return Element._trusted(algebra, terms if d == 1 else {k: div(c, d) for k, c in terms.items()})


class SharedPass:
    """One sweep of a tuple stream that decides several identities together.

    ``indexed`` yields ``(index, item)`` pairs in sweep order, the index
    counting the tuples of the sweep up to and including the item's, and
    ``total`` is the number of tuples of the whole sweep (:func:`_stream`
    makes both, and ``prepare``, for a domain).  ``prepare(item)`` returns
    ``(tuple, args, d)``: the tuple of elements the item names, the work
    the identities of the tuple share, done once per tuple, and the factor
    that a witness's sides are divided by.  ``identities`` maps an id to
    its ``sides(*args) -> (lhs, rhs)``, two term dicts of the tuple's
    algebra.  The sides agree when they are the same object or compare
    equal; two differing dicts are compared again as elements, which
    drops their zeros, and only a witness builds elements from them.  An
    identity is decided at its first witness, with the index of its tuple
    as its count, or with ``total`` at the end of the stream, and then
    drops out of the pass.

    :meth:`outcome` advances the pass only until the identity asked for is
    decided; the identities decided on the way keep their witness and
    tuple count for their own calls.  So each identity gets the outcome of
    a sweep of its own, while the shared work of a tuple is done once.
    """

    def __init__(self, indexed, total: int, prepare, identities: dict):
        self._indexed = iter(indexed)
        self._total = total
        self._prepare = prepare
        self._open = list(identities.items())
        self._decided: dict = {}  # id -> (witness or None, tuples swept)

    def outcome(self, check_id: str) -> tuple:
        """The first witness of ``check_id`` (or None) and the number of
        tuples swept up to and including it."""
        decided = self._decided
        if check_id in decided:
            return decided[check_id]
        prepare, open_sides = self._prepare, self._open
        for count, item in self._indexed:
            tup, args, d = prepare(item)
            for i, sides in open_sides:
                lhs, rhs = sides(*args)
                if lhs is not rhs and lhs != rhs:
                    algebra = tup[0].algebra
                    lhs, rhs = _element(algebra, lhs, d), _element(algebra, rhs, d)
                    if lhs == rhs:
                        continue
                    decided[i] = Witness(tup, lhs, rhs, lhs - rhs), count
                    # rebinding leaves this tuple's loop on the list it started with
                    open_sides = [(j, s) for j, s in open_sides if j not in decided]
            if check_id in decided:
                break
        else:
            decided.update((i, (None, self._total)) for i, _ in open_sides)
            open_sides = []
        self._open = open_sides
        return decided[check_id]


def sweep_identity(check_id: str, algebra: Algebra, operator_desc: str,
                   weight: Fraction | None, dom: DomainSpec, shared: SharedPass,
                   notes: tuple = ()) -> CheckReport:
    """The report of ``check_id``, decided by ``shared``, a
    :class:`SharedPass` over the tuples of ``dom``."""
    witness, count = shared.outcome(check_id)
    return CheckReport(
        check=check_id,
        algebra=algebra.describe(),
        operator=operator_desc,
        weight=weight,
        domain=dom.describe(algebra),
        tuples=count,
        witness=witness,
        notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# Identity residuals.  A factory takes a product ``mul`` and an operator ``R``
# on term dicts, and the weight λ, and returns sides(x, y) -> (lhs, rhs) on the
# term dicts of two elements; no dict that is a side or goes to R holds a
# zero, and R's images, which may be its cached ones, are only read.


def _rota_baxter_form(mul, R, lam: Fraction, T):
    """R(x)R(y) + λ·T(xy) = R(R(x)y + xR(y))."""
    def sides(x, y):
        rx, ry = R(x), R(y)
        return (add_terms(mul(rx, ry), scale_terms(lam, T(clean_terms(mul(x, y))))),
                R(add_terms(mul(rx, y), mul(x, ry))))

    return sides


def rbr_sides(mul, R, lam: Fraction):
    """R(x)R(y) + λ·R(xy) = R(R(x)y + xR(y))."""
    return _rota_baxter_form(mul, R, lam, R)


def nijenhuis_sides(mul, N, lam: Fraction):
    """N(x)N(y) + λ·N²(xy) = N(N(x)y + xN(y))."""
    return _rota_baxter_form(mul, N, lam, lambda terms: N(N(terms)))


def modified_rbr_sides(mul, B, lam: Fraction):
    """B(x)B(y) = B(B(x)y + xB(y)) − λ²xy."""
    minus_lam2 = -lam * lam

    def sides(x, y):
        bx, by = B(x), B(y)
        return (clean_terms(mul(bx, by)),
                add_terms(B(add_terms(mul(bx, y), mul(x, by))),
                          scale_terms(minus_lam2, mul(x, y))))

    return sides


def lie_modified_sides(mul, B, lam: Fraction):
    """The modified relation in the commutator [a,b] = ab − ba:
    [B(x),B(y)] = B([B(x),y] + [x,B(y)]) − λ²[x,y]."""
    return modified_rbr_sides(lambda a, b: add_terms(mul(a, b), scale_terms(-1, mul(b, a))),
                              B, lam)


# name -> sides factory taking (mul, R, lam); every identity takes two elements
IDENTITIES = {
    "rbr": rbr_sides,
    "modified-rbr": modified_rbr_sides,
    "nijenhuis": nijenhuis_sides,
    "lie-modified": lie_modified_sides,
}


def _basis_key(algebra: Algebra, cuts, arity: int, lo: int, hi: int, transposable: bool):
    """The verdict key (see the module docstring) of a tuple of ``arity``
    (2 or 3) members of the basis window [lo, hi], as a function of the
    members' basis keys, or positions in an image basis, passed as
    separate arguments.  The sign pattern when the algebra is Laurent-type
    and ``cuts`` are known: the side of each exponent a sum can take is
    found once, so a key costs a few lookups.  Otherwise the sorted pair,
    for a ``transposable`` pair on a commutative algebra; otherwise None."""
    if cuts is None or not isinstance(algebra, LaurentAlgebra):
        if transposable and algebra.commutative:
            return lambda a, b: (a, b) if a <= b else (b, a)
        return None
    cuts = sorted(cuts)
    side = {e: bisect_left(cuts, e) for e in range(min(lo, arity * lo), max(hi, arity * hi) + 1)}
    if arity == 2:
        return lambda a, b: (side[a], side[b], side[a + b])
    return lambda a, b, c: (side[a], side[b], side[c], side[a + b], side[b + c], side[a + b + c])


def _first_of_keys(algebra: Algebra, cuts, arity: int, keys: list, transposable: bool,
                   seen: set | None = None):
    """``(index, positions)`` of the first tuple of each verdict key
    (:func:`_basis_key`) among the ``arity``-tuples of the window whose
    members have the sorted basis keys ``keys``, in the sweep order of
    ``itertools.product(range(len(keys)), repeat=arity)``; ``index`` is
    the tuple's place in that order, counted from 1.  Only tuples that can
    be first are visited: for the sign pattern, each member at one of its
    candidates (:func:`_least_members`) given the members before it; for
    the transposition key, the pairs p <= q.  A key in ``seen`` was met
    before, and each key met is added to it.  Every tuple when no key
    applies."""
    n = len(keys)
    key = _basis_key(algebra, cuts, arity, min(keys, default=0), max(keys, default=0),
                     transposable)
    if key is None:
        return enumerate(itertools.product(range(n), repeat=arity), 1)
    if cuts is None or not isinstance(algebra, LaurentAlgebra):
        candidates = ((p * n + q + 1, (p, q)) for p in range(n) for q in range(p, n))
        return candidates if seen is None else _unseen(candidates, key, keys, seen)
    least = _least_members(sorted(cuts), arity, keys[0], keys[-1])
    found, seen = [], set() if seen is None else seen

    def visit(index: int, positions: tuple, members: list, sums: list) -> None:
        # sums[i] is the sum of the first i members; the next member's
        # candidates are its least values, in order
        j, s = len(positions), sums[-1]
        candidates = {bisect_left(keys, sums[i] + w - s) for i, w in least[j]}
        candidates.discard(n)
        for p in sorted(candidates):
            if j + 1 < arity:
                visit(index * n + p, positions + (p,), members + [keys[p]],
                      sums + [s + keys[p]])
            else:
                k = key(*members, keys[p])
                if k not in seen:
                    seen.add(k)
                    found.append((index * n + p + 1, positions + (p,)))

    visit(0, (), [], [0])
    return iter(found)


def _unseen(indexed, key, keys: list, seen: set):
    """The items of ``indexed`` whose key is not in ``seen``, which gets it."""
    for index, positions in indexed:
        k = key(*[keys[p] for p in positions])
        if k not in seen:
            seen.add(k)
            yield index, positions


def _least_members(cuts: list, arity: int, lo: int, hi: int) -> list:
    """Where the first tuple of a sign pattern can put each member, for
    ``arity`` members taken from the consecutive exponents [lo, hi].

    Write S_i for the sum of the first i members, S_0 = 0.  A sign pattern
    bounds each contiguous sum S_v − S_u by the cuts around it, as
    S_v − S_u >= t + 1 or S_v − S_u <= t for cuts t, and each member lies
    in [lo, hi].  These are difference constraints with integer bounds:
    with the members before member j fixed, the least S_(j+1) over the
    pattern's tuples is the longest path to it from a fixed S_i through
    later S only, in the graph with an edge u -> v of weight b for each
    bound S_v − S_u >= b (a bound S_v − S_u <= t is the edge v -> u of
    weight −t).  The first tuple of the pattern in sweep order holds, for
    each j in turn, the least member j given the members before it.  A
    path's weight is a sum of cuts, cuts plus 1, lo and −hi, whatever the
    pattern, so entry j lists the pairs (i, w) of a fixed S_i and a path
    weight w, and member j's candidates are S_i + w − S_j: lo, the
    window's start, among them.  On the last member they are the run
    starts of the module docstring."""
    nodes = range(arity + 1)
    # the weights each edge u -> v can have
    bounds = {(u, v): ({t + 1 for t in cuts} | ({lo} if v == u + 1 else set())) if u < v
              else ({-t for t in cuts} | ({-hi} if u == v + 1 else set()))
              for u in nodes for v in nodes if u != v}
    least = []
    for j in range(arity):
        target, weights = j + 1, set()
        # (fixed start, last node, later nodes passed, weights so far)
        paths = [(i, i, set(), {0}) for i in range(target)]
        while paths:
            start, node, passed, total = paths.pop()
            for step in set(range(target, arity + 1)) - passed:
                reached = {w + b for w in total for b in bounds[node, step]}
                if step == target:
                    weights.update((start, w) for w in reached)
                else:
                    paths.append((start, step, passed | {step}, reached))
        least.append(sorted(weights))
    return least


def _on_positions(basis: list):
    """``prepare`` of a :class:`SharedPass` whose items are positions in
    ``basis``: the basis elements, their term dicts, and 1."""
    def prepare(positions):
        tup = tuple(basis[p] for p in positions)
        return tup, [x.terms for x in tup], 1

    return prepare


def _cleared(tup: tuple) -> tuple:
    """``prepare`` of a :class:`SharedPass` over random tuples: the tuple
    as drawn, its elements' cleared numerators (``integral(x.terms)[0]``)
    and the product of their denominators (see the module docstring)."""
    cleared = [integral(x.terms) for x in tup]
    return tup, [terms for terms, _ in cleared], prod(d for _, d in cleared)


def _stream(algebra: Algebra, dom: DomainSpec, arity: int, cuts=None,
            transposable: bool = False) -> tuple:
    """``(indexed, total, prepare)`` of a :class:`SharedPass` over the
    ``arity``-tuples of ``dom``: over a basis window, the first tuple of
    each verdict key (:func:`_first_of_keys`), as positions in the
    window's basis; over a random sample, every tuple as drawn, swept
    denominator-cleared."""
    if isinstance(dom, RandomSample):
        return enumerate(dom.tuples(algebra, arity), 1), dom.samples, _cleared
    basis = dom.basis(algebra)
    return (_first_of_keys(algebra, cuts, arity, [k for x in basis for k in x.terms],
                           transposable),
            len(basis) ** arity, _on_positions(basis))


def _term_sides(identity: str, algebra: Algebra, op: WeightedOperator, lam):
    """The sides of an identity on the term dicts of a pair."""
    if identity not in IDENTITIES:
        raise InvalidDomainError(f"unknown identity {identity!r}")
    return IDENTITIES[identity](algebra.multiply_terms, op.on_terms(algebra), as_rational(lam))


# ---------------------------------------------------------------------------
# Public checks


def check(identity: str, algebra: Algebra, op: WeightedOperator, lam: Fraction,
          dom: DomainSpec) -> CheckReport:
    """Sweep one of the :data:`IDENTITIES` at weight ``lam`` over ``dom``;
    a basis window visits one pair per verdict key (see the module
    docstring)."""
    sides = _term_sides(identity, algebra, op, lam)
    shared = SharedPass(*_stream(algebra, dom, 2, thresholds(op.expr), True),
                        {identity: sides})
    return sweep_identity(identity, algebra, op.describe(), lam, dom, shared)


def check_rbr(algebra: Algebra, op: WeightedOperator, lam: Fraction,
              dom: DomainSpec) -> CheckReport:
    return check("rbr", algebra, op, lam, dom)


def check_modified_rbr(algebra: Algebra, op: WeightedOperator, lam: Fraction,
                       dom: DomainSpec) -> CheckReport:
    return check("modified-rbr", algebra, op, lam, dom)


def check_nijenhuis(algebra: Algebra, op: WeightedOperator, lam: Fraction,
                    dom: DomainSpec) -> CheckReport:
    return check("nijenhuis", algebra, op, lam, dom)


def check_lie_modified(algebra: Algebra, op: WeightedOperator, lam: Fraction,
                       dom: DomainSpec) -> CheckReport:
    return check("lie-modified", algebra, op, lam, dom)


def check_idempotent(algebra: Algebra, op: WeightedOperator,
                     dom: DomainSpec) -> CheckReport:
    R = op.on_terms(algebra)

    def sides(x):
        rx = R(x)
        return R(rx), rx

    shared = SharedPass(*_stream(algebra, dom, 1), {"idempotent": sides})
    return sweep_identity("idempotent", algebra, op.describe(), None, dom, shared)


# ---------------------------------------------------------------------------
# Image closure (the decomposition consequence): im(R) and im(λ·id − R)
# must both be closed under the product.


def _rref(rows: list) -> tuple:
    """Reduced row echelon form over the rationals; returns the nonzero
    rows and their pivot columns."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [div(v, pv) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _reduce_against(basis_rows: list, pivots: list, vec: list) -> list:
    vec = list(vec)
    for row, c in zip(basis_rows, pivots):
        f = vec[c]
        if f != 0:
            vec = [a - f * b for a, b in zip(vec, row)]
    return vec


def _span_image(algebra: FiniteAlgebra, weighted: WeightedOperator) -> tuple:
    """A basis of the span of the weighted(e_j), and sides that reduce a
    product of two of them against that span."""
    n = algebra.dimension
    rows, pivots = _rref([weighted(algebra.basis_element(j)).coords() for j in range(n)])

    def sides(x, y):
        xy = algebra.multiply_terms(x, y)
        remainder = _reduce_against(rows, pivots, [xy.get(i, 0) for i in range(n)])
        if any(remainder):
            return xy, add_terms(xy, {i: -c for i, c in enumerate(remainder) if c})
        return xy, xy

    return [algebra.from_coords(row) for row in rows], sides, f"rank {len(rows)}"


def _fixed_image(algebra: LaurentAlgebra, weighted: WeightedOperator,
                 dom: BasisWindow) -> tuple:
    """The window monomials fixed by ``weighted``, which must map every
    other window monomial to zero, and the fixed-point sides."""
    kept = []
    for mono in dom.basis(algebra):
        image = weighted(mono)
        if image == mono:
            kept.append(mono)
        elif not image.is_zero:
            raise UnsupportedDomainError(
                f"operator is not an idempotent monomial projector "
                f"on the window: maps {mono} to {image}")
    W = weighted.on_terms(algebra)

    def sides(x, y):
        xy = clean_terms(algebra.multiply_terms(x, y))
        return xy, W(xy)

    return kept, sides, f"rank {len(kept)} on window"


def check_image_closure(algebra: Algebra, op: WeightedOperator,
                        dom: DomainSpec | None = None) -> CheckReport:
    """im(R) and im(λ·id − R) are closed under multiplication.

    Both images are found before any product is tested, each as a basis
    and the sides of a product of two basis elements, which must agree.
    Finite-dimensional algebras: the basis is the exact row reduction of
    the images of the basis elements, and a product must have no
    remainder against it.  Laurent-type algebras need a window (``dom``)
    and an operator acting diagonally and idempotently on the swept
    monomials; its image is then the fixed subspace, and a product must
    be fixed.  Random-mode domains are refused for both kinds.  Pairs of
    positions in the image basis are keyed (see the module docstring).
    """
    if isinstance(dom, RandomSample):
        raise UnsupportedDomainError(
            "image closure is swept on basis images, not random samples")
    if isinstance(algebra, FiniteAlgebra):
        domain = {"mode": "image-basis-pairs"}
        images = [_span_image(algebra, w) for w in (op, opposite_of(op))]
    elif isinstance(algebra, LaurentAlgebra):
        if dom is None:
            raise UnsupportedDomainError(
                "image closure on a Laurent-type algebra needs an exponent window")
        domain = dom.describe(algebra)
        images = [_fixed_image(algebra, w, dom) for w in (op, opposite_of(op))]
    else:
        raise UnsupportedDomainError(
            f"image closure is not defined on {algebra.describe()}")
    total = 0
    notes = []
    for tag, (basis, sides, rank) in zip(("im(R)", "im(opposite)"), images):
        n = len(basis)
        firsts = _first_of_keys(algebra, None, 2, list(range(n)), True)
        witness, count = SharedPass(firsts, n * n, _on_positions(basis),
                                    {tag: sides}).outcome(tag)
        total += count
        notes.append(f"{tag} {rank}")
        if witness is not None:
            notes.append(f"{tag} not closed")
            break
    return CheckReport(
        check="image-closure", algebra=algebra.describe(),
        operator=op.describe(), weight=op.weight, domain=domain,
        tuples=total, witness=witness, notes=tuple(notes))


# ---------------------------------------------------------------------------
# Witness search


def find_violation(algebra: Algebra, identity: str, op: WeightedOperator,
                   lam: Fraction, max_range: int = 4) -> Witness | None:
    """Deterministic witness search: basis tuples in expanding windows
    [-k, k] in lexicographic order.  Returns the first witness, or None
    within budget."""
    return violation_report(algebra, identity, op, lam, max_range).witness


def violation_report(algebra: Algebra, identity: str, op: WeightedOperator,
                     lam: Fraction, max_range: int = 4) -> CheckReport:
    """Report form of :func:`find_violation`: status "fail" plus witness
    when the search succeeds, "pass" when the budget is exhausted.  The
    search sweeps the distinct basis windows [-k, k] for
    k = 0..max_range, and nothing else: every identity is multilinear and
    every operator linear, so the basis pairs of a window decide the
    identity for all elements supported there, and no element drawn
    inside the last window could add a witness.  Pairs are keyed as in
    :func:`check`, one window at a time with one set of keys for the whole
    search, so a pair that an earlier window decided is counted again but
    not visited; a pair's count adds the sizes of the earlier windows.
    The ``domain`` records ``samples`` and ``seed`` as 0, so that its keys
    stay those of the reports pinned in the ``paper-all`` output."""
    if max_range < 0:
        raise InvalidDomainError(f"negative search range {max_range}")
    sides = _term_sides(identity, algebra, op, lam)
    cuts, seen = thresholds(op.expr), set()
    witness, swept = None, 0
    # windows are nested, so the windows with one set of keys are consecutive
    for keys, _ in itertools.groupby(algebra.basis_keys(-k, k) for k in range(max_range + 1)):
        basis = [algebra.basis_element(e) for e in keys]
        witness, count = SharedPass(_first_of_keys(algebra, cuts, 2, keys, True, seen),
                                    len(keys) ** 2, _on_positions(basis),
                                    {identity: sides}).outcome(identity)
        swept += count
        if witness is not None:
            break
    domain = {"mode": "expanding-search", "max_range": max_range,
              "samples": 0, "seed": 0}
    note = ("witness found by expanding search",) if witness is not None \
        else ("no witness within budget",)
    return CheckReport(
        check=f"violate({identity})", algebra=algebra.describe(),
        operator=op.describe(), weight=lam, domain=domain,
        tuples=swept, witness=witness, notes=note)
