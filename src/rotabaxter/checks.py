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
its denominator-cleared multiple, each element x with a non-integer
coefficient replaced by d·x for d the lcm of its denominators, so its
products and operator images run on ``int`` coefficients.  A witness
is still the tuple as drawn: its sides are the cleared ones divided by
d_1···d_n, exactly.  Only the inputs are cleared: an operator with
non-integer matrix entries, or a rational weight, still brings
``Fraction`` arithmetic into a sweep.

A basis sweep evaluates the first tuple of each verdict key
(:func:`_basis_key`) only, and counts every tuple.  Tuples with equal
keys have the same verdict, and raise the same error if any, so the
first failing tuple in sweep order is the first of its key: the verdict,
the tuple count, the witness and any error are those of the full sweep.
There are two keys, and random tuples get neither.

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
    RandomTuples,
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

    ``identities`` maps an id to its ``sides(*args) -> (lhs, rhs)``, two
    term dicts of the tuple's algebra; without ``prepare``, ``args`` are
    the term dicts of the tuple's elements.  With ``prepare``, the stream
    may yield any item that names a tuple, such as its positions in a
    basis, and ``prepare(item)`` returns ``(tuple, args)``: ``args`` is the
    work the identities of a tuple share, done once per tuple.  The sides
    agree when they are the same object or compare equal; two differing
    dicts are compared again as elements, which drops their zeros, and
    only a witness builds elements from them.  An identity is decided at
    its first witness, or at the end of the stream, and then drops out of
    the pass.

    :meth:`outcome` advances the pass only until the identity asked for is
    decided; the identities decided on the way keep their witness and
    tuple count for their own calls.  So each identity gets the outcome of
    a sweep of its own, while the shared work of a tuple is done once.
    ``prepare`` may keep work between tuples too: the dendriform passes
    in basis mode number their values and keep each product's value on a
    pair of numbers.

    Over :class:`RandomTuples`, the sides and ``prepare`` see the cleared
    numerators ``integral(x.terms)[0]`` of each tuple's elements, and a
    witness is divided back onto the tuple as drawn.

    With ``key``, an item whose ``key(item)`` was met before is counted
    but not evaluated.  The caller guarantees that items with equal keys
    have the same verdict, and raise the same error if any, under every
    identity of the pass.  A witness is then always the first item of its
    key, which is evaluated, so the witnesses, tuple counts and errors
    are those of a pass that evaluates every item.
    """

    def __init__(self, tuples, identities: dict, prepare=None, key=None):
        self._tuples = iter(tuples)
        self._cleared = isinstance(tuples, RandomTuples)
        if self._cleared:
            on_cleared = prepare

            def prepare(tup):
                swept = tuple(integral(x.terms)[0] for x in tup)
                return tup, swept if on_cleared is None else on_cleared(swept)[1]
        self._prepare = prepare
        self._key, self._keys_met = key, set()
        self._open = list(identities.items())
        self._decided: dict = {}  # id -> (witness or None, tuples swept)
        self._count = 0

    def outcome(self, check_id: str) -> tuple:
        """The first witness of ``check_id`` (or None) and the number of
        tuples swept up to and including it."""
        decided = self._decided
        if check_id in decided:
            return decided[check_id]
        prepare, open_sides, count = self._prepare, self._open, self._count
        key, keys_met = self._key, self._keys_met
        for item in self._tuples:
            count += 1
            if key is not None:
                k = key(item)
                if k in keys_met:
                    continue
                keys_met.add(k)
            if prepare is None:
                tup, args = item, [x.terms for x in item]
            else:
                tup, args = prepare(item)
            for i, sides in open_sides:
                lhs, rhs = sides(*args)
                if lhs is not rhs and lhs != rhs:
                    algebra = tup[0].algebra
                    d = prod(integral(x.terms)[1] for x in tup) if self._cleared else 1
                    lhs, rhs = _element(algebra, lhs, d), _element(algebra, rhs, d)
                    if lhs == rhs:
                        continue
                    decided[i] = Witness(tup, lhs, rhs, lhs - rhs), count
                    # rebinding leaves this tuple's loop on the list it started with
                    open_sides = [(j, s) for j, s in open_sides if j not in decided]
            if check_id in decided:
                break
        else:
            decided.update((i, (None, count)) for i, _ in open_sides)
            open_sides = []
        self._open, self._count = open_sides, count
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


def _pair_key(algebra: Algebra, cuts, lo: int, hi: int, transposable: bool):
    """:func:`_basis_key` on a pair of basis elements of the window [lo, hi]."""
    key = _basis_key(algebra, cuts, 2, lo, hi, transposable)
    if key is None:
        return None

    def pair_key(pair):
        (a,), (b,) = pair[0].terms, pair[1].terms
        return key(a, b)

    return pair_key


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
    a basis window evaluates one pair per verdict key (see the module
    docstring)."""
    sides = _term_sides(identity, algebra, op, lam)
    key = _pair_key(algebra, thresholds(op.expr), dom.lo, dom.hi, True) \
        if isinstance(dom, BasisWindow) else None
    shared = SharedPass(dom.tuples(algebra, 2), {identity: sides}, key=key)
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

    shared = SharedPass(dom.tuples(algebra, 1), {"idempotent": sides})
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
    order = _basis_key(algebra, None, 2, 0, 0, True)
    key = None if order is None else lambda ij: order(*ij)
    for tag, (basis, sides, rank) in zip(("im(R)", "im(opposite)"), images):
        def prepare(ij, basis=basis):
            pair = basis[ij[0]], basis[ij[1]]
            return pair, [x.terms for x in pair]

        positions = itertools.product(range(len(basis)), repeat=2)
        witness, count = SharedPass(positions, {tag: sides}, prepare, key).outcome(tag)
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
    :func:`check`, with one set of keys for the whole search, so a pair
    that an earlier window decided is counted again but not evaluated.
    The ``domain`` records ``samples`` and ``seed`` as 0, so that its keys
    stay those of the reports pinned in the ``paper-all`` output."""
    if max_range < 0:
        raise InvalidDomainError(f"negative search range {max_range}")
    sides = _term_sides(identity, algebra, op, lam)

    def tuples():
        # each window is made when the sweep reaches it; windows are nested,
        # so a window with the keys of an earlier one comes right after it
        last = None
        for k in range(max_range + 1):
            keys = algebra.basis_keys(-k, k)
            if keys != last:
                last = keys
                yield from DomainSpec.basis(-k, k).tuples(algebra, 2)

    key = _pair_key(algebra, thresholds(op.expr), -max_range, max_range, True)
    witness, count = SharedPass(tuples(), {identity: sides}, key=key).outcome(identity)
    domain = {"mode": "expanding-search", "max_range": max_range,
              "samples": 0, "seed": 0}
    note = ("witness found by expanding search",) if witness is not None \
        else ("no witness within budget",)
    return CheckReport(
        check=f"violate({identity})", algebra=algebra.describe(),
        operator=op.describe(), weight=lam, domain=domain,
        tuples=count, witness=witness, notes=note)
