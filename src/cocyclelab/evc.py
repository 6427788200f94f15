"""Essential-value certificates and the skew-product connectivity oracle.

A witness for the quantitative essential-value condition consists of a
part B of the base set and a finite-depth transformation moving B inside
the base with kernel values in the target set and derivative close to 1.
Witnesses are always re-validated from scratch before being returned, and
carry the exact slacks by which each inequality holds.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cocycles import CocycleKernel
from .errors import PostconditionFailure, SearchExhausted, SizeGuard
from .groups import Cover, Element, GroupModel, covering_number
from .measure import (ONE, ZERO, CylinderSet, ProductMeasure, index_word,
                      worst_deviation)
from .odometer import FiniteDepthMap

SKEW_BUDGET = 1 << 18  # most vertices, or extension pairs, a connectivity count walks


def target_set(model: GroupModel, g: Element, u_index: int) -> tuple:
    """The translate U g of the u_index-th identity neighborhood, as an
    explicit element tuple sorted by canonical key."""
    out = {model.key(model.mul(u, g)): model.mul(u, g)
           for u in model.neighborhood(u_index)}
    return tuple(out[k] for k in sorted(out))


def delta_for(model: GroupModel, g: Element, u_index: int) -> tuple[Fraction, Cover]:
    """The tolerance 1/(3 * covering number) attached to (g, U)."""
    cover = covering_number(model, g, u_index)
    return Fraction(1, 3 * cover.number), cover


@dataclass(frozen=True)
class WitnessValidation:
    ok: bool
    clause: Optional[str]
    detail: Optional[str]
    measure_slack: Fraction
    derivative_slack: Fraction
    membership_margin: Fraction


@dataclass(frozen=True)
class EvcWitness:
    """A validated witness: the part, the transformation, and the slacks
    by which each inequality holds.

    membership_margin is the separation of the witnessed kernel values
    from the complement of the target set; all shipped group models are
    uniformly discrete with gap 1, so it is 1 on success.
    """

    base: CylinderSet
    part: CylinderSet
    theta: FiniteDepthMap
    delta: Fraction
    target: tuple
    measure_slack: Fraction
    derivative_slack: Fraction
    membership_margin: Fraction


def validate_witness(
    kernel: CocycleKernel,
    base: CylinderSet,
    target: Sequence[Element],
    delta: Fraction,
    mu: ProductMeasure,
    part: CylinderSet,
    theta: FiniteDepthMap,
) -> WitnessValidation:
    """Re-check every clause of the condition from scratch, trusting only
    (part, theta) and the kernel itself."""
    model = kernel.model
    delta = Fraction(delta)

    def failed(clause: str, detail: str,
               measure_slack: Fraction = ZERO,
               derivative_slack: Fraction = ZERO) -> WitnessValidation:
        return WitnessValidation(False, clause, detail, measure_slack,
                                 derivative_slack, ZERO)

    if not part.difference(base).is_empty():
        return failed("part-inside", "B is not contained in A")
    image = theta.image_of(part)
    if not image.difference(base).is_empty():
        return failed("image-inside", "theta(B) is not contained in A")
    mass = part.measure(mu)
    need = delta * base.measure(mu)
    if not mass > need:
        return failed("mass", f"mu(B) = {mass} is not above {need}")
    level = max(kernel.depth, part.max_depth, theta.depth)
    table = theta.index_map(level)
    words = part.indices(level)
    # kernel words are the top kernel.depth bits of a level index; a class
    # is fixed by the bits beyond class_depth
    shift = level - kernel.depth
    tail = (1 << (level - kernel.class_depth)) - 1
    target_keys = {model.key(t) for t in target}
    for w in words:
        img = table[w]
        if (img ^ w) & tail:
            return failed("class", f"theta throws {index_word(w, level)} out "
                          "of its kernel class", mass - need)
        value = kernel.value_at(img >> shift, w >> shift)
        if model.key(value) not in target_keys:
            return failed("membership",
                          f"kernel value {model.format(value)} at "
                          f"{index_word(w, level)} is outside the target set",
                          mass - need)
    worst_derivative = worst_deviation(mu.level_masses(level)[0],
                                       ((w, table[w]) for w in words))
    if not worst_derivative < delta:
        return failed("derivative",
                      f"derivative deviation {worst_derivative} is not below "
                      f"{delta}", mass - need, delta - worst_derivative)
    return WitnessValidation(True, None, None, mass - need,
                             delta - worst_derivative, ONE)


def check_evc(
    kernel: CocycleKernel,
    base: CylinderSet,
    target: Sequence[Element],
    delta: Fraction,
    mu: ProductMeasure,
    search_depth: int = 14,
) -> EvcWitness:
    """Find and validate a witness, or raise :class:`SearchExhausted`
    with the best margins reached.

    The search assembles involutions from pairings within kernel classes
    of the base set, matching words whose kernel value lands in the
    target (grouped by potential value for coboundary kernels), largest
    measure first, at the first level that resolves the kernel and the
    base.  No deeper level reaches more mass, so none is tried.

    On a coboundary kernel the outcome is kept on the potential, keyed by
    the search's inputs, so a repeated search returns the same witness or
    raises the same exhaustion without searching again.
    """
    delta = Fraction(delta)
    target = tuple(target)
    if kernel.kind != "coboundary":
        return _search_witness(kernel, base, target, delta, mu, search_depth)
    key = (kernel.model, kernel.depth, kernel.class_depth, base,
           tuple(kernel.model.key(t) for t in target), delta, mu, search_depth)
    memo = kernel.potential._witnesses
    outcome = memo.get(key)
    if outcome is None:
        try:
            outcome = _search_witness(kernel, base, target, delta, mu,
                                      search_depth)
        except SearchExhausted as exc:
            outcome = (str(exc), exc.best)
        memo[key] = outcome
    if isinstance(outcome, EvcWitness):
        return outcome
    message, best = outcome
    raise SearchExhausted(message, best)


def _search_witness(kernel, base, target, delta, mu, search_depth) -> EvcWitness:
    """The search behind :func:`check_evc`, run once per distinct input."""
    model = kernel.model
    target_keys = {model.key(t) for t in target}
    if base.is_empty():
        raise SearchExhausted("the base set is empty", best={})

    if model.key(model.identity()) in target_keys and delta < 1:
        theta = FiniteDepthMap.identity(kernel.depth)
        check = validate_witness(kernel, base, target, delta, mu, base, theta)
        if check.ok:
            return EvcWitness(base, base, theta, delta, target,
                              check.measure_slack, check.derivative_slack,
                              check.membership_margin)

    need = delta * base.measure(mu)
    # Past this level each base word and kernel class splits by bits beyond
    # the kernel depth, which keep kernel values, derivatives and the
    # (-mass, word) order: the pairing only gains those bits, at equal mass.
    level = max(kernel.depth, base.max_depth)
    if level > search_depth:
        raise SearchExhausted(
            f"kernel depth {level} already exceeds search depth {search_depth}",
            best={"required_mass": str(need)})
    pairs, b_words, mass = _pair_search(kernel, base, target, target_keys,
                                        delta, mu, level, need)
    if not mass > need:
        raise SearchExhausted(
            f"no witness with mass above {need} within depth {search_depth}",
            best={"required_mass": str(need), "achieved_mass": str(mass)})
    theta = FiniteDepthMap.from_pairs(level, pairs)
    part = CylinderSet.from_indices(level, sorted(b_words))
    check = validate_witness(kernel, base, target, delta, mu, part, theta)
    if not check.ok:
        raise PostconditionFailure(
            check.clause or "unknown",
            f"search produced an invalid witness: {check.detail}")
    return EvcWitness(base, part, theta, delta, target, check.measure_slack,
                      check.derivative_slack, check.membership_margin)


def _pair_search(
    kernel: CocycleKernel,
    base: CylinderSet,
    target: tuple,
    target_keys: set,
    delta: Fraction,
    mu: ProductMeasure,
    level: int,
    need: Fraction,
) -> tuple[list, list, Fraction]:
    """Greedy disjoint pairing at one word level.  A pair (x, y) admits x
    into B when the kernel value of (y, x) is a target and the x-side
    derivative is within delta; both sides may qualify.  Returns (pairs,
    B-words, B-mass), words as level indices; stops early once the mass
    threshold is crossed.  A deeper level only appends bits to the words
    (see `check_evc`)."""
    masses, denominator = mu.level_masses(level)
    # a class is fixed by the bits beyond class_depth, the low ones
    tail = (1 << (level - kernel.class_depth)) - 1
    by_class: dict[int, list[int]] = {}
    for w in base.indices(level):
        by_class.setdefault(w & tail, []).append(w)
    pairs: list[tuple[int, int]] = []
    b_words: list[int] = []
    mass = 0  # numerator over the level's denominator
    for _, members in sorted(by_class.items()):
        members.sort(key=lambda w: (-masses[w], w))
        if kernel.kind == "coboundary":
            found = _match_by_value(kernel, members, target, target_keys,
                                    delta, masses, level)
        else:
            found = _match_generic(kernel, members, target_keys, delta,
                                   masses, level)
        for x, y, x_ok, y_ok in found:
            pairs.append((x, y))
            if x_ok:
                b_words.append(x)
                mass += masses[x]
            if y_ok:
                b_words.append(y)
                mass += masses[y]
        if mass * need.denominator > need.numerator * denominator:
            break
    return pairs, b_words, Fraction(mass, denominator)


def _match_generic(kernel, members, target_keys, delta, masses, level):
    """Quadratic scan; fine for the small classes of non-coboundary
    kernels.  A derivative deviation |n_y - n_x| / n_x is below delta = p/q
    when |n_y - n_x| * q < p * n_x."""
    model = kernel.model
    shift = level - kernel.depth
    p, q = delta.numerator, delta.denominator
    used: set[int] = set()
    out = []
    for i, x in enumerate(members):
        if x in used:
            continue
        nx = masses[x]
        for y in members[i + 1:]:
            if y in used:
                continue
            forward = kernel.value_at(y >> shift, x >> shift)
            ny = masses[y]
            gap = abs(ny - nx) * q
            x_ok = model.key(forward) in target_keys and gap < p * nx
            y_ok = (model.key(model.inv(forward)) in target_keys
                    and gap < p * ny)
            if x_ok or y_ok:
                used.update((x, y))
                out.append((x, y, x_ok, y_ok))
                break
    return out


def _match_by_value(kernel, members, target, target_keys, delta, masses,
                    level):
    """Pairing for coboundary kernels via potential-value lookup: the
    value of (y, x) lands in the target iff f(y) lies in target * f(x).
    Derivatives are tested as in `_match_generic`."""
    model = kernel.model
    shift = level - kernel.potential.depth
    values = kernel.potential.values
    p, q = delta.numerator, delta.denominator
    pot = {w: values[w >> shift] for w in members}
    groups: dict = {}
    for w in members:
        groups.setdefault(model.key(pot[w]), []).append(w)
    # members get used roughly in group order, so each group keeps a
    # cursor past its used front, where the next scan of it starts; a scan
    # from the front would make the pass quadratic in the class size
    start = dict.fromkeys(groups, 0)
    wanted: dict = {}  # potential key -> group keys of target * potential
    used: set[int] = set()
    out = []
    for x in members:
        if x in used:
            continue
        nx, px = masses[x], pot[x]
        keys = wanted.get(model.key(px))
        if keys is None:
            keys = wanted[model.key(px)] = [model.key(model.mul(t, px))
                                            for t in target]
        for k in keys:
            group = groups.get(k)
            if group is None:
                continue
            i = start[k]
            while i < len(group) and group[i] in used:
                i += 1
            start[k] = i
            for j in range(i, len(group)):
                y = group[j]
                if y in used or y == x:
                    continue
                ny = masses[y]
                gap = abs(ny - nx) * q
                if not gap < p * nx:
                    continue
                back = model.mul(px, model.inv(pot[y]))
                y_ok = model.key(back) in target_keys and gap < p * ny
                used.update((x, y))
                out.append((x, y, True, y_ok))
                break
            if x in used:
                break
    return out


# ---------------------------------------------------------------------------
# Essential-value reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvcEntry:
    base: CylinderSet
    u_index: int
    delta: Fraction
    ok: bool
    witness: Optional[EvcWitness]
    failure: Optional[str]


@dataclass(frozen=True)
class EssentialValueReport:
    candidate: Element
    entries: tuple[EvcEntry, ...]
    verdict: str  # "certified" | "inconclusive"


def essential_value_certificate(
    kernel: CocycleKernel,
    g: Element,
    mu: ProductMeasure,
    base_sets: Sequence[CylinderSet],
    u_indices: Sequence[int],
    search_depth: int = 14,
) -> EssentialValueReport:
    """Check the quantitative condition for every scheduled (base, U)
    pair with the tolerance 1/(3 * covering number); the verdict is
    certified only if all pairs verify."""
    model = kernel.model
    entries: list[EvcEntry] = []
    for k in u_indices:
        delta, _ = delta_for(model, g, k)
        target = target_set(model, g, k)
        for base in base_sets:
            if base.is_empty():
                continue
            try:
                witness = check_evc(kernel, base, target, delta, mu, search_depth)
                entries.append(EvcEntry(base, k, delta, True, witness, None))
            except SearchExhausted as exc:
                entries.append(EvcEntry(base, k, delta, False, None, str(exc)))
    verdict = "certified" if all(e.ok for e in entries) else "inconclusive"
    return EssentialValueReport(g, tuple(entries), verdict)


# ---------------------------------------------------------------------------
# Skew-product connectivity
# ---------------------------------------------------------------------------

class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.count = n

    def find(self, i: int) -> int:
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i: int, j: int) -> None:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        if self.size[ri] < self.size[rj]:
            ri, rj = rj, ri
        self.parent[rj] = ri
        self.size[ri] += self.size[rj]
        self.count -= 1


def skew_connectivity(
    kernel: CocycleKernel,
    depth: Optional[int] = None,
    exhaustive: bool = False,
) -> int:
    """Exact component count of the product graph on (depth words x group).

    An edge joins (w, g) to (w', v g) for every value v the kernel
    attains between extensions of w' and w; when the vertex depth equals
    the kernel depth the value is unique per pair, while a shallower
    vertex depth projects the deeper structure onto coarser words, which
    is where a run's increments can fuse the group fibers into one
    component.  `exhaustive` walks every word pair instead of a spanning
    chain; both give the same components (the relation is transitive)
    and small instances use it as an oracle.
    """
    model = kernel.model
    elements = model.elements()
    if elements is None:
        raise SizeGuard("connectivity needs a finite group model")
    elements = sorted(elements, key=model.key)
    n_elements = len(elements)
    index = {model.key(e): i for i, e in enumerate(elements)}
    level = kernel.depth if depth is None else depth
    if not 0 < level <= kernel.depth:
        raise SizeGuard(f"vertex depth must lie in 1..{kernel.depth}")
    n_words = 1 << level
    if n_words * n_elements > SKEW_BUDGET:
        raise SizeGuard(
            f"{n_words * n_elements} skew vertices exceed budget {SKEW_BUDGET}")
    span = 1 << (kernel.depth - level)  # kernel words per vertex word
    uf = _UnionFind(n_words * n_elements)

    # trivial kernels take the identity between any same-class words, so
    # no extension enumeration is needed for them either
    fast = (kernel.kind == "trivial"
            or (kernel.kind == "coboundary"
                and kernel.class_depth == kernel.depth))
    if not fast and span ** 2 * n_words > SKEW_BUDGET:
        raise SizeGuard("extension pairs exceed budget; deepen the vertices")

    # a class is fixed by the vertex bits beyond class_depth, the low ones
    stride = 1 << max(level - kernel.class_depth, 0)
    classes = [range(c, n_words, stride) for c in range(stride)]

    if fast and kernel.kind == "coboundary":
        # the potential's values on the extensions of the vertex word with
        # index i fill the slice [i * span, (i + 1) * span)
        potential = kernel.potential.values_at(kernel.depth)
    tail = (1 << (kernel.depth - kernel.class_depth)) - 1

    def values_between(first: int, second: int) -> set:
        if kernel.kind == "trivial":
            return {model.identity()}
        i, j = first * span, second * span
        if fast:
            firsts = {model.key(v): v for v in potential[i:i + span]}
            seconds = {model.key(v): v for v in potential[j:j + span]}
            return {model.mul(a, model.inv(b))
                    for a in firsts.values() for b in seconds.values()}
        return {kernel.value_at(a, b)
                for a in range(i, i + span) for b in range(j, j + span)
                if not (a ^ b) & tail}

    # vertex (w, g) is w * n_elements + index of g; left multiplication by
    # a value permutes the element indices, one permutation per value
    moved_by: dict = {}
    for cls in classes:
        if exhaustive:
            edges = [(a, b) for i, a in enumerate(cls) for b in cls[i + 1:]]
        else:
            edges = list(zip(cls, cls[1:]))
        for second, first in edges:
            for value in values_between(first, second):
                moved = moved_by.get(model.key(value))
                if moved is None:
                    moved = moved_by[model.key(value)] = [
                        index[model.key(model.mul(value, g))] for g in elements]
                here, there = second * n_elements, first * n_elements
                for gi, gj in enumerate(moved):
                    uf.union(here + gi, there + gj)

    return uf.count
