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

    level = max(kernel.depth, part.max_depth, theta.depth)
    table = theta.index_map(level)
    words = part.indices(level)
    # B and theta(B) are unions of whole level cylinders, which A holds
    # exactly when its membership table marks them
    inside = base.mask(level)
    if not all(inside[w] for w in words):
        return failed("part-inside", "B is not contained in A")
    if not all(inside[table[w]] for w in words):
        return failed("image-inside", "theta(B) is not contained in A")
    mass = part.measure(mu)
    need = delta * base.measure(mu)
    if not mass > need:
        return failed("mass", f"mu(B) = {mass} is not above {need}")
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

def within_skew_budget(order: int, depth: int) -> bool:
    """Whether the skew graph on depth-`depth` words and a group of
    `order` elements has at most SKEW_BUDGET vertices."""
    return (1 << depth) * order <= SKEW_BUDGET


class _Subgroup:
    """The subgroup of a finite model generated by the elements added so
    far, listed by key: the closure of the identity under right
    multiplication by the generators (in a finite group every inverse is
    a positive power)."""

    def __init__(self, model: GroupModel):
        self.model = model
        self.members = {model.key(model.identity()): model.identity()}
        self.generators: list = []

    def __len__(self) -> int:
        return len(self.members)

    def add(self, g: Element) -> None:
        model, members = self.model, self.members
        if model.key(g) in members:
            return
        self.generators.append(g)
        frontier = list(members.values())
        while frontier:
            x = frontier.pop()
            for s in self.generators:
                y = model.mul(x, s)
                if model.key(y) not in members:
                    members[model.key(y)] = y
                    frontier.append(y)


def skew_connectivity(
    kernel: CocycleKernel,
    depth: Optional[int] = None,
) -> int:
    """Exact component count of the product graph on (depth words x group).

    An edge joins (w, g) to (w', v g) for every value v the kernel
    attains between extensions of w' and w; when the vertex depth equals
    the kernel depth the value is unique per pair, while a shallower
    vertex depth projects the deeper structure onto coarser words, which
    is where a run's increments can fuse the group fibers into one
    component.

    No vertex is built.  Over a finite group G the components of a
    cocycle's skew product are the cosets of the subgroup its values
    generate (K. Schmidt, *Cocycles of ergodic transformation groups*,
    1977).  Here: the words of a class are joined by a chain of edges; a
    transport T per word, with (w, g) sent to T_w g, turns one value on
    each chain edge into the identity, and every value v on an edge from
    (w, g) to (w', v g) then becomes the generator T_w' v T_w^-1 of a
    subgroup H.  The class's vertices fall into the right cosets H g, so
    the class adds |G| / |H| components.  For a coboundary whose classes
    are the whole space, T_w = a_w^-1 for a_w one potential value under
    w, and H is generated by the a_w^-1 P_w, P_w the potential values
    under w.
    """
    model = kernel.model
    elements = model.elements()
    if elements is None:
        raise SizeGuard("connectivity needs a finite group model")
    order = len(elements)
    level = kernel.depth if depth is None else depth
    if not 0 < level <= kernel.depth:
        raise SizeGuard(f"vertex depth must lie in 1..{kernel.depth}")
    n_words = 1 << level
    if not within_skew_budget(order, level):
        raise SizeGuard(
            f"{n_words * order} skew vertices exceed budget {SKEW_BUDGET}")
    span = 1 << (kernel.depth - level)  # kernel words per vertex word

    # trivial kernels take the identity between any same-class words, so
    # no extension enumeration is needed for them either
    fast = (kernel.kind == "trivial"
            or (kernel.kind == "coboundary"
                and kernel.class_depth == kernel.depth))
    if not fast and span ** 2 * n_words > SKEW_BUDGET:
        raise SizeGuard("extension pairs exceed budget; deepen the vertices")

    # a class is fixed by the vertex bits beyond class_depth, the low ones
    stride = 1 << max(level - kernel.class_depth, 0)
    if kernel.kind == "trivial":
        return order * stride  # every value is the identity: H = {1}

    if fast:
        # the only class holds every vertex word; the potential values
        # under the vertex word w fill a slice of the potential's table
        values = kernel.potential.values
        shift = kernel.potential.depth - level

        def under(w: int) -> list:
            if shift <= 0:
                return [values[w >> -shift]]
            distinct = {model.key(v): v
                        for v in values[w << shift:(w + 1) << shift]}
            return list(distinct.values())

        subgroup = _Subgroup(model)
        for w in range(n_words):
            here = under(w)
            back = model.inv(here[0])
            for p in here[1:]:
                subgroup.add(model.mul(back, p))
            if len(subgroup) == order:
                break
        return order // len(subgroup)
    tail = (1 << (kernel.depth - kernel.class_depth)) - 1

    def values_between(first: int, second: int) -> list:
        i, j = first * span, second * span
        found = (kernel.value_at(a, b)
                 for a in range(i, i + span) for b in range(j, j + span)
                 if not (a ^ b) & tail)
        return list({model.key(v): v for v in found}.values())

    total = 0
    for c in range(stride):
        cls = range(c, n_words, stride)
        subgroup = _Subgroup(model)
        transport = {cls[0]: model.identity()}
        for second, first in zip(cls, cls[1:]):
            # (second, g) joins (first, v g): T_first = T_second a^-1 for
            # the first value a makes that edge the identity
            between = values_between(first, second)
            transport[first] = model.mul(transport[second],
                                         model.inv(between[0]))
            back = model.inv(transport[second])
            for v in between:
                subgroup.add(model.mul(model.mul(transport[first], v), back))
            if len(subgroup) == order:
                break
        total += order // len(subgroup)
    return total
