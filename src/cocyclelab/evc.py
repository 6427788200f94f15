"""Essential-value certificates and the skew-product connectivity oracle.

A witness for the quantitative essential-value condition consists of a
part B of the base set and a finite-depth transformation moving B inside
the base with kernel values in the target set and derivative close to 1.
The kernel is the coboundary c(a, b) = f(a) f(b)^-1 of a step function
f, the potential, on words that agree beyond the depth of f; every
function here takes f and reads c off its table.  Witnesses are always
re-validated from scratch before being returned, and carry the exact
slack by which their mass beats the threshold.  `validate_witness` is the
one check of the condition's clauses: the search calls it, and so does
the step check, which certification replays.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .cocycles import StepFunction
from .errors import PostconditionFailure, SearchExhausted, SizeGuard
from .groups import Cover, Element, GroupModel, covering_number
from .measure import CylinderSet, ProductMeasure, index_word, worst_deviation
from .odometer import FiniteDepthMap

SKEW_BUDGET = 1 << 18  # most vertices a connectivity count may stand for


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
    """The verdict on a candidate witness, the first clause it fails, and
    the numbers behind every clause, computed whatever the verdict:
    whether the part and its image lie in the base, the measure slack
    mu(B) - delta mu(A), the number of part words whose kernel value
    misses the target set, and the worst derivative deviation."""

    ok: bool
    clause: Optional[str]
    detail: Optional[str]
    part_inside: bool
    image_inside: bool
    measure_slack: Fraction
    misses: int
    worst: Fraction


@dataclass(frozen=True)
class EvcWitness:
    """A validated witness: the part, the transformation, and the slack
    by which its mass beats delta times the base mass."""

    part: CylinderSet
    theta: FiniteDepthMap
    measure_slack: Fraction


def validate_witness(
    f: StepFunction,
    base: CylinderSet,
    target: Sequence[Element],
    delta: Fraction,
    mu: ProductMeasure,
    part: CylinderSet,
    theta: FiniteDepthMap,
) -> WitnessValidation:
    """Re-check every clause of the condition from scratch, trusting only
    (part, theta) and the potential `f` itself.  The clauses, in the
    order the first failing one is named: part-inside, image-inside,
    mass, class, membership, derivative."""
    model = f.model
    delta = Fraction(delta)
    level = max(f.depth, part.max_depth, theta.depth)
    table = theta.index_map(level)
    words = part.indices(level)
    # B and theta(B) are unions of whole level cylinders, which A holds
    # exactly when its membership table marks them
    inside = base.mask(level)
    part_inside = all(inside[w] for w in words)
    image_inside = all(inside[table[w]] for w in words)
    mass = part.measure(mu)
    need = delta * base.measure(mu)
    # the potential's words are the top f.depth bits of a level index; a
    # class is fixed by the bits beyond them
    shift = level - f.depth
    tail = (1 << shift) - 1
    values = f.values
    target_keys = {model.key(t) for t in target}
    # whether the kernel value of a (value at the image, value) pair lands
    # in the target, decided once per distinct pair
    lands: dict[tuple, bool] = {}
    thrown = missed = None  # the first word failing the class, membership
    misses = 0
    for w in words:
        img = table[w]
        if thrown is None and (img ^ w) & tail:
            thrown = w
        pair = (values[img >> shift], values[w >> shift])
        ok = lands.get(pair)
        if ok is None:
            ok = lands[pair] = model.key(
                model.mul(pair[0], model.inv(pair[1]))) in target_keys
        if not ok:
            misses += 1
            if missed is None:
                missed = w
    worst = worst_deviation(mu.level_masses(level)[0],
                            ((w, table[w]) for w in words))

    def verdict(clause: Optional[str] = None,
                detail: Optional[str] = None) -> WitnessValidation:
        return WitnessValidation(clause is None, clause, detail, part_inside,
                                 image_inside, mass - need, misses, worst)

    if not part_inside:
        return verdict("part-inside", "B is not contained in A")
    if not image_inside:
        return verdict("image-inside", "theta(B) is not contained in A")
    if not mass > need:
        return verdict("mass", f"mu(B) = {mass} is not above {need}")
    if thrown is not None:
        return verdict("class", f"theta throws {index_word(thrown, level)} "
                       "out of its kernel class")
    if missed is not None:
        value = model.mul(values[table[missed] >> shift],
                          model.inv(values[missed >> shift]))
        return verdict("membership",
                       f"kernel value {model.format(value)} at "
                       f"{index_word(missed, level)} is outside the target set")
    if not worst < delta:
        return verdict("derivative", f"derivative deviation {worst} is not "
                       f"below {delta}")
    return verdict()


def check_evc(
    f: StepFunction,
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
    target (grouped by potential value), largest measure first, at the
    first level that resolves the potential and the base.  No deeper
    level reaches more mass, so none is tried.

    The outcome is kept on the potential, keyed by the search's inputs,
    so a repeated search returns the same witness or raises the same
    exhaustion without searching again.
    """
    delta = Fraction(delta)
    target = tuple(target)
    key = (base, tuple(f.model.key(t) for t in target), delta, mu,
           search_depth)
    memo = f._witnesses
    outcome = memo.get(key)
    if outcome is None:
        try:
            outcome = _search_witness(f, base, target, delta, mu,
                                      search_depth)
        except SearchExhausted as exc:
            outcome = (str(exc), exc.best)
        memo[key] = outcome
    if isinstance(outcome, EvcWitness):
        return outcome
    message, best = outcome
    raise SearchExhausted(message, best)


def _search_witness(f, base, target, delta, mu, search_depth) -> EvcWitness:
    """The search behind :func:`check_evc`, run once per distinct input."""
    model = f.model
    target_keys = {model.key(t) for t in target}
    if base.is_empty():
        raise SearchExhausted("the base set is empty", best={})

    if model.key(model.identity()) in target_keys and delta < 1:
        theta = FiniteDepthMap.identity(f.depth)
        check = validate_witness(f, base, target, delta, mu, base, theta)
        if check.ok:
            return EvcWitness(base, theta, check.measure_slack)

    need = delta * base.measure(mu)
    # Past this level each base word and kernel class splits by bits beyond
    # the potential's depth, which keep kernel values, derivatives and the
    # (-mass, word) order: the pairing only gains those bits, at equal mass.
    level = max(f.depth, base.max_depth)
    if level > search_depth:
        raise SearchExhausted(
            f"kernel depth {level} already exceeds search depth {search_depth}",
            best={"required_mass": str(need)})
    pairs, b_words, mass = _pair_search(f, base, target, target_keys,
                                        delta, mu, level, need)
    if not mass > need:
        raise SearchExhausted(
            f"no witness with mass above {need} within depth {search_depth}",
            best={"required_mass": str(need), "achieved_mass": str(mass)})
    theta = FiniteDepthMap.from_pairs(level, pairs)
    part = CylinderSet.from_indices(level, sorted(b_words))
    check = validate_witness(f, base, target, delta, mu, part, theta)
    if not check.ok:
        raise PostconditionFailure(
            check.clause or "unknown",
            f"search produced an invalid witness: {check.detail}")
    return EvcWitness(part, theta, check.measure_slack)


def _pair_search(
    f: StepFunction,
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
    # a class is fixed by the bits beyond the potential's depth, the low ones
    tail = (1 << (level - f.depth)) - 1
    by_class: dict[int, list[int]] = {}
    for w in base.indices(level):
        by_class.setdefault(w & tail, []).append(w)
    pairs: list[tuple[int, int]] = []
    b_words: list[int] = []
    mass = 0  # numerator over the level's denominator
    for _, members in sorted(by_class.items()):
        members.sort(key=lambda w: (-masses[w], w))
        found = _match_by_value(f, members, target, target_keys, delta,
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


def _match_by_value(f, members, target, target_keys, delta, masses, level):
    """Pairing within one class via potential-value lookup: the value of
    (y, x) lands in the target iff f(y) lies in target * f(x).  A
    derivative deviation |n_y - n_x| / n_x is below delta = p/q when
    |n_y - n_x| * q < p * n_x."""
    model = f.model
    shift = level - f.depth
    values = f.values
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
    f: StepFunction,
    g: Element,
    mu: ProductMeasure,
    base_sets: Sequence[CylinderSet],
    u_indices: Sequence[int],
    search_depth: int = 14,
) -> EssentialValueReport:
    """Check the quantitative condition for every scheduled (base, U)
    pair with the tolerance 1/(3 * covering number); the verdict is
    certified only if all pairs verify."""
    model = f.model
    entries: list[EvcEntry] = []
    for k in u_indices:
        delta, _ = delta_for(model, g, k)
        target = target_set(model, g, k)
        for base in base_sets:
            if base.is_empty():
                continue
            try:
                witness = check_evc(f, base, target, delta, mu, search_depth)
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


def skew_connectivity(f: StepFunction, depth: int) -> int:
    """Exact component count of the product graph on (depth words x group).

    An edge joins (w, g) to (w', v g) for every kernel value v between
    extensions of w' and w.  All vertex words lie in one class, and a
    vertex word as deep as the potential sees one value of it, so the
    count is then the group order; a shallower vertex depth projects the
    potential onto coarser words, which is where a run's increments can
    fuse the group fibers into one component.

    No vertex is built.  Over a finite group G the components of a
    cocycle's skew product are the cosets of the subgroup its values
    generate (K. Schmidt, *Cocycles of ergodic transformation groups*,
    1977).  Here a transport T_w = a_w^-1 per word, a_w one potential
    value under w, makes one value on each edge the identity, so the
    vertices fall into the right cosets H g of the subgroup H generated
    by the a_w^-1 P_w, P_w the potential values under w, and the count
    is |G| / |H|.
    """
    model = f.model
    elements = model.elements()
    if elements is None:
        raise SizeGuard("connectivity needs a finite group model")
    order = len(elements)
    if depth <= 0:
        raise SizeGuard("vertex depth must be positive")
    if not within_skew_budget(order, depth):
        raise SizeGuard(
            f"{(1 << depth) * order} skew vertices exceed budget {SKEW_BUDGET}")
    shift = f.depth - depth
    if shift <= 0:
        return order  # one potential value per vertex word: H = {1}
    subgroup = _Subgroup(model)
    values = f.values
    for w in range(1 << depth):
        # the potential values under w fill a slice of its table
        under = list({model.key(v): v
                      for v in values[w << shift:(w + 1) << shift]}.values())
        back = model.inv(under[0])
        for p in under[1:]:
            subgroup.add(model.mul(back, p))
        if len(subgroup) == order:
            break
    return order // len(subgroup)
