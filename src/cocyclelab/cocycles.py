"""Group-valued step functions on the sequence space and their cocycles.

A step function assigns a group element to every word of a fixed depth;
its coboundary increments f(sigma x) f(x)^-1 along the generators are
partial step functions, undefined exactly on the generators' truncation
remainders.  Undefined mass is always carried along explicitly so that
predicates can report it instead of silently passing.

Kernels package the induced two-point cocycle c(a, b) on pairs of words
in a common finite class; the three kernel laws (reflexivity, antisymmetry,
the chain rule) are checked exhaustively on small instances.
"""
from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from .errors import DepthExhausted, DepthMismatch, PostconditionFailure, SizeGuard
from .groups import GroupModel, Element, RationalRatioGroup
from .measure import ONE, ZERO, CylinderSet, ProductMeasure, Word, all_words
from .odometer import GammaAction, OverflowResult, PiecewiseCylinderMap

HALF = Fraction(1, 2)

KERNEL_PAIR_GUARD = 1 << 16  # most pairs a kernel table may materialize
KERNEL_TRIPLE_BUDGET = 1 << 21  # most triples `cocycle_check` may walk
KERNEL_EXPORT_DEPTH = 12  # deepest kernel that is exported as CSV


@dataclass(frozen=True)
class StepFunction:
    """A total map from depth-`depth` words to group elements."""

    model: GroupModel
    depth: int
    table: Mapping[Word, Element]

    def __post_init__(self):
        expected = 1 << self.depth
        if len(self.table) != expected:
            raise DepthMismatch(
                f"table has {len(self.table)} entries, needs {expected} at depth {self.depth}")
        for w in self.table:
            if len(w) != self.depth:
                raise DepthMismatch(f"table key {w!r} does not have depth {self.depth}")

    @cached_property
    def _increments(self) -> dict:
        """`coboundary_increment`'s results for this function, keyed by
        generator; they live exactly as long as the function."""
        return {}

    @cached_property
    def _witnesses(self) -> dict:
        """`evc.check_evc`'s outcomes on coboundary kernels of this
        function, keyed by the search's inputs."""
        return {}

    def at(self, w: Word) -> Element:
        if len(w) < self.depth:
            raise DepthMismatch(f"word of depth {len(w)} too shallow for depth {self.depth}")
        return self.table[w[: self.depth]]

    def value_set(self) -> tuple:
        seen = {self.model.key(v): v for v in self.table.values()}
        return tuple(seen[k] for k in sorted(seen))

    def level_set(self, value: Element) -> CylinderSet:
        return CylinderSet.of(w for w, v in self.table.items() if v == value)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["word", "value"])
        for w in sorted(self.table):
            writer.writerow([w, self.model.format(self.table[w])])
        return buf.getvalue()


@dataclass(frozen=True)
class PartialStepFunction:
    """A step function defined off an explicit cylinder region.

    Serves two roles: truncation remainders of coboundary increments
    (the undefined part is genuinely unknown there), and step functions
    with an absorbing marker on an excluded set (the marker region is
    known, just outside the group).  `at` returns None on the region
    either way; predicates must consult `undefined` and report it.
    """

    model: GroupModel
    depth: int
    table: Mapping[Word, Element]
    undefined: CylinderSet

    def __post_init__(self):
        if self.undefined.max_depth > self.depth:
            raise DepthMismatch("undefined region deeper than the table")
        defined = CylinderSet.of(self.table)
        if defined.union(self.undefined) != CylinderSet.full() or \
                not defined.intersection(self.undefined).is_empty():
            raise PostconditionFailure(
                "partial-table", "table and undefined region must partition the space")
        for w in self.table:
            if len(w) != self.depth:
                raise DepthMismatch(f"table key {w!r} does not have depth {self.depth}")

    def at(self, w: Word) -> Optional[Element]:
        if len(w) < self.depth:
            raise DepthMismatch(f"word of depth {len(w)} too shallow for depth {self.depth}")
        return self.table.get(w[: self.depth])

    def value_set(self) -> tuple:
        seen = {self.model.key(v): v for v in self.table.values()}
        return tuple(seen[k] for k in sorted(seen))


def coboundary_increment(f: StepFunction,
                         sigma: PiecewiseCylinderMap) -> PartialStepFunction:
    """The increment x -> f(sigma x) f(x)^-1 at the depth of `f` or of
    `sigma`, whichever is deeper, undefined on the remainder of the
    truncated `sigma`.

    Computed once per generator and kept on `f`, so a repeated call
    returns the same object, whose table is read-only.  The generator is
    keyed by value: actions are rebuilt every round."""
    memo = f._increments
    part = memo.get(sigma)
    if part is None:
        e = max(f.depth, sigma.max_depth)
        table = {}
        for w in all_words(e):
            img = sigma.apply(w)
            if img is not None:
                table[w] = f.model.mul(f.at(img), f.model.inv(f.at(w)))
        part = memo[sigma] = PartialStepFunction(
            f.model, e, MappingProxyType(table), sigma.remainder())
    return part


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CocycleKernel:
    """The two-point cocycle c(a, b) on depth-`depth` words that agree
    beyond coordinate `class_depth`.

    Kinds: "coboundary" (c = f(a) f(b)^-1 for the stored potential),
    "trivial", "ratio" (measure ratios valued in the positive rationals),
    and "explicit" (a literal table, used for negative controls).
    """

    model: GroupModel
    depth: int
    class_depth: int
    kind: str
    potential: Optional[StepFunction] = None
    mu: Optional[ProductMeasure] = None
    table: Optional[Mapping[tuple[Word, Word], Element]] = None

    def __post_init__(self):
        if not 0 <= self.class_depth <= self.depth:
            raise DepthMismatch("need 0 <= class_depth <= depth")
        if self.kind == "coboundary" and (self.potential is None
                                          or self.potential.depth > self.depth):
            raise ValueError("coboundary kernel needs a potential within its depth")
        if self.kind == "ratio" and self.mu is None:
            raise ValueError("ratio kernel needs a measure")
        if self.kind == "explicit" and self.table is None:
            raise ValueError("explicit kernel needs a table")

    @staticmethod
    def coboundary(f: StepFunction, class_depth: int,
                   depth: Optional[int] = None) -> "CocycleKernel":
        d = max(f.depth, depth or 0, class_depth)
        return CocycleKernel(f.model, d, class_depth, "coboundary", potential=f)

    @staticmethod
    def trivial(model: GroupModel, depth: int, class_depth: int) -> "CocycleKernel":
        return CocycleKernel(model, depth, class_depth, "trivial")

    @staticmethod
    def ratio(mu: ProductMeasure, depth: int, class_depth: int) -> "CocycleKernel":
        return CocycleKernel(RationalRatioGroup(), depth, class_depth, "ratio", mu=mu)

    @staticmethod
    def explicit(model: GroupModel, depth: int, class_depth: int,
                 table: Mapping[tuple[Word, Word], Element]) -> "CocycleKernel":
        return CocycleKernel(model, depth, class_depth, "explicit", table=dict(table))

    def admissible(self, a: Word, b: Word) -> bool:
        return (len(a) == len(b) == self.depth
                and a[self.class_depth:] == b[self.class_depth:])

    def value(self, a: Word, b: Word) -> Element:
        if not self.admissible(a, b):
            raise DepthMismatch(f"({a!r}, {b!r}) is not an admissible kernel pair")
        if self.kind == "coboundary":
            return self.model.mul(self.potential.at(a), self.model.inv(self.potential.at(b)))
        if self.kind == "trivial":
            return self.model.identity()
        if self.kind == "ratio":
            return self.mu.ratio(b, a)
        return self.table[(a, b)]

    def classes(self) -> Iterable[list[Word]]:
        for suffix in all_words(self.depth - self.class_depth):
            yield [p + suffix for p in all_words(self.class_depth)]

    def pair_count(self) -> int:
        return (1 << (self.depth - self.class_depth)) * (1 << self.class_depth) ** 2

    def materialize(self) -> dict:
        if self.pair_count() > KERNEL_PAIR_GUARD:
            raise SizeGuard(f"kernel with {self.pair_count()} pairs exceeds "
                            f"guard {KERNEL_PAIR_GUARD}")
        return {(a, b): self.value(a, b)
                for cls in self.classes() for a in cls for b in cls}

    def to_csv(self) -> str:
        if self.depth > KERNEL_EXPORT_DEPTH:
            raise SizeGuard(f"kernel export limited to depth "
                            f"{KERNEL_EXPORT_DEPTH}, have {self.depth}")
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["source", "target", "value"])
        for (a, b), v in sorted(self.materialize().items()):
            writer.writerow([a, b, self.model.format(v)])
        return buf.getvalue()


@dataclass(frozen=True)
class KernelCheck:
    ok: bool
    failure: Optional[dict] = None


def cocycle_check(kernel: CocycleKernel) -> KernelCheck:
    """Exhaustively verify the three kernel laws; a violation is returned
    as a value, never raised."""
    class_size = 1 << kernel.class_depth
    triples = (1 << (kernel.depth - kernel.class_depth)) * class_size ** 3
    if triples > KERNEL_TRIPLE_BUDGET:
        raise SizeGuard(
            f"{triples} kernel triples exceed budget {KERNEL_TRIPLE_BUDGET}")
    one = kernel.model.identity()
    for cls in kernel.classes():
        values = {(a, b): kernel.value(a, b) for a in cls for b in cls}
        for a in cls:
            if values[(a, a)] != one:
                return KernelCheck(False, {"law": "reflexive", "at": (a,),
                                           "value": kernel.model.format(values[(a, a)])})
        for a in cls:
            for b in cls:
                if kernel.model.mul(values[(a, b)], values[(b, a)]) != one:
                    return KernelCheck(False, {"law": "antisymmetric", "at": (a, b)})
        for a in cls:
            for b in cls:
                ab = values[(a, b)]
                for c in cls:
                    if kernel.model.mul(ab, values[(b, c)]) != values[(a, c)]:
                        return KernelCheck(False, {"law": "chain", "at": (a, b, c)})
    return KernelCheck(True)


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

def trivial_on_overflow(f: StepFunction, over: OverflowResult,
                        level: int) -> bool:
    """Whether `f` is the identity wherever some generator moves a point
    out of its level-`level` class, `over` being the action's
    `orbit_overflow` at that level.

    Decides from the truncated overflow: identity on both the provable
    overflow and the undecided remainder passes; a non-identity value on
    the provable part fails; a non-identity value only on the undecided
    remainder raises :class:`DepthExhausted` (the truncation cannot
    certify either way).
    """
    one = f.model.identity()

    def dirty(region: CylinderSet) -> CylinderSet:
        depth = max(f.depth, region.max_depth)
        return CylinderSet.of(
            w for w in region.words_at(depth) if f.at(w) != one)

    if not dirty(over.known).is_empty():
        return False
    bad_unknown = dirty(over.unknown.difference(over.known))
    if not bad_unknown.is_empty():
        raise DepthExhausted(
            f"cannot certify level-{level} innerness: non-identity values on the "
            f"undecided remainder {bad_unknown.words}")
    return True


@dataclass(frozen=True)
class IncrementCheck:
    ok: bool
    violations: Mapping[str, CylinderSet]


def increments_within(f: StepFunction, action: GammaAction,
                      allowed: Iterable[Element]) -> IncrementCheck:
    """Check that every defined increment value lies in {identity} + allowed;
    truncation remainders are not judged."""
    keys = {f.model.key(f.model.identity())}
    keys.update(f.model.key(h) for h in allowed)
    violations: dict[str, CylinderSet] = {}
    for label, g in action.generators:
        part = coboundary_increment(f, g)
        bad = [w for w, v in part.table.items() if f.model.key(v) not in keys]
        if bad:
            violations[label] = CylinderSet.of(bad)
    return IncrementCheck(not violations, violations)


@dataclass(frozen=True)
class DistResult:
    """Exact distance between two per-generator increment families.

    ``value`` integrates the truncated metric where both sides are
    defined; ``undefined_bound`` is the worst case of the undefined
    mass; ``truncation`` bounds the generators beyond the compared
    prefix (zero for fully enumerated finite families)."""

    value: Fraction
    undefined_bound: Fraction
    truncation: Fraction

    def upper(self) -> Fraction:
        return self.value + self.undefined_bound + self.truncation


def cocycle_distance(
    first: Sequence[PartialStepFunction],
    second: Sequence[PartialStepFunction],
    mu: ProductMeasure,
    infinite_tail: bool = False,
) -> DistResult:
    """Sum over generators j of 2^-j times the expected truncated metric
    between the j-th increments, computed exactly on the cylinder algebra."""
    if len(first) != len(second):
        raise DepthMismatch(
            f"families enumerate {len(first)} and {len(second)} generators")
    value = ZERO
    undefined_bound = ZERO
    weight = ONE
    for u1, u2 in zip(first, second):
        weight *= HALF
        if u1.model.name != u2.model.name:
            raise ValueError("increment families live over different group models")
        depth = max(u1.depth, u2.depth)
        integral = ZERO
        unknown = u1.undefined.union(u2.undefined)
        for w in all_words(depth):
            # `at` is None exactly on the undefined region (partition check)
            a, b = u1.at(w), u2.at(w)
            if a is None or b is None:
                continue
            gap = min(ONE, u1.model.metric(a, b))
            if gap:
                integral += gap * mu.cylinder(w)
        value += weight * integral
        undefined_bound += weight * unknown.measure(mu)
    truncation = weight if infinite_tail else ZERO
    return DistResult(value, undefined_bound, truncation)


@dataclass(frozen=True)
class AgreementCheck:
    """``agreement`` is the intersection of the per-generator sets."""

    agreement: CylinderSet
    per_generator: Mapping[str, CylinderSet]

    def measure(self, mu: ProductMeasure) -> Fraction:
        return self.agreement.measure(mu)


def increment_agreement(old: StepFunction, new: StepFunction,
                        action: GammaAction) -> AgreementCheck:
    """The set where every generator's increment of `new` is defined and
    equals that of `old`; undecided truncation mass is excluded from the
    agreement set (conservative).  Each generator's own
    agreement set is kept too, keyed by its label."""
    agreement = CylinderSet.full()
    per_generator: dict[str, CylinderSet] = {}
    for label, g in action.generators:
        u_old = coboundary_increment(old, g)
        u_new = coboundary_increment(new, g)
        e = max(u_old.depth, u_new.depth)
        same = CylinderSet.of(
            w for w in all_words(e)
            if u_old.at(w) is not None and u_old.at(w) == u_new.at(w))
        per_generator[label] = same
        agreement = agreement.intersection(same)
    return AgreementCheck(agreement, per_generator)
