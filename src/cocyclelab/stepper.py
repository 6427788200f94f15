"""The single coboundary-modification step.

Given a step function that is inner and incrementally controlled for a
finite symmetric generator family, plus a target set, a candidate group
element, a neighborhood index and a tolerance, the constructor produces
a refinement level m, a conjugate h of the candidate, an updated step
function, a core set with a pairing transformation, and an exact
certificate bundle:

  (a) the level-m orbit overflow has measure below eps;
  (b) the update is inner at level m and incremental for the value
      family enlarged by h and its inverse;
  (c) the core and its pairing image sit inside the target set and are
      disjoint, the core mass strictly exceeds delta times the target
      mass, the paired update increments land in the U-translate of the
      candidate, and the pairing derivative stays within eps on the
      core;
  (d) the per-generator increments of the update agree with those of
      the input outside a set of measure below eps, and the two
      increment families are eps-close in the exact weighted distance;

beside the clauses about the construction's intermediates (tolerances,
core selection, hull, partition, exchange, pairing).  One function,
:func:`validate_step_output`, computes every clause from the input,
what the input derives and the step's artifacts; the step runs it on
its own output, and certify on the artifacts a report stores.

All arithmetic is rational and every tie-break is fixed, so identical
inputs produce identical outputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import ne
from typing import Mapping, Optional

from .cocycles import (StepFunction, cocycle_distance, increment_agreement,
                       increments_within, trivial_on_overflow)
from .errors import (BudgetExhausted, ConfigError, DepthExhausted,
                     EmptyCore, PostconditionFailure)
from .evc import WitnessValidation, delta_for, target_set, validate_witness
from .groups import Cover, Element, conjugate_closure
from .measure import CylinderSet, ProductMeasure, kept, worst_deviation
from .odometer import (FiniteDepthMap, GammaAction, exchange_involution,
                       orbit_overflow)

UNDEFINED_MARK = "!"
ADMISSION_FACTOR = 40  # eps <= target mass / (ADMISSION_FACTOR * covering number)


def admission_bound(target_mass: Fraction, cover_number: int) -> Fraction:
    """The largest tolerance the step admits for a target of the given
    mass: target mass / (ADMISSION_FACTOR * covering number)."""
    return target_mass / (ADMISSION_FACTOR * cover_number)


@dataclass(frozen=True)
class CoreSelection:
    z0: CylinderSet
    h: Element
    mass: Fraction


@dataclass(frozen=True)
class StepInput:
    """All data of one construction step.

    ``family`` is the value family the input increments are confined to
    (possibly empty), taken as given: a run passes its config's
    conjugate closure; ``u_index`` selects a neighborhood from the group
    model's base; ``depth_budget`` caps every working depth.
    """

    f: StepFunction
    n: int
    action: GammaAction
    family: tuple
    target: CylinderSet
    candidate: Element
    u_index: int
    eps: Fraction
    mu: ProductMeasure
    depth_budget: int = 14

    def __post_init__(self) -> None:
        # a nonpositive eps, as a forged report may store, fails here
        object.__setattr__(self, "eps", Fraction(self.eps))
        if self.eps <= 0:
            raise ConfigError("eps must be positive")

    @cached_property
    def _delta_for(self) -> tuple[Fraction, Cover]:
        return delta_for(self.f.model, self.candidate, self.u_index)

    # delta = 1/(3 * covering number), and the candidate's covering
    delta = property(lambda self: self._delta_for[0])
    cover = property(lambda self: self._delta_for[1])

    @cached_property
    def targets(self) -> tuple:
        """The translate U g of the neighborhood by the candidate g."""
        return target_set(self.f.model, self.candidate, self.u_index)

    @cached_property
    def target_mass(self) -> Fraction:
        return self.target.measure(self.mu)

    @cached_property
    def distortion(self) -> Fraction:
        """The action's exact per-generator distortion sum D."""
        return self.action.max_distortion_sum(self.mu)

    @cached_property
    def eps_prime(self) -> Fraction:
        """eps / max(D, 2): a set below it has images of total mass below eps."""
        return self.eps / max(self.distortion, 2)

    @cached_property
    def threshold(self) -> Fraction:
        """eps / (1 + D), which the overflow hull and the involution's
        unpaired remainder share; D >= 1, so it is at most eps'."""
        return self.eps / (1 + self.distortion)

    @cached_property
    def selection(self) -> CoreSelection:
        """The conjugate h and z0, the part of the target where the
        twisted candidate lands in U h, with z0's mass: h maximizes that
        mass (pigeonhole over the covering gives at least a
        1/covering-number share); ties break by element key."""
        f, model = self.f, self.f.model
        pieces: list[tuple[Element, CylinderSet]] = []
        for v in f.value_set():
            piece = self.target.intersection(f.level_set(v))
            if not piece.is_empty():
                twisted = model.mul(model.mul(model.inv(v), self.candidate), v)
                pieces.append((twisted, piece))
        best: Optional[CoreSelection] = None
        for h in sorted(self.cover.centers, key=model.key):
            keys = {model.key(t) for t in target_set(model, h, self.u_index)}
            z0 = CylinderSet.empty()
            for twisted, piece in pieces:
                if model.key(twisted) in keys:
                    z0 = z0.union(piece)
            mass = z0.measure(self.mu)
            if best is None or mass > best.mass:
                best = CoreSelection(z0, h, mass)
        assert best is not None  # cover.centers is never empty
        return best

    @cached_property
    def partition(self) -> tuple[CylinderSet, ...]:
        """The fingerprint partition: suffix words grouped by the
        multiset of (masked value, prefix weight) pairs their prefix
        column produces, the masked value being f's off z0 (see
        `_masked_labels`) and the prefix weight its mass numerator at
        level n.  The classes are sets of suffix words (the coordinates
        beyond n), ordered by their mass under the shifted measure, then
        by least member."""
        z0, n, mu = self.selection.z0, self.n, self.mu
        depth = max(self.f.depth, z0.max_depth, n)
        suffix_depth = depth - n
        labels = _masked_labels(self.f, z0, depth)
        weights = mu.level_masses(n)[0]
        # the column of suffix w holds the indices t * stride + w, t a prefix
        stride = 1 << suffix_depth
        groups: dict[tuple, list[int]] = {}
        for w in range(stride):
            column = sorted(zip(labels[w::stride], weights))
            groups.setdefault(tuple(column), []).append(w)
        suffix_mu = mu.shift(n)
        parts = [CylinderSet.from_indices(suffix_depth, words)
                 for words in groups.values()]
        parts.sort(key=lambda part: (-part.measure(suffix_mu), part.words[0]))
        return tuple(parts)

    @kept
    def hull(self, m: int) -> CylinderSet:
        """The level-m orbit-overflow hull, saturated over the first n
        coordinates."""
        return orbit_overflow(self.action, m).saturate(self.n)

    @kept
    def discard(self, m: int) -> tuple[FiniteDepthMap, CylinderSet]:
        """The suffix involution tau and the discard set b at refinement
        level m.

        tau pairs the coordinates beyond m against themselves, with
        derivative within eps and unpaired mass below what the level-m
        hull leaves of the threshold.  b is the hull united with tau's
        fixed points, the unpaired remainder, freed over the first m
        coordinates.  A level that leaves no coordinates beyond it, or
        none of the threshold, has neither: :class:`DepthExhausted`."""
        if self.depth_budget <= m:
            raise DepthExhausted(f"no coordinates left beyond level {m} "
                                 f"within depth {self.depth_budget}")
        hull = self.hull(m)
        room = self.threshold - hull.measure(self.mu)
        if room <= 0:
            raise DepthExhausted(f"the level-{m} overflow hull leaves none "
                                 f"of the threshold {self.threshold}")
        tau = exchange_involution(self.mu.shift(m), self.eps,
                                  self.depth_budget - m, room)
        fixed = CylinderSet.from_indices(
            tau.depth, [s for s, t in enumerate(tau.table) if s == t])
        return tau, hull.union(fixed.prepend_free(m))


@dataclass(frozen=True)
class StepArtifacts:
    """The slice of a step's output that :func:`validate_step_output`
    reads beside the input: what the construction chooses beyond its
    input (the update, the pairing and the refinement level) and delta.
    The working depth is the update's depth; the conjugate and z0 are
    the input's `selection`, and the core follows from z0 and the
    pairing.  The construction's intermediates (the partition, the hull,
    the involution, the discard set) are derived from the input and the
    level, and kept on the input, so the check reads them from there."""

    f_tilde: StepFunction
    theta: FiniteDepthMap
    m: int
    delta: Fraction


@dataclass(frozen=True)
class StepCheck:
    """What :func:`validate_step_output` computes.  ``clauses`` maps
    each clause, in report order, to its verdict, its wording in the
    step's certificate list and its wording in the validator's list,
    either None where the clause is not in that list: delta_consistency
    is the validator's alone, the ten construction clauses are the
    step's alone, and the ten shared ones are in both.  ``inp`` fixes
    eps, the required delta and the target mass; ``core`` is the part
    of the input's z0 that the pairing moves to a later word;
    ``witness`` is :func:`evc.validate_witness` on the core and the
    pairing at delta; ``agreement`` holds each generator's agreement
    set, by label."""

    inp: StepInput
    core: CylinderSet
    witness: WitnessValidation
    core_mass: Fraction
    agreement: Mapping[str, CylinderSet]
    agreement_mass: Fraction
    distance: Fraction
    clauses: Mapping[str, tuple[bool, Optional[str], Optional[str]]]

    def verdicts(self) -> dict[str, bool]:
        """Clause name -> verdict, for every clause."""
        return {clause: ok for clause, (ok, _, _) in self.clauses.items()}

    @property
    def witness_reserve(self) -> Fraction:
        """Disagreement mass a later round may introduce while the witness
        still verifies: trimming the core by the bad set and its pairing
        image costs twice the mass, and half the slack is kept spare."""
        return self.witness.measure_slack / 4


@dataclass(frozen=True)
class StepOutput(StepArtifacts):
    """The step's artifacts and its check, which holds the core, every
    clause and the exact numbers behind the shared ones, among them the
    per-generator agreement sets, the agreement measure and the
    distance bound.  The discard set b that a report records is the
    input's `discard` at level m."""

    check: StepCheck


def choose_refinement_depth(inp: StepInput, floor: int) -> int:
    """The smallest refinement level m at or above `floor` whose
    saturated orbit-overflow hull has mass below the input's threshold."""
    for m in range(max(floor, inp.n + 1), inp.depth_budget + 1):
        if inp.hull(m).measure(inp.mu) < inp.threshold:
            return m
    raise DepthExhausted(
        f"no refinement level within depth {inp.depth_budget} brings the "
        f"overflow hull below {inp.threshold}")


# In the two functions below the suffix involution tau acts on the low
# tau.depth bits s = i & low of a working-depth index i: s lies on the
# first exchange side when tau moves it up, on the second when down.

def assemble_update(f: StepFunction, h: Element, tau: FiniteDepthMap,
                    b_set: CylinderSet, depth: int) -> StepFunction:
    """The three-case update: identity on the discard set, f times h
    where the deep block sits on the second exchange side, f
    elsewhere."""
    model = f.model
    one = model.identity()
    discard = b_set.mask(depth)
    table, low = tau.table, (1 << tau.depth) - 1
    return StepFunction(model, depth, tuple(
        one if discard[i] else model.mul(v, h) if table[i & low] < i & low
        else v for i, v in enumerate(f.values_at(depth))))


def build_transfer(b_set: CylinderSet, tau: FiniteDepthMap,
                   depth: int) -> FiniteDepthMap:
    """The pairing transformation: the deep exchange off the discard
    set, the identity on it."""
    table, low = tau.table, (1 << tau.depth) - 1
    discard = b_set.mask(depth)
    return FiniteDepthMap(depth, tuple(
        i if discard[i] else i - (i & low) + table[i & low]
        for i in range(1 << depth)))


def construct_step(inp: StepInput) -> StepOutput:
    """Run the whole step and verify every certificate; raises
    :class:`PostconditionFailure` if any exact check fails (a bug, not a
    data condition) and :class:`EmptyCore` if the core mass cannot beat
    delta times the target mass under the given eps."""
    f, action = inp.f, inp.action
    if not inp.target_mass > 0:
        raise ConfigError("the target set must have positive measure")
    if not trivial_on_overflow(f, orbit_overflow(action, inp.n)):
        raise ConfigError(f"input function is not inner at level {inp.n}")
    if not increments_within(f, action, inp.family):
        raise ConfigError("input increments leave the declared value family")

    z0, h, delta = inp.selection.z0, inp.selection.h, inp.delta
    floor = max(inp.n + 1, f.depth, inp.target.max_depth, z0.max_depth)
    m = choose_refinement_depth(inp, floor)
    tau, b_set = inp.discard(m)
    depth = m + tau.depth
    f_tilde = assemble_update(f, h, tau, b_set, depth)
    theta = build_transfer(b_set, tau, depth)

    check = validate_step_output(inp, StepArtifacts(f_tilde, theta, m, delta))
    if not check.verdicts()["core_mass"]:
        raise EmptyCore(
            f"core mass {check.core_mass} does not exceed delta * target mass "
            f"{delta * inp.target_mass}; eps = {inp.eps} is too large for "
            f"this target")
    for clause, (ok, detail, _) in check.clauses.items():
        if detail is not None and not ok:
            raise PostconditionFailure(clause, detail)
    return StepOutput(f_tilde, theta, m, delta, check)


def _masked_labels(f: StepFunction, z0: CylinderSet, depth: int) -> list[str]:
    """f's masked value at each depth-`depth` word index: its label on z0,
    the undefined mark elsewhere."""
    values = f.values_at(depth)
    label = {v: f.model.format(v) for v in set(values)}
    return [label[v] if inside else UNDEFINED_MARK
            for v, inside in zip(values, z0.mask(depth))]


def validate_step_output(inp: StepInput, out: StepArtifacts) -> StepCheck:
    """Every clause of the step, in report order, from the input, what
    the input derives at level m, and the artifact slice `out` (a
    :class:`StepOutput` is one), on the core they fix: the z0 words the
    pairing moves up.  :func:`construct_step` runs it on its finished
    artifacts, certify on artifacts rebuilt from a report."""
    f, mu, action, eps = inp.f, inp.mu, inp.action, inp.eps
    model, selected, number = f.model, inp.selection, inp.cover.number
    eps_prime, distortion = inp.eps_prime, inp.distortion
    f_tilde, theta, m, h = out.f_tilde, out.theta, out.m, selected.h

    over = orbit_overflow(action, m)
    overflow = over.measure(mu)
    hull_mass = inp.hull(m).measure(mu)
    try:
        tau, _ = inp.discard(m)
    except (BudgetExhausted, DepthExhausted) as exc:
        # a level the step never chooses: the suffix exchange fails
        suffix = (False, f"no suffix exchange at level {m}: {exc}", None)
    else:
        worst_pair = worst_deviation(mu.shift(m).level_masses(tau.depth)[0],
                                     range(len(tau.table)), tau.table)
        suffix = (worst_pair < eps, f"exchange derivative deviation "
                  f"{worst_pair} < {eps} (and below the 3 eps ledger "
                  f"{3 * eps})", None)
    masses = [part.measure(mu.shift(inp.n)) for part in inp.partition]
    enlarged = conjugate_closure(model, tuple(inp.family) + (h, model.inv(h)))
    depth = f_tilde.depth
    table = theta.index_map(depth)
    worst_move = worst_deviation(mu.level_masses(depth)[0],
                                 range(len(table)), table)
    labels = _masked_labels(f, selected.z0, depth)
    worst_print = sum(map(ne, labels, map(labels.__getitem__, table)))
    core = CylinderSet.from_indices(depth, [
        i for i in selected.z0.indices(depth) if table[i] > i])
    witness = validate_witness(f_tilde, inp.target, inp.targets, out.delta, mu,
                               core, theta)
    misses, worst = witness.misses, witness.worst
    # at the working depth the core and its image are unions of whole
    # cylinders, and a canonical set holds a whole cylinder exactly when
    # its membership table marks it, so disjointness is a table lookup
    in_core = core.mask(depth)
    core_mass, bound = core.measure(mu), out.delta * inp.target_mass
    ledger = selected.mass / 2 - 10 * eps

    agreement = increment_agreement(f, f_tilde, action)
    agree = CylinderSet.full()
    for same in agreement.values():
        agree = agree.intersection(same)
    agreement_mass, floor = agree.measure(mu), 1 - eps
    distance = cocycle_distance(agreement, mu)
    overflow_text = f"overflow measure at level {m}: {overflow} < {eps}"
    # clause: (verdict, its wording in the step's list, in the validator's)
    clauses = {
        "delta_consistency": (out.delta == inp.delta, None,
                              f"delta {out.delta} vs 1/(3 * {number})"),
        "eps_prime": (eps_prime < eps and distortion * eps_prime <= eps,
                      f"eps' = {eps_prime}; distortion sum {distortion}; "
                      f"product {distortion * eps_prime} <= {eps}", None),
        "core_selection": (selected.mass * number >= inp.target_mass,
                           f"selected share {selected.mass} of "
                           f"{inp.target_mass} with covering number {number}",
                           None),
        "saturation_mass": (hull_mass < eps_prime, f"overflow hull mass "
                            f"{hull_mass} < {eps_prime} at level {m}", None),
        "partition_defect": (
            all(mass > 0 for mass in masses),
            "middle-block alignment is exact per class (defect 0 against "
            f"budgets {[str(eps * mass) for mass in masses]})", None),
        "conditional_uniformity": (
            True, "product measure: the distribution beyond any level is "
            "the same shifted weight schedule on every fiber (schedule "
            f"{mu.schedule_key()})", None),
        "suffix_derivative": suffix,
        "class_stability": (
            all(part.max_depth <= m - inp.n for part in inp.partition),
            "each class is a middle-block set, hence exactly invariant under "
            f"the deep exchange (budget {[str(4 * eps * x) for x in masses]})",
            None),
        "overflow_small": (overflow < eps, overflow_text, overflow_text),
        "inner": (trivial_on_overflow(f_tilde, over),
                  f"update is identity on the level-{m} overflow",
                  f"identity on level-{m} overflow"),
        "incremental": (
            increments_within(f_tilde, action, enlarged),
            f"update increments stay in the enlarged value family "
            f"({len(enlarged)} elements)",
            f"update increments confined to {len(enlarged)} values"),
        "transfer_derivative": (worst_move < 3 * eps, f"pairing derivative "
                                f"deviation {worst_move} < {3 * eps}", None),
        "transfer_fingerprint": (worst_print == 0, f"{worst_print} moved "
                                 f"words change their masked value", None),
        # the core is derived inside z0, which lies inside the target, so
        # only its image can leave the target; the witness's own
        # part-inside clause (certify's evc-part-inside) still checks the
        # core's half
        "core_inside": (witness.image_inside,
                        "core and its pairing image lie in the target set",
                        "core and pairing image inside the target"),
        "core_disjoint": (
            not any(map(in_core.__getitem__,
                        map(table.__getitem__, core.indices(depth)))),
            "pairing image of the core is disjoint from the core",
            "pairing image disjoint from the core"),
        "core_mass": (core_mass > bound,
                      f"core mass {core_mass} > delta * target mass {bound}",
                      f"core mass {core_mass} > {bound}"),
        "core_membership": (misses == 0, f"{misses} core words leave the "
                            f"neighborhood translate",
                            f"{misses} core words fall outside"),
        "core_derivative": (worst < eps,
                            f"core derivative deviation {worst} < {eps}",
                            f"deviation {worst} < {eps}"),
        "agreement": (agreement_mass > floor, f"increment agreement measure "
                      f"{agreement_mass} > {floor}",
                      f"agreement measure {agreement_mass} > {floor}"),
        "distance": (distance < eps,
                     f"increment distance at most {distance} < {eps}",
                     f"distance at most {distance} < {eps}"),
        "core_half_ledger": (core_mass > ledger, f"core mass {core_mass} vs "
                             f"selected share/2 - 10 eps {ledger}", None),
    }
    return StepCheck(inp=inp, core=core, witness=witness, core_mass=core_mass,
                     agreement=agreement, agreement_mass=agreement_mass,
                     distance=distance, clauses=clauses)
