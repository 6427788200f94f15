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
      increment families are eps-close in the exact weighted distance.

All arithmetic is rational and every tie-break is fixed, so identical
inputs produce identical outputs.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Mapping, Optional

from .cocycles import (StepFunction, coboundary_increment, cocycle_distance,
                       increment_agreement, increments_within,
                       trivial_on_overflow)
from .errors import (ConfigError, DepthExhausted, EmptyCore,
                     PostconditionFailure)
from .evc import WitnessValidation, delta_for, target_set, validate_witness
from .groups import Cover, Element, conjugate_closure
from .measure import CylinderSet, ProductMeasure, worst_deviation
from .odometer import (FiniteDepthMap, GammaAction, InvolutionResult,
                       exchange_involution, orbit_overflow)

UNDEFINED_MARK = "!"
ADMISSION_FACTOR = 40  # eps <= target mass / (ADMISSION_FACTOR * covering number)


def admission_bound(target_mass: Fraction, cover_number: int) -> Fraction:
    """The largest tolerance the step admits for a target of the given
    mass: target mass / (ADMISSION_FACTOR * covering number)."""
    return target_mass / (ADMISSION_FACTOR * cover_number)


@dataclass(frozen=True)
class Certificate:
    """One checked inequality or identity, with its exact numbers."""

    clause: str
    ok: bool
    detail: str

    def to_mapping(self) -> dict:
        return {"clause": self.clause, "ok": self.ok, "detail": self.detail}


@dataclass(frozen=True)
class StepInput:
    """All data of one construction step.

    ``family`` is the value family the input increments are confined to
    (possibly empty); ``u_index`` selects a neighborhood from the group
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


@dataclass(frozen=True)
class CoreSelection:
    z0: CylinderSet
    h: Element
    cover: Cover
    delta: Fraction
    mass: Fraction


@dataclass(frozen=True)
class FingerprintClass:
    part: CylinderSet  # suffix-space cylinders (coordinates beyond n)
    mass: Fraction


@dataclass(frozen=True)
class RefinementChoice:
    m: int
    hull: CylinderSet  # full-space overflow hull, saturated over the first n
    hull_mass: Fraction


@dataclass(frozen=True)
class StepArtifacts:
    """The slice of a step's output that :func:`validate_step_output`
    reads: the update, the pairing, the core, the refinement level, the
    conjugate and delta.  The working depth is the update's depth.  The
    construction's intermediates (z0, the partition, the refinement, the
    involution, the discard set) are not part of it, so the check cannot
    depend on them; :class:`StepOutput` adds the ones a report records."""

    f_tilde: StepFunction
    theta: FiniteDepthMap
    core: CylinderSet
    m: int
    h: Element
    delta: Fraction


@dataclass(frozen=True)
class StepCheck:
    """The exact numbers behind the step's shared clauses (overflow_small
    through distance) and the validator's delta consistency, computed by
    :func:`validate_step_output`; the report's two clause lists and its
    admission clause are rendered from one instance.  ``witness`` is
    :func:`evc.validate_witness` on the core and the pairing at delta,
    whose numbers the core clauses read; ``agreement`` holds each
    generator's agreement set, by label."""

    eps: Fraction
    m: int
    delta: Fraction
    required_delta: Fraction  # evc.delta_for's 1/(3 * covering number)
    cover_number: int
    overflow_mass: Fraction
    inner_ok: bool
    inner_error: Optional[str]  # why innerness was undecidable, if it was
    enlarged_size: int
    confined: bool
    witness: WitnessValidation
    core_disjoint: bool
    core_mass: Fraction
    target_mass: Fraction
    agreement: Mapping[str, CylinderSet]
    agreement_mass: Fraction
    distance: Fraction

    def verdicts(self) -> dict[str, bool]:
        """Clause name -> verdict for the ten shared clauses."""
        eps, witness = self.eps, self.witness
        return {
            "overflow_small": self.overflow_mass < eps,
            "inner": self.inner_ok,
            "incremental": self.confined,
            "core_inside": witness.part_inside and witness.image_inside,
            "core_disjoint": self.core_disjoint,
            "core_mass": self.core_mass > self.delta * self.target_mass,
            "core_membership": witness.misses == 0,
            "core_derivative": witness.worst < eps,
            "agreement": self.agreement_mass > 1 - eps,
            "distance": self.distance < eps,
        }

    @property
    def witness_reserve(self) -> Fraction:
        """Disagreement mass a later round may introduce while the witness
        still verifies: trimming the core by the bad set and its pairing
        image costs twice the mass, and half the slack is kept spare."""
        return self.witness.measure_slack / 4

    def admission(self) -> Certificate:
        """The advisory admission clause: eps within the admission bound."""
        bound = admission_bound(self.target_mass, self.cover_number)
        return Certificate(
            "admission", self.eps <= bound,
            f"eps = {self.eps} vs target mass/({ADMISSION_FACTOR} covering) = "
            f"{bound} (advisory)")

    def _render(self, details: dict[str, str]) -> tuple[Certificate, ...]:
        verdicts = self.verdicts()
        return tuple(Certificate(clause, verdicts[clause], detail)
                     for clause, detail in details.items())

    def step_certificates(self) -> tuple[Certificate, ...]:
        """The shared clauses as worded in the step's certificate list."""
        m, eps = self.m, self.eps
        return self._render({
            "overflow_small":
                f"overflow measure at level {m}: {self.overflow_mass} < {eps}",
            "inner": f"update is identity on the level-{m} overflow",
            "incremental":
                f"update increments stay in the enlarged value family "
                f"({self.enlarged_size} elements)",
            "core_inside": "core and its pairing image lie in the target set",
            "core_disjoint":
                "pairing image of the core is disjoint from the core",
            "core_mass":
                f"core mass {self.core_mass} > delta * target mass "
                f"{self.delta * self.target_mass}",
            "core_membership":
                f"{self.witness.misses} core words leave the "
                f"neighborhood translate",
            "core_derivative":
                f"core derivative deviation {self.witness.worst} < {eps}",
            "agreement":
                f"increment agreement measure {self.agreement_mass} > {1 - eps}",
            "distance":
                f"increment distance at most {self.distance} < {eps}",
        })

    def validator_certificates(self) -> tuple[Certificate, ...]:
        """Delta consistency, then the shared clauses as worded in the
        validator's list."""
        m, eps = self.m, self.eps
        delta = Certificate(
            "delta_consistency", self.delta == self.required_delta,
            f"delta {self.delta} vs 1/(3 * {self.cover_number})")
        return (delta,) + self._render({
            "overflow_small":
                f"overflow measure at level {m}: {self.overflow_mass} < {eps}",
            "inner": (f"identity on level-{m} overflow"
                      if self.inner_error is None else self.inner_error),
            "incremental":
                f"update increments confined to {self.enlarged_size} values",
            "core_inside": "core and pairing image inside the target",
            "core_disjoint": "pairing image disjoint from the core",
            "core_mass":
                f"core mass {self.core_mass} > {self.delta * self.target_mass}",
            "core_membership": f"{self.witness.misses} core words fall outside",
            "core_derivative": f"deviation {self.witness.worst} < {eps}",
            "agreement": f"agreement measure {self.agreement_mass} > {1 - eps}",
            "distance": f"distance at most {self.distance} < {eps}",
        })


# clause order of the step's certificate list, which reports store as is
CERTIFICATE_ORDER = (
    "eps_prime", "core_selection", "saturation_mass", "partition_defect",
    "conditional_uniformity", "suffix_derivative", "class_stability",
    "overflow_small", "inner", "incremental", "transfer_derivative",
    "transfer_fingerprint", "core_inside", "core_disjoint", "core_mass",
    "core_membership", "core_derivative", "agreement", "distance",
    "core_half_ledger")


@dataclass(frozen=True)
class StepOutput(StepArtifacts):
    """The step's artifacts, the selected set z0 and the discard set b
    that its report records, and its certificates.  ``check`` holds the
    exact numbers behind the shared clauses, among them the
    per-generator agreement sets, the agreement measure and the
    distance bound."""

    z0: CylinderSet
    b_set: CylinderSet
    certificates: tuple[Certificate, ...]
    check: StepCheck


def image_safe_tolerance(action: GammaAction, mu: ProductMeasure,
                         eps: Fraction) -> Fraction:
    """A threshold below which a set's summed generator-image mass stays
    under eps, via the exact per-generator distortion bound."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ConfigError("eps must be positive")
    return eps / max(action.max_distortion_sum(mu), Fraction(2))


def select_core_and_conjugate(f: StepFunction, target: CylinderSet,
                              candidate: Element, u_index: int,
                              mu: ProductMeasure) -> CoreSelection:
    """Pick the conjugate h and the part of the target where the twisted
    candidate lands in U h, maximizing that part's mass (pigeonhole over
    the covering gives at least a 1/covering-number share); ties break
    by element key."""
    model = f.model
    delta, cover = delta_for(model, candidate, u_index)
    pieces: list[tuple[Element, CylinderSet]] = []
    for v in f.value_set():
        piece = target.intersection(f.level_set(v))
        if not piece.is_empty():
            twisted = model.mul(model.mul(model.inv(v), candidate), v)
            pieces.append((twisted, piece))
    best: Optional[CoreSelection] = None
    for h in sorted(cover.centers, key=model.key):
        keys = {model.key(t) for t in target_set(model, h, u_index)}
        z0 = CylinderSet.empty()
        for twisted, piece in pieces:
            if model.key(twisted) in keys:
                z0 = z0.union(piece)
        mass = z0.measure(mu)
        if best is None or mass > best.mass:
            best = CoreSelection(z0, h, cover, delta, mass)
    assert best is not None  # cover.centers is never empty
    return best


def fingerprint_partition(f: StepFunction, z0: CylinderSet, n: int,
                          mu: ProductMeasure) -> tuple[FingerprintClass, ...]:
    """Group suffix words by the multiset of (masked value, prefix
    weight) pairs their prefix column produces, the masked value being
    f's off `z0` (see `_masked_labels`) and the prefix weight its mass
    numerator at level n; classes are ordered by mass, then by least
    member."""
    depth = max(f.depth, z0.max_depth, n)
    suffix_depth = depth - n
    labels = _masked_labels(f, z0, depth)
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
    classes = [FingerprintClass(part, part.measure(suffix_mu)) for part in parts]
    classes.sort(key=lambda c: (-c.mass, c.part.words[0]))
    return tuple(classes)


def overflow_threshold(action: GammaAction, mu: ProductMeasure,
                       eps: Fraction) -> Fraction:
    """The mass that the overflow hull and the involution's unpaired
    remainder share: below eps' and below eps / (1 + distortion sum)."""
    return min(image_safe_tolerance(action, mu, eps),
               Fraction(eps) / (1 + action.max_distortion_sum(mu)))


def overflow_hull(action: GammaAction, n: int, m: int,
                  mu: ProductMeasure) -> RefinementChoice:
    """The level-m orbit-overflow hull, saturated over the first n
    coordinates, with its mass."""
    hull = orbit_overflow(action, m).upper().saturate(n)
    return RefinementChoice(m, hull, hull.measure(mu))


def choose_refinement_depth(action: GammaAction, n: int, threshold: Fraction,
                            mu: ProductMeasure, floor: int,
                            depth_budget: int) -> RefinementChoice:
    """Smallest refinement level at or above `floor` whose saturated
    orbit-overflow hull has mass below `threshold`."""
    for m in range(max(floor, n + 1), depth_budget + 1):
        choice = overflow_hull(action, n, m, mu)
        if choice.hull_mass < threshold:
            return choice
    raise DepthExhausted(
        f"no refinement level within depth {depth_budget} brings the "
        f"overflow hull below {threshold}")


def discard_set(inp: StepInput, refinement: RefinementChoice
                ) -> tuple[InvolutionResult, CylinderSet]:
    """The suffix involution and the discard set b.

    The involution pairs the coordinates beyond the refinement level m
    against themselves, with derivative within eps and unpaired mass
    below what the overflow hull leaves of the threshold.  b is the
    refinement's overflow hull united with the unpaired remainder, freed
    over the first m coordinates.  The step builds b here, and
    certification rebuilds it here from a stored refinement level."""
    m = refinement.m
    if inp.depth_budget <= m:
        raise DepthExhausted(
            f"no coordinates left beyond level {m} within depth {inp.depth_budget}")
    threshold = overflow_threshold(inp.action, inp.mu, inp.eps)
    involution = exchange_involution(
        CylinderSet.full(), inp.mu.shift(m), Fraction(inp.eps),
        inp.depth_budget - m, leftover=threshold - refinement.hull_mass)
    return involution, refinement.hull.union(involution.fixed.prepend_free(m))


def assemble_update(f: StepFunction, h: Element, involution: InvolutionResult,
                    b_set: CylinderSet, m: int, depth: int) -> StepFunction:
    """The three-case update: identity on the discard set, f times h
    where the deep block sits on the exchanged side, f elsewhere."""
    model = f.model
    one = model.identity()
    discard = b_set.mask(depth)
    exchanged = involution.second_sides().prepend_free(m).mask(depth)
    return StepFunction(model, depth, tuple(
        one if discard[i] else model.mul(v, h) if exchanged[i] else v
        for i, v in enumerate(f.values_at(depth))))


def build_transfer(z0: CylinderSet, b_set: CylinderSet,
                   involution: InvolutionResult, m: int,
                   depth: int) -> tuple[FiniteDepthMap, CylinderSet]:
    """The pairing transformation (deep exchange off the discard set,
    identity on it) and the core: the part of z0 on the first exchange
    side, clear of the discard set.  The deep exchange rewrites the low
    depth - m bits of an index."""
    deep = involution.tau.index_map(depth - m)
    low = len(deep) - 1
    discard = b_set.mask(depth)
    first = involution.first_sides().prepend_free(m).mask(depth)
    table = tuple(i if discard[i] else i - (i & low) + deep[i & low]
                  for i in range(1 << depth))
    core = [i for i in z0.indices(depth) if first[i] and not discard[i]]
    return FiniteDepthMap(depth, table), CylinderSet.from_indices(depth, core)


def construct_step(inp: StepInput) -> StepOutput:
    """Run the whole step and verify every certificate; raises
    :class:`PostconditionFailure` if any exact check fails (a bug, not a
    data condition) and :class:`EmptyCore` if the core mass cannot beat
    delta times the target mass under the given eps."""
    f, mu, action = inp.f, inp.mu, inp.action
    model = f.model
    eps = Fraction(inp.eps)
    if eps <= 0:
        raise ConfigError("eps must be positive")
    if not inp.target.measure(mu) > 0:
        raise ConfigError("the target set must have positive measure")
    if not trivial_on_overflow(f, orbit_overflow(action, inp.n), inp.n):
        raise ConfigError(f"input function is not inner at level {inp.n}")
    if not increments_within(f, action, conjugate_closure(model, inp.family)):
        raise ConfigError("input increments leave the declared value family")

    selection = select_core_and_conjugate(f, inp.target, inp.candidate,
                                          inp.u_index, mu)
    z0, h, delta = selection.z0, selection.h, selection.delta

    eps_prime = image_safe_tolerance(action, mu, eps)
    total_distortion = action.max_distortion_sum(mu)

    partition = fingerprint_partition(f, z0, inp.n, mu)

    floor = max(inp.n + 1, f.depth, inp.target.max_depth, z0.max_depth)
    refinement = choose_refinement_depth(
        action, inp.n, overflow_threshold(action, mu, eps), mu, floor,
        inp.depth_budget)
    m = refinement.m
    involution, b_set = discard_set(inp, refinement)
    depth = m + involution.tau.depth
    f_tilde = assemble_update(f, h, involution, b_set, m, depth)
    theta, core = build_transfer(z0, b_set, involution, m, depth)

    check = validate_step_output(
        inp, StepArtifacts(f_tilde, theta, core, m, h, delta))
    if not check.verdicts()["core_mass"]:
        raise EmptyCore(
            f"core mass {check.core_mass} does not exceed delta * target mass "
            f"{delta * check.target_mass}; eps = {eps} is too large for this "
            f"target")

    by_clause = {c.clause: c for c in _certify(
        inp, eps_prime, total_distortion, selection, partition, refinement,
        involution, theta, check.core_mass, m)
        + check.step_certificates()}
    certificates = tuple(by_clause[clause] for clause in CERTIFICATE_ORDER)
    for cert in certificates:
        if not cert.ok:
            raise PostconditionFailure(cert.clause, cert.detail)
    return StepOutput(f_tilde, theta, core, m, h, delta, z0, b_set,
                      certificates, check)


def _certify(inp: StepInput, eps_prime: Fraction,
             total_distortion: Fraction, selection: CoreSelection,
             partition: tuple[FingerprintClass, ...],
             refinement: RefinementChoice,
             involution: InvolutionResult, theta: FiniteDepthMap,
             core_mass: Fraction, m: int) -> tuple[Certificate, ...]:
    """The construction clauses: those that read the construction's
    intermediates, which :func:`validate_step_output` never sees."""
    f, mu, eps = inp.f, inp.mu, Fraction(inp.eps)
    cover = selection.cover
    certs: list[Certificate] = []

    certs.append(Certificate(
        "eps_prime", eps_prime < eps and total_distortion * eps_prime <= eps,
        f"eps' = {eps_prime}; distortion sum {total_distortion}; "
        f"product {total_distortion * eps_prime} <= {eps}"))

    certs.append(Certificate(
        "core_selection",
        selection.mass * cover.number >= inp.target.measure(mu),
        f"selected share {selection.mass} of {inp.target.measure(mu)} "
        f"with covering number {cover.number}"))

    certs.append(Certificate(
        "saturation_mass", refinement.hull_mass < eps_prime,
        f"overflow hull mass {refinement.hull_mass} < {eps_prime} at level {m}"))

    defect_ok = all(c.mass > 0 for c in partition)
    certs.append(Certificate(
        "partition_defect", defect_ok,
        "middle-block alignment is exact per class "
        f"(defect 0 against budgets {[str(eps * c.mass) for c in partition]})"))

    certs.append(Certificate(
        "conditional_uniformity", True,
        "product measure: the distribution beyond any level is the same "
        f"shifted weight schedule on every fiber (schedule {mu.schedule_key()})"))

    pairs = involution.pairs
    worst_pair = worst_deviation(
        mu.shift(m).level_masses(involution.tau.depth)[0],
        chain(pairs, ((b, a) for a, b in pairs)))
    certs.append(Certificate(
        "suffix_derivative", worst_pair < eps,
        f"exchange derivative deviation {worst_pair} < {eps} "
        f"(and below the 3 eps ledger {3 * eps})"))

    stable = all(c.part.max_depth <= m - inp.n for c in partition)
    certs.append(Certificate(
        "class_stability", stable,
        "each class is a middle-block set, hence exactly invariant under "
        f"the deep exchange (budget {[str(4 * eps * c.mass) for c in partition]})"))

    moves = [(w, image) for w, image in enumerate(theta.table) if w != image]
    worst_move = worst_deviation(mu.level_masses(theta.depth)[0], moves)
    labels = _masked_labels(f, selection.z0, theta.depth)
    worst_print = sum(labels[w] != labels[image] for w, image in moves)
    certs.append(Certificate(
        "transfer_derivative", worst_move < 3 * eps,
        f"pairing derivative deviation {worst_move} < {3 * eps}"))
    certs.append(Certificate(
        "transfer_fingerprint", worst_print == 0,
        f"{worst_print} moved words change their masked value"))

    certs.append(Certificate(
        "core_half_ledger", core_mass > selection.mass / 2 - 10 * eps,
        f"core mass {core_mass} vs selected share/2 - 10 eps "
        f"{selection.mass / 2 - 10 * eps}"))
    return tuple(certs)


def _masked_labels(f: StepFunction, z0: CylinderSet, depth: int) -> list[str]:
    """f's masked value at each depth-`depth` word index: its label on z0,
    the undefined mark elsewhere."""
    values = f.values_at(depth)
    label = {v: f.model.format(v) for v in set(values)}
    return [label[v] if inside else UNDEFINED_MARK
            for v, inside in zip(values, z0.mask(depth))]


def validate_step_output(inp: StepInput, out: StepArtifacts) -> StepCheck:
    """The step's shared clauses (and delta's covering number) from the
    input and the artifact slice `out` alone (a :class:`StepOutput` is
    one).  :func:`construct_step` runs it once on
    its finished artifacts, certification on artifacts rebuilt from a
    report."""
    f, mu, action, eps = inp.f, inp.mu, inp.action, Fraction(inp.eps)
    model = f.model
    f_tilde, theta, core, m, h = out.f_tilde, out.theta, out.core, out.m, out.h

    over = orbit_overflow(action, m)
    try:
        inner_ok, inner_error = trivial_on_overflow(f_tilde, over, m), None
    except DepthExhausted as exc:
        inner_ok, inner_error = False, str(exc)

    enlarged = conjugate_closure(model, tuple(inp.family) + (h, model.inv(h)))
    required_delta, cover = delta_for(model, inp.candidate, inp.u_index)
    witness = validate_witness(
        f_tilde, inp.target, target_set(model, inp.candidate, inp.u_index),
        out.delta, mu, core, theta)
    # at the working depth the core and its image are unions of whole
    # cylinders, and a canonical set holds a whole cylinder exactly when
    # its membership table marks it, so disjointness is a table lookup
    depth = f_tilde.depth
    table, in_core = theta.index_map(depth), core.mask(depth)

    agreement = increment_agreement(f, f_tilde, action)
    agree = CylinderSet.full()
    for same in agreement.values():
        agree = agree.intersection(same)
    old_inc = [coboundary_increment(f, g) for g in action.maps()]
    new_inc = [coboundary_increment(f_tilde, g) for g in action.maps()]
    return StepCheck(
        eps=eps, m=m, delta=out.delta, required_delta=required_delta,
        cover_number=cover.number,
        overflow_mass=over.upper().measure(mu),
        inner_ok=inner_ok, inner_error=inner_error,
        enlarged_size=len(enlarged),
        confined=increments_within(f_tilde, action, enlarged),
        witness=witness,
        core_disjoint=not any(in_core[table[w]] for lo, hi in core.ranges(depth)
                              for w in range(lo, hi)),
        core_mass=core.measure(mu), target_mass=inp.target.measure(mu),
        agreement=agreement, agreement_mass=agree.measure(mu),
        distance=cocycle_distance(old_inc, new_inc, mu))
