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
from functools import cached_property
from operator import ne
from typing import Mapping, Optional

from .cocycles import (StepFunction, cocycle_distance, increment_agreement,
                       increments_within, trivial_on_overflow)
from .errors import (ConfigError, DepthExhausted, EmptyCore,
                     PostconditionFailure)
from .evc import WitnessValidation, delta_for, target_set, validate_witness
from .groups import Cover, Element, conjugate_closure
from .measure import CylinderSet, ProductMeasure, worst_deviation
from .odometer import (FiniteDepthMap, GammaAction, exchange_involution,
                       orbit_overflow)

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


@dataclass(frozen=True)
class CoreSelection:
    z0: CylinderSet
    h: Element
    mass: Fraction


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
    """What :func:`validate_step_output` computes.  ``clauses`` maps each
    shared clause (overflow_small through distance), in the step's
    order, to its verdict and its wordings in the step's and the
    validator's lists, which are views of it.  ``inp`` fixes eps, the
    required delta and the target mass; ``witness`` is
    :func:`evc.validate_witness` on the core and the pairing at delta;
    ``agreement`` holds each generator's agreement set, by label."""

    inp: StepInput
    delta: Fraction
    witness: WitnessValidation
    core_mass: Fraction
    agreement: Mapping[str, CylinderSet]
    agreement_mass: Fraction
    distance: Fraction
    clauses: Mapping[str, tuple[bool, str, str]]

    def verdicts(self) -> dict[str, bool]:
        """Clause name -> verdict for the ten shared clauses."""
        return {clause: ok for clause, (ok, _, _) in self.clauses.items()}

    @property
    def witness_reserve(self) -> Fraction:
        """Disagreement mass a later round may introduce while the witness
        still verifies: trimming the core by the bad set and its pairing
        image costs twice the mass, and half the slack is kept spare."""
        return self.witness.measure_slack / 4

    def admission(self) -> Certificate:
        """The advisory admission clause: eps within the admission bound."""
        bound = admission_bound(self.inp.target_mass, self.inp.cover.number)
        return Certificate(
            "admission", self.inp.eps <= bound,
            f"eps = {self.inp.eps} vs target mass/({ADMISSION_FACTOR} covering) = "
            f"{bound} (advisory)")

    def step_certificates(self) -> tuple[Certificate, ...]:
        """The shared clauses as worded in the step's certificate list."""
        return tuple(Certificate(clause, ok, step)
                     for clause, (ok, step, _) in self.clauses.items())

    def validator_certificates(self) -> tuple[Certificate, ...]:
        """Delta consistency, then the shared clauses as worded in the
        validator's list."""
        delta = Certificate(
            "delta_consistency", self.delta == self.inp.delta,
            f"delta {self.delta} vs 1/(3 * {self.inp.cover.number})")
        return (delta,) + tuple(Certificate(clause, ok, validator)
                                for clause, (ok, _, validator)
                                in self.clauses.items())


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


def select_core_and_conjugate(inp: StepInput) -> CoreSelection:
    """Pick the conjugate h and the part of the target where the twisted
    candidate lands in U h, maximizing that part's mass (pigeonhole over
    the covering gives at least a 1/covering-number share); ties break
    by element key."""
    f, model = inp.f, inp.f.model
    pieces: list[tuple[Element, CylinderSet]] = []
    for v in f.value_set():
        piece = inp.target.intersection(f.level_set(v))
        if not piece.is_empty():
            twisted = model.mul(model.mul(model.inv(v), inp.candidate), v)
            pieces.append((twisted, piece))
    best: Optional[CoreSelection] = None
    for h in sorted(inp.cover.centers, key=model.key):
        keys = {model.key(t) for t in target_set(model, h, inp.u_index)}
        z0 = CylinderSet.empty()
        for twisted, piece in pieces:
            if model.key(twisted) in keys:
                z0 = z0.union(piece)
        mass = z0.measure(inp.mu)
        if best is None or mass > best.mass:
            best = CoreSelection(z0, h, mass)
    assert best is not None  # cover.centers is never empty
    return best


def fingerprint_partition(f: StepFunction, z0: CylinderSet, n: int,
                          mu: ProductMeasure) -> tuple[CylinderSet, ...]:
    """Group suffix words by the multiset of (masked value, prefix
    weight) pairs their prefix column produces, the masked value being
    f's off `z0` (see `_masked_labels`) and the prefix weight its mass
    numerator at level n.  The classes are sets of suffix words (the
    coordinates beyond n), ordered by their mass under the shifted
    measure, then by least member."""
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
    parts.sort(key=lambda part: (-part.measure(suffix_mu), part.words[0]))
    return tuple(parts)


def overflow_hull(action: GammaAction, n: int, m: int) -> CylinderSet:
    """The level-m orbit-overflow hull, saturated over the first n
    coordinates."""
    return orbit_overflow(action, m).saturate(n)


def choose_refinement_depth(inp: StepInput,
                            floor: int) -> tuple[int, CylinderSet]:
    """The smallest refinement level m at or above `floor` whose
    saturated orbit-overflow hull has mass below the input's threshold,
    and that hull."""
    for m in range(max(floor, inp.n + 1), inp.depth_budget + 1):
        hull = overflow_hull(inp.action, inp.n, m)
        if hull.measure(inp.mu) < inp.threshold:
            return m, hull
    raise DepthExhausted(
        f"no refinement level within depth {inp.depth_budget} brings the "
        f"overflow hull below {inp.threshold}")


def discard_set(inp: StepInput, m: int, hull: CylinderSet
                ) -> tuple[FiniteDepthMap, CylinderSet]:
    """The suffix involution tau and the discard set b.

    tau pairs the coordinates beyond the refinement level m against
    themselves, with derivative within eps and unpaired mass below what
    the level-m overflow `hull` leaves of the threshold.  b is the hull
    united with tau's fixed points, the unpaired remainder, freed over
    the first m coordinates.  The step builds b here, and certification
    rebuilds it here from a stored refinement level."""
    if inp.depth_budget <= m:
        raise DepthExhausted(
            f"no coordinates left beyond level {m} within depth {inp.depth_budget}")
    tau = exchange_involution(
        inp.mu.shift(m), inp.eps, inp.depth_budget - m,
        inp.threshold - hull.measure(inp.mu))
    fixed = CylinderSet.from_indices(
        tau.depth, [s for s, t in enumerate(tau.table) if s == t])
    return tau, hull.union(fixed.prepend_free(m))


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


def build_transfer(z0: CylinderSet, b_set: CylinderSet, tau: FiniteDepthMap,
                   depth: int) -> tuple[FiniteDepthMap, CylinderSet]:
    """The pairing transformation (deep exchange off the discard set,
    identity on it) and the core: the part of z0 on the first exchange
    side, clear of the discard set."""
    table, low = tau.table, (1 << tau.depth) - 1
    discard = b_set.mask(depth)
    pairing = tuple(i if discard[i] else i - (i & low) + table[i & low]
                    for i in range(1 << depth))
    core = [i for i in z0.indices(depth)
            if table[i & low] > i & low and not discard[i]]
    return (FiniteDepthMap(depth, pairing),
            CylinderSet.from_indices(depth, core))


def construct_step(inp: StepInput) -> StepOutput:
    """Run the whole step and verify every certificate; raises
    :class:`PostconditionFailure` if any exact check fails (a bug, not a
    data condition) and :class:`EmptyCore` if the core mass cannot beat
    delta times the target mass under the given eps."""
    f, mu, action = inp.f, inp.mu, inp.action
    if not inp.target_mass > 0:
        raise ConfigError("the target set must have positive measure")
    if not trivial_on_overflow(f, orbit_overflow(action, inp.n)):
        raise ConfigError(f"input function is not inner at level {inp.n}")
    if not increments_within(f, action, inp.family):
        raise ConfigError("input increments leave the declared value family")

    selection = select_core_and_conjugate(inp)
    z0, h, delta = selection.z0, selection.h, inp.delta

    partition = fingerprint_partition(f, z0, inp.n, mu)

    floor = max(inp.n + 1, f.depth, inp.target.max_depth, z0.max_depth)
    m, hull = choose_refinement_depth(inp, floor)
    tau, b_set = discard_set(inp, m, hull)
    depth = m + tau.depth
    f_tilde = assemble_update(f, h, tau, b_set, depth)
    theta, core = build_transfer(z0, b_set, tau, depth)

    check = validate_step_output(
        inp, StepArtifacts(f_tilde, theta, core, m, h, delta))
    if not check.verdicts()["core_mass"]:
        raise EmptyCore(
            f"core mass {check.core_mass} does not exceed delta * target mass "
            f"{delta * inp.target_mass}; eps = {inp.eps} is too large for "
            f"this target")

    by_clause = {c.clause: c for c in _certify(
        inp, selection, partition, hull, tau, theta, check.core_mass, m)
        + check.step_certificates()}
    certificates = tuple(by_clause[clause] for clause in CERTIFICATE_ORDER)
    for cert in certificates:
        if not cert.ok:
            raise PostconditionFailure(cert.clause, cert.detail)
    return StepOutput(f_tilde, theta, core, m, h, delta, z0, b_set,
                      certificates, check)


def _certify(inp: StepInput, selection: CoreSelection,
             partition: tuple[CylinderSet, ...], hull: CylinderSet,
             tau: FiniteDepthMap, theta: FiniteDepthMap,
             core_mass: Fraction, m: int) -> tuple[Certificate, ...]:
    """The construction clauses: those that read the construction's
    intermediates, which :func:`validate_step_output` never sees."""
    f, mu, eps, number = inp.f, inp.mu, inp.eps, inp.cover.number
    eps_prime, distortion = inp.eps_prime, inp.distortion
    certs: list[Certificate] = []

    certs.append(Certificate(
        "eps_prime", eps_prime < eps and distortion * eps_prime <= eps,
        f"eps' = {eps_prime}; distortion sum {distortion}; "
        f"product {distortion * eps_prime} <= {eps}"))

    certs.append(Certificate(
        "core_selection", selection.mass * number >= inp.target_mass,
        f"selected share {selection.mass} of {inp.target_mass} "
        f"with covering number {number}"))

    hull_mass = hull.measure(mu)
    certs.append(Certificate(
        "saturation_mass", hull_mass < eps_prime,
        f"overflow hull mass {hull_mass} < {eps_prime} at level {m}"))

    masses = [part.measure(mu.shift(inp.n)) for part in partition]
    certs.append(Certificate(
        "partition_defect", all(mass > 0 for mass in masses),
        "middle-block alignment is exact per class "
        f"(defect 0 against budgets {[str(eps * mass) for mass in masses]})"))

    certs.append(Certificate(
        "conditional_uniformity", True,
        "product measure: the distribution beyond any level is the same "
        f"shifted weight schedule on every fiber (schedule {mu.schedule_key()})"))

    worst_pair = worst_deviation(mu.shift(m).level_masses(tau.depth)[0],
                                 range(len(tau.table)), tau.table)
    certs.append(Certificate(
        "suffix_derivative", worst_pair < eps,
        f"exchange derivative deviation {worst_pair} < {eps} "
        f"(and below the 3 eps ledger {3 * eps})"))

    stable = all(part.max_depth <= m - inp.n for part in partition)
    certs.append(Certificate(
        "class_stability", stable,
        "each class is a middle-block set, hence exactly invariant under "
        f"the deep exchange (budget {[str(4 * eps * x) for x in masses]})"))

    worst_move = worst_deviation(mu.level_masses(theta.depth)[0],
                                 range(len(theta.table)), theta.table)
    labels = _masked_labels(f, selection.z0, theta.depth)
    worst_print = sum(map(ne, labels, map(labels.__getitem__, theta.table)))
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
    one).  :func:`construct_step` runs it once on its finished
    artifacts, certification on artifacts rebuilt from a report."""
    f, mu, action, eps = inp.f, inp.mu, inp.action, inp.eps
    model = f.model
    f_tilde, theta, core, m, h = out.f_tilde, out.theta, out.core, out.m, out.h

    over = orbit_overflow(action, m)
    overflow = over.measure(mu)
    enlarged = conjugate_closure(model, tuple(inp.family) + (h, model.inv(h)))
    witness = validate_witness(f_tilde, inp.target, inp.targets, out.delta, mu,
                               core, theta)
    misses, worst = witness.misses, witness.worst
    # at the working depth the core and its image are unions of whole
    # cylinders, and a canonical set holds a whole cylinder exactly when
    # its membership table marks it, so disjointness is a table lookup
    depth = f_tilde.depth
    table, in_core = theta.index_map(depth), core.mask(depth)
    core_mass, bound = core.measure(mu), out.delta * inp.target_mass

    agreement = increment_agreement(f, f_tilde, action)
    agree = CylinderSet.full()
    for same in agreement.values():
        agree = agree.intersection(same)
    agreement_mass, floor = agree.measure(mu), 1 - eps
    distance = cocycle_distance(agreement, mu)
    overflow_text = f"overflow measure at level {m}: {overflow} < {eps}"
    # clause: (verdict, its wording in the step's list, in the validator's)
    clauses = {
        "overflow_small": (overflow < eps, overflow_text, overflow_text),
        "inner": (trivial_on_overflow(f_tilde, over),
                  f"update is identity on the level-{m} overflow",
                  f"identity on level-{m} overflow"),
        "incremental": (
            increments_within(f_tilde, action, enlarged),
            f"update increments stay in the enlarged value family "
            f"({len(enlarged)} elements)",
            f"update increments confined to {len(enlarged)} values"),
        "core_inside": (witness.part_inside and witness.image_inside,
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
    }
    return StepCheck(inp=inp, delta=out.delta, witness=witness,
                     core_mass=core_mass, agreement=agreement,
                     agreement_mass=agreement_mass, distance=distance,
                     clauses=clauses)
