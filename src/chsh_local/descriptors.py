"""Heisenberg-picture engine with strictly local per-qubit descriptors.

The reference state is pinned to |0...0> for the life of a network and never
changes; all dynamics lives in operators.  Each qubit owns a *descriptor*, a
pair of evolved Pauli generators (qx, qz), and a gate rewrites only the
descriptors of the qubits it targets, from those qubits' current
descriptors (the local update rule of Deutsch & Hayden, "Information flow
in entangled quantum systems", Proc. R. Soc. A 456 (2000),
quant-ph/9906007).  A gate G maps a target's generators to the images of
G^dagger P G written in the targets' current generators:

* H swaps (qx, qz); X negates qz, Z negates qx, Y negates both;
* ROTY(theta): qx <- cos(theta) qx + sin(theta) qz,
  qz <- cos(theta) qz - sin(theta) qx;
* CNOT(c, t): qx_c <- qx_c qx_t and qz_t <- qz_c qz_t; qz_c and qx_t are
  unchanged.

Each component is a read-only *Pauli sum* {(x_bits, z_bits): coeff}, the
sum of coeff X^x Z^z with qubit k at bit n-1-k (Gottesman, quant-ph/9807006).
Every gate above is real orthogonal, so coefficients stay real; products
follow X^x1 Z^z1 X^x2 Z^z2 = (-1)^popcount(z1 & x2) X^(x1^x2) Z^(z1^z2),
and only exact zeros are dropped.  A sum of more than :data:`MAX_TERMS`
strings raises, as does a network of more than :data:`MAX_NETWORK_QUBITS`
qubits.  Untouched qubits keep their Descriptor objects, so locality
is a structural property of the data and :func:`locality_audit` demands
exact equality, not a tolerance.

Outcome statistics are *branch measures*: the squared-amplitude weight of a
history, the expectation of a projector in the reference state.  As
<0...0| X^x Z^z |0...0> = [x = 0], a measure reads the coefficients of the
strings with no X bit.  A joint record's measure folds its outcome
projectors into one sum; :func:`record_measures` folds all 2**k records on
k qubits depth first, so records sharing a prefix share its fold steps, and
:func:`joint_measure` walks one path through the same steps.  The
state-vector oracle in
:mod:`chsh_local.statevector` is a second, independent route to every such
number (the two share gate-matrix constants, no application code), and
:mod:`chsh_local.verify` runs the audits.  A network holds only its
descriptors, so the audits' dense route, capped at ``MAX_QUBITS``, takes the
circuit it audits as an argument.  :func:`cumulative_unitary` applies each
gate to the unitary's rows (a 2x2 mix of row pairs, or a row permutation
for CNOT), and :func:`recomputed_components` conjugates the initial Paulis
by it, sharing nothing with the update rule.  No embedded gate matrix is
formed; :func:`embedded_gate` builds one by folding :func:`linalg.tensor`
over its n single-qubit factors, as the tests' Kronecker reference.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import reduce
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL, MAX_QUBITS

#: Branch measures at or below this are treated as an impossible history;
#: conditioning on one is a caller bug, not a 0/0.
ZERO_MEASURE = 1e-12

#: Most Pauli strings one sum may hold.  A CNOT or joint-measure step
#: multiplies two sums term by term, so two capped sums form at most
#: 512**2 = 262144 strings before the check: about 0.4 s and 50 MiB.  512
#: holds every sum on four qubits (4**4 strings); wider registers fit while
#: their sums stay this short, as Clifford circuits' do (one string each).
MAX_TERMS = 512

#: Most qubits :func:`init_network` builds.  Qubit k's one-term sums are
#: keyed by (n - k)-bit ints, so a fresh network holds about n**2 / 8 bytes
#: of key digits besides its per-qubit dicts: memory grows as n**2, measured
#: (getrusage, fresh process) at 20 MiB for n = 10**4, 67 MiB for 2 * 10**4
#: and 237 MiB for 4 * 10**4.  10**4 keeps a fresh network near 20 MiB and
#: 0.1 s.
MAX_NETWORK_QUBITS = 10_000

_SINGLE_QUBIT_GATES = ("X", "Y", "Z", "H", "ROTY")
GATE_NAMES = _SINGLE_QUBIT_GATES + ("CNOT",)

#: A descriptor component: read-only {(x_bits, z_bits): coeff}.
PauliSum = Mapping[tuple[int, int], float]

#: The identity as a Pauli sum: where every outcome-record fold starts.
_IDENTITY: PauliSum = MappingProxyType({(0, 0): 1.0})


def as_index(value, name: str) -> int:
    """An index or count as a plain int; a bool or a non-integer is a ValueError naming it."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an int, got {value!r}")


@dataclass(frozen=True)
class GateSpec:
    """One gate of a circuit: a name, target qubits, and an optional angle.

    CNOT targets are ordered (control, target).  The only parametrized gate
    is ROTY, carrying the rotation angle in radians.
    """

    name: str
    targets: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self):
        targets = tuple([as_index(t, "target") for t in self.targets])
        object.__setattr__(self, "targets", targets)
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")
        arity = 2 if self.name == "CNOT" else 1
        if len(targets) != arity:
            raise ValueError(f"{self.name} takes {arity} target(s), got {targets}")
        if len(set(targets)) != arity:
            raise ValueError(f"targets must be distinct, got {targets}")
        if min(targets) < 0:
            raise ValueError(f"targets must be >= 0, got {targets}")
        if self.name == "ROTY":
            if self.theta is None or not np.isfinite(self.theta):
                raise ValueError(f"ROTY needs a finite angle, got {self.theta}")
        elif self.theta is not None:
            raise ValueError(f"{self.name} takes no angle")

    def validate_for(self, n: int) -> None:
        if any(t >= n for t in self.targets):
            raise ValueError(f"gate {self.name} targets {self.targets} out of range for n={n}")

    @classmethod
    def x(cls, q: int) -> "GateSpec":
        return cls("X", (q,))

    @classmethod
    def y(cls, q: int) -> "GateSpec":
        return cls("Y", (q,))

    @classmethod
    def z(cls, q: int) -> "GateSpec":
        return cls("Z", (q,))

    @classmethod
    def h(cls, q: int) -> "GateSpec":
        return cls("H", (q,))

    @classmethod
    def roty(cls, theta: float, q: int) -> "GateSpec":
        return cls("ROTY", (q,), theta)

    @classmethod
    def cnot(cls, control: int, target: int) -> "GateSpec":
        return cls("CNOT", (control, target))


class OutcomeSpec(NamedTuple):
    """A z-basis outcome on one qubit: 0 is the +1 eigenvalue, 1 the -1."""

    qubit: int
    outcome: int

    @classmethod
    def checked(cls, o, n: int) -> "OutcomeSpec":
        """A (qubit, outcome) pair as an OutcomeSpec, checked against an n-qubit register."""
        qubit, outcome = as_index(o[0], "qubit"), as_index(o[1], "outcome")
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        if outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {outcome}")
        return cls(qubit, outcome)

    @classmethod
    def checked_record(cls, outcomes, n: int) -> list["OutcomeSpec"]:
        """A joint outcome record as OutcomeSpecs, each checked, on distinct qubits.

        A qubit list is checked as the record of outcome 0 on each qubit.
        """
        # A list, not tuple() of a generator: called once per record, the
        # generator form made resident memory creep up by about 0.5 MiB
        # before levelling off (CPython 3.11).
        specs = [cls.checked(o, n) for o in outcomes]
        qubits = [s.qubit for s in specs]
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"outcome qubits must be distinct, got {qubits}")
        return specs


@dataclass(frozen=True)
class Descriptor:
    """Evolved Pauli generator pair of one qubit, each a Pauli sum."""

    qubit_id: int
    qx: PauliSum
    qz: PauliSum

    def __reduce__(self):
        # A MappingProxyType cannot be pickled or deep-copied: send plain
        # dicts and freeze them again on the way back.
        return _frozen_descriptor, (self.qubit_id, dict(self.qx), dict(self.qz))


def _frozen_descriptor(qubit_id: int, qx: dict, qz: dict) -> Descriptor:
    return Descriptor(qubit_id, MappingProxyType(qx), MappingProxyType(qz))


@dataclass(frozen=True)
class DescriptorNetwork:
    """Ordered descriptors of an n-qubit register, and nothing else.

    The descriptors are the whole state: gate application and the measures
    read only them, and equal descriptors make equal networks whatever
    circuits built them.  Networks are values: gate application returns a
    new network and never mutates a sum, so networks may evolve in parallel.
    """

    n: int
    descriptors: tuple[Descriptor, ...]


def cumulative_unitary(n: int, gates: Iterable[GateSpec]) -> np.ndarray:
    """Audit-only dense unitary of an n-qubit circuit, latest gate on the left.

    Each gate acts on the rows of U, O(4**n) per gate, not by a matmul with
    its embedded matrix: a single-qubit gate u on qubit k mixes the row
    pairs that differ in bit n-1-k (u along axis 1 of U reshaped to
    (2**k, 2, -1)), and CNOT(c, t) flips bit n-1-t of the rows whose bit
    n-1-c is set.
    """
    _check_dense(n)
    dim = 2**n
    rows = np.arange(dim)
    unitary = linalg.identity(dim)
    for g in gates:
        g.validate_for(n)
        if g.name == "CNOT":
            c, t = g.targets
            unitary = unitary[rows ^ (((rows >> (n - 1 - c)) & 1) << (n - 1 - t))]
        else:
            u = linalg.single_qubit_gate(g.name, g.theta)
            unitary = (u @ unitary.reshape(2 ** g.targets[0], 2, -1)).reshape(dim, dim)
    return unitary


def _check_dense(n: int) -> None:
    if n > MAX_QUBITS:
        raise ValueError(f"the dense audit route handles at most {MAX_QUBITS} qubits, got {n}")


def embedded_gate(g: GateSpec, n: int) -> np.ndarray:
    """Full 2**n matrix of a gate: :func:`linalg.tensor` folded over its n factors.

    The reference that tests compare the audit route's row updates against;
    no program path calls it.
    """
    _check_dense(n)
    g.validate_for(n)
    factors = [linalg.identity(2)] * n
    if g.name != "CNOT":
        factors[g.targets[0]] = linalg.single_qubit_gate(g.name, g.theta)
        return reduce(linalg.tensor, factors)
    control, target = g.targets
    on_one = list(factors)
    factors[control] = np.diag([1.0, 0.0])
    on_one[control], on_one[target] = np.diag([0.0, 1.0]), linalg.X
    return reduce(linalg.tensor, factors) + reduce(linalg.tensor, on_one)


def to_dense(component: PauliSum, n: int) -> np.ndarray:
    """Dense 2**n matrix of a Pauli sum on n qubits (audit route only)."""
    _check_dense(n)
    dim = 2**n
    cols = np.arange(dim)
    m = np.zeros((dim, dim), dtype=complex)
    for (x, z), c in component.items():
        # X^x Z^z |j> = (-1)^popcount(j & z) |j ^ x>.
        m[cols ^ x, cols] += [-c if (j & z).bit_count() & 1 else c for j in range(dim)]
    return m


def _pauli_sum(acc: dict) -> PauliSum:
    """Freeze accumulated terms, dropping exact zeros; more than MAX_TERMS raise."""
    terms = {key: coeff for key, coeff in acc.items() if coeff != 0.0}
    if len(terms) > MAX_TERMS:
        raise ValueError(f"a Pauli sum of {len(terms)} strings exceeds the term cap {MAX_TERMS}")
    return MappingProxyType(terms)


def _product(a: PauliSum, b: PauliSum) -> PauliSum:
    """The operator product a . b, by the product rule in the module docstring."""
    acc = {}
    for (x1, z1), c1 in a.items():
        for (x2, z2), c2 in b.items():
            key = (x1 ^ x2, z1 ^ z2)
            c = -c1 * c2 if (z1 & x2).bit_count() & 1 else c1 * c2
            acc[key] = acc.get(key, 0.0) + c
    return _pauli_sum(acc)


def _combine(*scaled: tuple[float, PauliSum]) -> PauliSum:
    """The linear combination w1 s1 + w2 s2 + ... of (w, s) pairs."""
    acc = {}
    for w, s in scaled:
        for key, c in s.items():
            acc[key] = acc.get(key, 0.0) + w * c
    return _pauli_sum(acc)


def _reference_expectation(s: PauliSum) -> float:
    """<0...0| s |0...0>: the coefficients of the strings with no X bit."""
    return float(sum(c for (x, _), c in s.items() if x == 0))


def init_network(n: int) -> DescriptorNetwork:
    """Fresh n-qubit network: descriptor k holds the one-term sums X_k and Z_k.

    n runs from 1 to :data:`MAX_NETWORK_QUBITS`.
    """
    n = as_index(n, "qubit count")
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    if n > MAX_NETWORK_QUBITS:
        raise ValueError(
            f"qubit count {n} exceeds the network cap MAX_NETWORK_QUBITS = {MAX_NETWORK_QUBITS}"
        )
    descriptors = tuple(
        Descriptor(
            qubit_id=k,
            qx=MappingProxyType({(1 << (n - 1 - k), 0): 1.0}),
            qz=MappingProxyType({(0, 1 << (n - 1 - k)): 1.0}),
        )
        for k in range(n)
    )
    return DescriptorNetwork(n=n, descriptors=descriptors)


def _single_qubit_update(g: GateSpec, qx: PauliSum, qz: PauliSum) -> tuple[PauliSum, PauliSum]:
    """New (qx, qz) of a single-qubit gate's target from its current pair."""
    if g.name == "H":
        return qz, qx
    if g.name == "X":
        return qx, _combine((-1.0, qz))
    if g.name == "Z":
        return _combine((-1.0, qx)), qz
    if g.name == "Y":
        return _combine((-1.0, qx)), _combine((-1.0, qz))
    c, s = math.cos(g.theta), math.sin(g.theta)
    return _combine((c, qx), (s, qz)), _combine((c, qz), (-s, qx))


def apply_gate(net: DescriptorNetwork, g: GateSpec) -> DescriptorNetwork:
    """Apply a gate, rewriting only the targeted qubits' descriptors.

    Each new target descriptor is computed from the targets' current
    descriptors by the local update rule in the module docstring: sign
    flips, a swap or a rotation for single-qubit gates, and one Pauli-sum
    product per changed component for CNOT.  No cumulative unitary is
    formed.  Non-targets keep their Descriptor objects, object identity
    included.
    """
    g.validate_for(net.n)
    if g.name == "CNOT":
        c, t = g.targets
        dc, dt = net.descriptors[c], net.descriptors[t]
        updated = {
            c: Descriptor(qubit_id=c, qx=_product(dc.qx, dt.qx), qz=dc.qz),
            t: Descriptor(qubit_id=t, qx=dt.qx, qz=_product(dc.qz, dt.qz)),
        }
    else:
        (k,) = g.targets
        d = net.descriptors[k]
        qx, qz = _single_qubit_update(g, d.qx, d.qz)
        updated = {k: Descriptor(qubit_id=k, qx=qx, qz=qz)}
    descriptors = tuple(updated.get(k, d) for k, d in enumerate(net.descriptors))
    return DescriptorNetwork(n=net.n, descriptors=descriptors)


def apply_circuit(net: DescriptorNetwork, gates: Iterable[GateSpec]) -> DescriptorNetwork:
    """Fold :func:`apply_gate` over a gate sequence."""
    for g in gates:
        net = apply_gate(net, g)
    return net


def branch_measure(net: DescriptorNetwork, o) -> float:
    """Measure of the history where qubit's z-readout shows `outcome`.

    Reads <0...0| (I + (-1)**outcome qz) / 2 |0...0> from qz's strings
    with no X bit.  Measures of the two outcomes of any qubit sum to 1.
    """
    o = OutcomeSpec.checked(o, net.n)
    sign = 1.0 if o.outcome == 0 else -1.0
    return (1.0 + sign * _reference_expectation(net.descriptors[o.qubit].qz)) / 2.0


def _child(m: PauliSum, mq: PauliSum, outcome: int) -> PauliSum:
    """One fold step M <- (M + sign M qz) / 2, given the product mq = M qz."""
    sign = 1.0 if outcome == 0 else -1.0
    return _combine((0.5, m), (0.5 * sign, mq))


def _last_reads(m: PauliSum, qz: PauliSum) -> tuple[float, float]:
    """<0...0| (M + sign M qz) / 2 |0...0> for outcomes 0 and 1.

    Forms only the x = 0 strings of M qz, the only ones read, once for both
    outcomes and in the order the full product would form them, so each
    read is bit-identical to the full fold's.  That product is not held to
    :data:`MAX_TERMS`.
    """
    # X^x1 Z^z1 X^x2 Z^z2 has no X bit only when x1 == x2.
    product = {}
    for (x1, z1), c1 in m.items():
        for (x2, z2), c2 in qz.items():
            if x1 == x2:
                c = -c1 * c2 if (z1 & x2).bit_count() & 1 else c1 * c2
                product[z1 ^ z2] = product.get(z1 ^ z2, 0.0) + c
    base = {z: 0.5 * c for (x, z), c in m.items() if x == 0}
    reads = []
    for sign in (1.0, -1.0):
        read = dict(base)
        for z, c in product.items():
            read[z] = read.get(z, 0.0) + 0.5 * sign * c
        reads.append(float(sum(read.values())))
    return reads[0], reads[1]


def joint_measure(net: DescriptorNetwork, outcomes) -> float:
    """Measure of a joint outcome record on distinct qubits (1 if empty).

    Folds the outcome projectors into one Pauli sum, M <- (M + sign M qz) / 2
    from M = I, and reads <0...0| M |0...0>: one path of the fold that
    :func:`record_measures` walks in full, through the same steps.  The
    projectors commute, so order is irrelevant; the picture equivalence
    suite checks both orders.
    """
    specs = OutcomeSpec.checked_record(outcomes, net.n)
    if not specs:
        return 1.0
    m = _IDENTITY
    for s in specs[:-1]:
        qz = net.descriptors[s.qubit].qz
        m = _child(m, _product(m, qz), s.outcome)
    last = specs[-1]
    return _last_reads(m, net.descriptors[last.qubit].qz)[last.outcome]


def record_measures(net: DescriptorNetwork, qubits) -> tuple[float, ...]:
    """Measures of all 2**k outcome records on k distinct qubits ((1.0,) if none).

    Entry j is :func:`joint_measure` of the record whose outcome bits,
    qubits[0] most significant, spell j, and is bit-identical to it.  The
    fold runs depth first from M = I: each node forms M qz once for both
    children, and the last step reads both outcomes from one x1 == x2
    product, so shared record prefixes are folded once.
    """
    specs = OutcomeSpec.checked_record([(q, 0) for q in qubits], net.n)
    qzs = [net.descriptors[s.qubit].qz for s in specs]
    return _fold_records(_IDENTITY, qzs) if qzs else (1.0,)


def _fold_records(m: PauliSum, qzs: list[PauliSum]) -> tuple[float, ...]:
    """Reads of every continuation of the fold at M over the qzs, outcome 0 first."""
    if len(qzs) == 1:
        return _last_reads(m, qzs[0])
    mq = _product(m, qzs[0])
    return _fold_records(_child(m, mq, 0), qzs[1:]) + _fold_records(_child(m, mq, 1), qzs[1:])


def conditional_measure(net: DescriptorNetwork, given, then) -> float:
    """Share of the `given` branch that also carries the `then` record."""
    given = OutcomeSpec.checked(given, net.n)
    then = OutcomeSpec.checked(then, net.n)
    if given.qubit == then.qubit:
        raise ValueError(f"conditional outcomes must be on distinct qubits, got {given.qubit}")
    base = branch_measure(net, given)
    if base <= ZERO_MEASURE:
        raise ValueError(
            f"conditioning on a zero-measure branch (qubit {given.qubit}, "
            f"outcome {given.outcome}, measure {base:.3e})"
        )
    return joint_measure(net, [given, then]) / base


def recomputed_components(
    n: int, gates: Iterable[GateSpec], qubit: int
) -> tuple[np.ndarray, np.ndarray]:
    """Audit route: (qx, qz) of a qubit as dagger(U) P U, U the circuit's cumulative unitary.

    X_k U is U with the rows that differ in bit n-1-k swapped, and Z_k U is U
    with the rows whose bit n-1-k is set negated; one product by dagger(U)
    each.
    """
    qubit = as_index(qubit, "qubit")
    if not 0 <= qubit < n:
        raise ValueError(f"qubit {qubit} out of range for n={n}")
    u = cumulative_unitary(n, gates)
    ud = linalg.dagger(u)
    rows = np.arange(2**n)
    bit = 1 << (n - 1 - qubit)
    qx = ud @ u[rows ^ bit]
    qz = ud @ (np.where(rows & bit, -1.0, 1.0)[:, None] * u)
    return qx, qz


def locality_audit(
    n: int, prelude: Iterable[GateSpec], watched: int, remote_ops: Iterable[GateSpec]
) -> bool:
    """Check that gates avoiding `watched` leave its descriptor untouched.

    Across `remote_ops` applied after `prelude` on n qubits, the stored sums
    must come back exactly equal (no tolerance: gate application never
    rewrites a non-target), and the dense recomputation from the whole
    circuit's unitary, which does not use the local update rule, must agree
    with their dense forms within the default tolerance.
    """
    prelude, remote_ops = list(prelude), list(remote_ops)
    for g in remote_ops:
        if watched in g.targets:
            raise ValueError(f"remote op {g.name} targets the watched qubit {watched}")
    # Also rejects a watched qubit outside [0, n) before it indexes a network.
    qx_audit, qz_audit = recomputed_components(n, prelude + remote_ops, watched)
    net = apply_circuit(init_network(n), prelude)
    before = net.descriptors[watched]
    after = apply_circuit(net, remote_ops).descriptors[watched]
    consistent = (
        linalg.frobenius_distance(qx_audit, to_dense(after.qx, n)) <= DEFAULT_TOL
        and linalg.frobenius_distance(qz_audit, to_dense(after.qz, n)) <= DEFAULT_TOL
    )
    return after == before and consistent
