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

Each component is a read-only *Pauli sum* {key: coeff}, the sum of coeff
X^x Z^z with qubit k at bit n-1-k of the n-bit ints x and z (Gottesman,
quant-ph/9807006).  A string's key is the one int ``x << n | z``, the
binary (x | z) form of Aaronson & Gottesman (quant-ph/0406196).  Every gate
above is real orthogonal, so coefficients stay real; products follow
X^x1 Z^z1 X^x2 Z^z2 = (-1)^popcount(z1 & x2) X^(x1^x2) Z^(z1^z2), so a
product's key is ``k1 ^ k2`` and its sign the parity of ``k1 & (k2 >> n)``,
and only exact zeros are dropped.  A sum of more than :data:`MAX_TERMS`
strings raises, as does a network of more than :data:`MAX_NETWORK_QUBITS`
qubits.  :func:`apply_circuit` is the engine's one gate loop: it copies the
descriptors into a list once, rewrites each gate's target entries in place
and freezes the list at the end, so a circuit costs its gates' updates plus
one O(n) copy; :func:`apply_gate` is its one-gate case.  Untouched qubits
keep their Descriptor objects, so locality is a structural property of the
data and :func:`locality_audit` demands exact equality, not a tolerance.

Outcome statistics are *branch measures*: the squared-amplitude weight of a
history, the expectation of a projector in the reference state.  As
<0...0| X^x Z^z |0...0> = [x = 0], a measure reads the coefficients of the
strings with no X bit, the keys with ``k >> n == 0``.  Every measure is a
record read: a joint record's measure folds its outcome projectors into one
sum, and :func:`record_measures` folds all 2**k records on k qubits depth
first, so records sharing a prefix share its fold steps.
:func:`joint_measure` reads one record's entry from it,
:func:`branch_measure` is the one-outcome record, and
:func:`conditional_measure` divides two entries.  The fold's last step,
``_last_reads``, is the engine's one float boundary, the only place a
sum's coefficients become a returned float.  :func:`checked_record` and
:func:`checked_qubits` check a record or its qubit list for the engine and
the oracle alike.  The state-vector
oracle in :mod:`chsh_local.statevector` is a second, independent route to
every such number (the two share gate-matrix constants, no application
code), and :mod:`chsh_local.verify` runs the audits.  A network holds only
its descriptors, so the audits' dense route, capped at ``MAX_QUBITS``, takes
the circuit it audits as an argument.  :func:`cumulative_unitary` applies
each gate to the unitary's rows (a 2x2 mix of row pairs, or a row
permutation for CNOT), and :func:`recomputed_components` conjugates the
initial Paulis by it, sharing nothing with the update rule.  No embedded
gate matrix is formed; :func:`embedded_gate` builds one by folding
:func:`linalg.tensor` over its n single-qubit factors, as the tests'
Kronecker reference.
"""

from __future__ import annotations

import math
import numbers
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
#: 512**2 = 262144 strings before the check: about 0.17 s and 24 MiB
#: (tracemalloc) for two random sums on 10 qubits.  512 holds every sum on
#: four qubits (4**4 strings); wider registers fit while their sums stay
#: this short, as Clifford circuits' do (one string each).
MAX_TERMS = 512

#: Most qubits :func:`init_network` builds.  Qubit k's keys X_k and Z_k are
#: ints of 2n - k and n - k bits, so a fresh network holds about n**2 / 4
#: bytes of key digits besides its per-qubit dicts: memory grows as n**2,
#: measured (getrusage, fresh process) at +2.1 MiB for n = 2500, +8.0 MiB for
#: 5000 and +30.4 MiB for 10**4.  10**4 keeps a fresh network near 30 MiB and
#: 0.06 s.
MAX_NETWORK_QUBITS = 10_000

#: Each gate's number of targets.
_ARITY = {"X": 1, "Y": 1, "Z": 1, "H": 1, "ROTY": 1, "CNOT": 2}
GATE_NAMES = tuple(_ARITY)

#: A descriptor component: read-only {x << n | z: coeff} on n qubits.
PauliSum = Mapping[int, float]


def as_index(value, name: str) -> int:
    """An index or count as a plain int; a bool or a non-integer is a ValueError naming it."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an int, got {value!r}")


def as_items(value, name: str) -> list:
    """The items of an iterable as a list; any other value is a ValueError naming it."""
    try:
        items = iter(value)
    except TypeError:
        raise ValueError(f"{name} must be a sequence, got {value!r}") from None
    return list(items)


def check_angle(value, name: str) -> None:
    """Reject an angle that is not a finite real number (a bool is not one), naming it."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Real) and math.isfinite(value)):
        raise ValueError(f"{name} needs a finite real angle, got {value!r}")


class _Gate(NamedTuple):
    name: str
    targets: tuple[int, ...]
    theta: float | None = None


class GateSpec(_Gate):
    """One gate of a circuit: a name, target qubits, and an optional angle.

    CNOT targets are ordered (control, target).  The only parametrized gate
    is ROTY, carrying the rotation angle in radians.  Construction checks
    every field, and targets come back as a tuple of plain ints.
    """

    __slots__ = ()

    def __new__(cls, name: str, targets, theta: float | None = None):
        if type(targets) is not tuple or not all(type(t) is int for t in targets):
            targets = tuple([as_index(t, "target") for t in as_items(targets, "targets")])
        # A name that is not a str (even an unhashable one) is unknown too.
        arity = _ARITY.get(name) if isinstance(name, str) else None
        if arity is None:
            raise ValueError(f"unknown gate {name!r}")
        if len(targets) != arity:
            raise ValueError(f"{name} takes {arity} target(s), got {targets}")
        if arity == 2 and targets[0] == targets[1]:
            raise ValueError(f"targets must be distinct, got {targets}")
        if min(targets) < 0:
            raise ValueError(f"targets must be >= 0, got {targets}")
        if name == "ROTY":
            check_angle(theta, "ROTY")
        elif theta is not None:
            raise ValueError(f"{name} takes no angle")
        return tuple.__new__(cls, (name, targets, theta))

    @classmethod
    def _make(cls, iterable) -> "GateSpec":
        # The tuple's _make, which _replace calls, would skip the checks.
        return cls(*iterable)

    def validate_for(self, n: int) -> None:
        if max(self.targets) >= n:
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


def _check_distinct(qubits: list[int]) -> None:
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"outcome qubits must be distinct, got {qubits}")


def checked_record(outcomes, n: int) -> tuple[list[int], int]:
    """A joint outcome record's qubits and its index among the 2**k records on them.

    Each item must be a (qubit, outcome) pair: a qubit int in [0, n) and an
    outcome 0 (the +1 eigenvalue of z) or 1 (the -1), checked item by item;
    then the qubits must be distinct.  The qubits come back as plain ints in
    record order, and the outcome bits, first item most significant, spell
    the index: the entry order of :func:`record_measures` and
    :func:`chsh_local.statevector.record_probabilities`.
    """
    qubits, index = [], 0
    for o in as_items(outcomes, "outcomes"):
        try:
            qubit, outcome = o
        except (TypeError, ValueError):
            raise ValueError(f"an outcome must be a (qubit, outcome) pair, got {o!r}") from None
        qubit, outcome = as_index(qubit, "qubit"), as_index(outcome, "outcome")
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        if outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {outcome}")
        qubits.append(qubit)
        index = index << 1 | outcome
    _check_distinct(qubits)
    return qubits, index


def checked_qubits(qubits, n: int) -> list[int]:
    """A record's qubit list as plain ints in [0, n), distinct.

    Item by item, as :func:`checked_record` checks the record of outcome 0
    on each qubit, so the first bad item gives the same message.
    """
    checked = []
    for q in as_items(qubits, "qubits"):
        q = as_index(q, "qubit")
        if not 0 <= q < n:
            raise ValueError(f"qubit {q} out of range for n={n}")
        checked.append(q)
    _check_distinct(checked)
    return checked


class Descriptor(NamedTuple):
    """Evolved Pauli generator pair of one qubit, each a Pauli sum."""

    qx: PauliSum
    qz: PauliSum

    def __reduce__(self):
        # A MappingProxyType cannot be pickled or deep-copied: send plain
        # dicts and freeze them again on the way back.
        return _frozen_descriptor, (dict(self.qx), dict(self.qz))


def _frozen_descriptor(qx: dict, qz: dict) -> Descriptor:
    return Descriptor(MappingProxyType(qx), MappingProxyType(qz))


@dataclass(frozen=True)
class DescriptorNetwork:
    """Ordered descriptors of an n-qubit register, and nothing else.

    The descriptors are the whole state: gate application and the measures
    read only them, and equal descriptors make equal networks whatever
    circuits built them.  Networks are values: gate application returns a
    new network and never mutates a sum, so networks may evolve in parallel.
    """

    descriptors: tuple[Descriptor, ...]

    @property
    def n(self) -> int:
        """Register size: the number of descriptors."""
        return len(self.descriptors)


def cumulative_unitary(n: int, gates: Iterable[GateSpec]) -> np.ndarray:
    """Audit-only dense unitary of an n-qubit circuit, latest gate on the left.

    Each gate acts on the rows of U, O(4**n) per gate, not by a matmul with
    its embedded matrix: a single-qubit gate u on qubit k mixes the row
    pairs that differ in bit n-1-k (u along axis 1 of U reshaped to
    (2**k, 2, -1)), and CNOT(c, t) flips bit n-1-t of the rows whose bit
    n-1-c is set.
    """
    n = _check_dense(n)
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


def _check_dense(n) -> int:
    """A dense-route qubit count as a plain int in [1, MAX_QUBITS]."""
    n = as_index(n, "qubit count")
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"the dense audit route takes a qubit count in [1, {MAX_QUBITS}], got {n}")
    return n


def embedded_gate(g: GateSpec, n: int) -> np.ndarray:
    """Full 2**n matrix of a gate: :func:`linalg.tensor` folded over its n factors.

    The reference that tests compare the audit route's row updates against;
    no program path calls it.
    """
    n = _check_dense(n)
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
    n = _check_dense(n)
    dim = 2**n
    cols = np.arange(dim)
    m = np.zeros((dim, dim), dtype=complex)
    for key, c in component.items():
        x, z = key >> n, key & (dim - 1)
        # X^x Z^z |j> = (-1)^popcount(j & z) |j ^ x>.
        m[cols ^ x, cols] += [-c if (j & z).bit_count() & 1 else c for j in range(dim)]
    return m


def _pauli_sum(acc: dict) -> PauliSum:
    """Freeze accumulated terms, dropping exact zeros; more than MAX_TERMS raise.

    The accumulator itself is frozen unless it holds an exact zero.
    """
    if 0.0 in acc.values():
        acc = {key: coeff for key, coeff in acc.items() if coeff != 0.0}
    if len(acc) > MAX_TERMS:
        raise ValueError(f"a Pauli sum of {len(acc)} strings exceeds the term cap {MAX_TERMS}")
    return MappingProxyType(acc)


def _product(a: PauliSum, b: PauliSum, n: int) -> PauliSum:
    """The operator product a . b on n qubits, by the product rule in the module docstring."""
    acc = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = k1 ^ k2
            c = -c1 * c2 if (k1 & (k2 >> n)).bit_count() & 1 else c1 * c2
            acc[key] = acc.get(key, 0.0) + c
    return _pauli_sum(acc)


def _combine(*scaled: tuple[float, PauliSum]) -> PauliSum:
    """The linear combination w1 s1 + w2 s2 + ... of (w, s) pairs."""
    acc = {}
    for w, s in scaled:
        for key, c in s.items():
            acc[key] = acc.get(key, 0.0) + w * c
    return _pauli_sum(acc)


def _negated(s: PauliSum) -> PauliSum:
    """-s in s's key order; a stored sum holds no exact zero, so there is none to drop."""
    return MappingProxyType({key: -c for key, c in s.items()})


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
    # Qubit k is bit j = n-1-k of z, so X_k is the key 1 << (n + j).
    descriptors = tuple([
        Descriptor(MappingProxyType({1 << (n + j): 1.0}), MappingProxyType({1 << j: 1.0}))
        for j in reversed(range(n))
    ])
    return DescriptorNetwork(descriptors=descriptors)


def _single_qubit_update(g: GateSpec, qx: PauliSum, qz: PauliSum) -> tuple[PauliSum, PauliSum]:
    """New (qx, qz) of a single-qubit gate's target from its current pair."""
    if g.name == "H":
        return qz, qx
    if g.name == "X":
        return qx, _negated(qz)
    if g.name == "Z":
        return _negated(qx), qz
    if g.name == "Y":
        return _negated(qx), _negated(qz)
    c, s = math.cos(g.theta), math.sin(g.theta)
    return _combine((c, qx), (s, qz)), _combine((c, qz), (-s, qx))


def apply_gate(net: DescriptorNetwork, g: GateSpec) -> DescriptorNetwork:
    """Apply one gate: :func:`apply_circuit` on the one-gate circuit ``(g,)``."""
    return apply_circuit(net, (g,))


def apply_circuit(net: DescriptorNetwork, gates: Iterable[GateSpec]) -> DescriptorNetwork:
    """Apply a gate sequence, rewriting only each gate's targets' descriptors.

    Each gate is checked against the register, then its targets' new
    descriptors are computed from their current ones by the local update
    rule in the module docstring: sign flips, a swap or a rotation for
    single-qubit gates, and one Pauli-sum product per changed component for
    CNOT.  No cumulative unitary is formed.  The descriptors are copied
    once and frozen at the end, so a gate that raises leaves `net` as it
    was, and qubits no gate targets keep their Descriptor objects, object
    identity included.
    """
    updated = list(net.descriptors)
    n = len(updated)
    for g in gates:
        g.validate_for(n)
        if g.name == "CNOT":
            c, t = g.targets
            (cx, cz), (tx, tz) = updated[c], updated[t]
            updated[c] = Descriptor(_product(cx, tx, n), cz)
            updated[t] = Descriptor(tx, _product(cz, tz, n))
        else:
            (k,) = g.targets
            updated[k] = Descriptor(*_single_qubit_update(g, *updated[k]))
    return DescriptorNetwork(descriptors=tuple(updated))


def branch_measure(net: DescriptorNetwork, o) -> float:
    """Measure of the history where qubit's z-readout shows outcome, o = (qubit, outcome).

    The one-outcome record's read, :func:`joint_measure` of ``[o]``:
    <0...0| (I + (-1)**outcome qz) / 2 |0...0> from the fold's last step.
    Measures of the two outcomes of any qubit sum to 1.
    """
    return joint_measure(net, [o])


def _last_reads(m: PauliSum, qz: PauliSum, n: int) -> tuple[float, float]:
    """<0...0| (M + sign M qz) / 2 |0...0> for outcomes 0 and 1, on n qubits.

    Forms only the x = 0 strings of M qz, the only ones read, once for both
    outcomes and in the order the full product would form them, so each
    read is bit-identical to the full fold's.  That product is not held to
    :data:`MAX_TERMS`.
    """
    # X^x1 Z^z1 X^x2 Z^z2 has no X bit only when x1 == x2, and then its
    # key k1 ^ k2 is z1 ^ z2 and its sign the parity of z1 & x1.
    product = {}
    for k1, c1 in m.items():
        x1 = k1 >> n
        for k2, c2 in qz.items():
            if k2 >> n == x1:
                c = -c1 * c2 if (k1 & x1).bit_count() & 1 else c1 * c2
                product[k1 ^ k2] = product.get(k1 ^ k2, 0.0) + c
    zero, one = _halves({z: 0.5 * c for z, c in m.items() if z >> n == 0}, product)
    return float(sum(zero.values())), float(sum(one.values()))


def _halves(half: dict, product: PauliSum) -> tuple[dict, dict]:
    """half + product / 2 and half - product / 2, in one pass over product.

    `half` holds M's halved coefficients and becomes the first result.  Each
    key gets the same operations, and each result the same key order, as the
    separate combinations 0.5 M + 0.5 P and 0.5 M - 0.5 P would give.
    """
    zero, one = half, dict(half)
    for key, c in product.items():
        h = 0.5 * c
        zero[key] = zero.get(key, 0.0) + h
        one[key] = one.get(key, 0.0) - h
    return zero, one


def joint_measure(net: DescriptorNetwork, outcomes) -> float:
    """Measure of a joint outcome record on distinct qubits (1 if empty).

    The record's entry of :func:`record_measures` on its qubits, in record
    order.  The projectors commute, so order is irrelevant; the picture
    equivalence suite checks both orders.
    """
    qubits, index = checked_record(outcomes, net.n)
    return record_measures(net, qubits)[index]


def record_measures(net: DescriptorNetwork, qubits) -> tuple[float, ...]:
    """Measures of all 2**k outcome records on k distinct qubits ((1.0,) if none).

    Entry j is the measure of the record whose outcome bits, qubits[0] most
    significant, spell j: <0...0| M |0...0> for the outcome projectors
    folded into one Pauli sum, M <- (M + sign M qz) / 2 from M = I.  The
    fold runs depth first: each node forms M qz once for both children, and
    the last step reads both outcomes from one x1 == x2 product, so shared
    record prefixes are folded once.
    """
    qzs = [net.descriptors[q].qz for q in checked_qubits(qubits, net.n)]
    return _fold_records({0: 1.0}, qzs, net.n) if qzs else (1.0,)


def _fold_records(m: PauliSum, qzs: list[PauliSum], n: int) -> tuple[float, ...]:
    """Reads of every continuation of the fold at M over the qzs on n qubits, outcome 0 first.

    Both children of a node, (M + M qz) / 2 and (M - M qz) / 2, come from one
    pass over M and one over M qz (:func:`_halves`), and both are frozen
    before either is folded on.  A combination would start each of M's
    coefficients from 0.0 + 0.5 c, which is 0.5 c except for a signed zero,
    and :func:`_pauli_sum` drops zeros, so the children are bit-identical.
    """
    if len(qzs) == 1:
        return _last_reads(m, qzs[0], n)
    mq = _product(m, qzs[0], n)
    zero, one = map(_pauli_sum, _halves({key: 0.5 * c for key, c in m.items()}, mq))
    return _fold_records(zero, qzs[1:], n) + _fold_records(one, qzs[1:], n)


def conditional_measure(net: DescriptorNetwork, given, then) -> float:
    """Share of the `given` branch that also carries the `then` record.

    Both reads are record reads: the base is the `given` entry of
    :func:`record_measures` on its qubit, the joint the ``[given, then]``
    entry on both qubits, so the quotient is exactly
    ``joint_measure(net, [given, then]) / branch_measure(net, given)``.
    """
    qubits, index = checked_record([given, then], net.n)
    base = record_measures(net, qubits[:1])[index >> 1]
    if base <= ZERO_MEASURE:
        raise ValueError(
            f"conditioning on a zero-measure branch (qubit {qubits[0]}, "
            f"outcome {index >> 1}, measure {base:.3e})"
        )
    return record_measures(net, qubits)[index] / base


def recomputed_components(
    n: int, gates: Iterable[GateSpec], qubit: int
) -> tuple[np.ndarray, np.ndarray]:
    """Audit route: (qx, qz) of a qubit as dagger(U) P U, U the circuit's cumulative unitary.

    X_k U is U with the rows that differ in bit n-1-k swapped, and Z_k U is U
    with the rows whose bit n-1-k is set negated; one product by dagger(U)
    each.
    """
    n = _check_dense(n)
    (qubit,) = checked_qubits([qubit], n)
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
    n = _check_dense(n)
    (watched,) = checked_qubits([watched], n)
    prelude, remote_ops = list(prelude), list(remote_ops)
    for g in remote_ops:
        if watched in g.targets:
            raise ValueError(f"remote op {g.name} targets the watched qubit {watched}")
    qx_audit, qz_audit = recomputed_components(n, prelude + remote_ops, watched)
    net = apply_circuit(init_network(n), prelude)
    before = net.descriptors[watched]
    after = apply_circuit(net, remote_ops).descriptors[watched]
    consistent = (
        linalg.frobenius_distance(qx_audit, to_dense(after.qx, n)) <= DEFAULT_TOL
        and linalg.frobenius_distance(qz_audit, to_dense(after.qz, n)) <= DEFAULT_TOL
    )
    return after == before and consistent
