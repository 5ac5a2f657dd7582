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

Descriptors of untouched qubits are carried over verbatim, object identity
included, so locality is a structural property of the data and
:func:`locality_audit` can demand bit-for-bit equality rather than a
tolerance.

The cumulative unitary U of a network is audit-only: it is not stored but
rebuilt from the gate log on request, and :func:`recomputed_components`
conjugates the initial Paulis by it densely: a second route that shares
nothing with the update rule.

Outcome statistics are extracted as *branch measures*: the squared-amplitude
weight of a history, read as the expectation of a projector against the fixed
reference state.  Two independent routes exist for every such number, this
engine and the state-vector oracle in :mod:`chsh_local.statevector`; they
share gate-matrix constants but no application code.  Each measure is
computed once per call; the audits (oracle agreement, order independence of
joint records, locality) run in :mod:`chsh_local.verify`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from . import linalg
from .linalg import DEFAULT_TOL, MAX_QUBITS

#: Branch measures at or below this are treated as an impossible history;
#: conditioning on one is a caller bug, not a 0/0.
ZERO_MEASURE = 1e-12

_SINGLE_QUBIT_GATES = ("X", "Y", "Z", "H", "ROTY")
GATE_NAMES = _SINGLE_QUBIT_GATES + ("CNOT",)


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
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")
        arity = 2 if self.name == "CNOT" else 1
        if len(self.targets) != arity:
            raise ValueError(f"{self.name} takes {arity} target(s), got {self.targets}")
        if len(set(self.targets)) != len(self.targets):
            raise ValueError(f"targets must be distinct, got {self.targets}")
        if any(t < 0 for t in self.targets):
            raise ValueError(f"targets must be >= 0, got {self.targets}")
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


@dataclass(frozen=True)
class Descriptor:
    """Evolved Pauli generator pair of one qubit, each of full register size."""

    qubit_id: int
    qx: np.ndarray
    qz: np.ndarray

    def qy(self) -> np.ndarray:
        """Derived third component i * qx * qz; never stored."""
        return 1j * linalg.matmul(self.qx, self.qz)


@dataclass(frozen=True)
class DescriptorNetwork:
    """Ordered descriptors of an n-qubit register plus an audit trail.

    The per-qubit truth lives in the descriptors; gate application and the
    measures read only those.  The gate log is the audit trail: the
    cumulative unitary is rebuilt from it on each read, for audits only.
    Networks are values: gate application returns a new network and never
    mutates arrays, so distinct networks may evolve in parallel freely.
    """

    n: int
    descriptors: tuple[Descriptor, ...]
    gate_log: tuple[GateSpec, ...] = ()

    @property
    def dim(self) -> int:
        return 2**self.n

    @property
    def cumulative_unitary(self) -> np.ndarray:
        """Audit-only product of the embedded gates of `gate_log`, latest on the left.

        Rebuilt densely on every read (one matmul per logged gate), so it
        costs nothing on the gate-application path.
        """
        unitary = linalg.identity(self.dim)
        for g in self.gate_log:
            unitary = linalg.matmul(embedded_gate(g, self.n), unitary)
        return _frozen(unitary)


def _single_qubit_matrix(g: GateSpec) -> np.ndarray:
    if g.name == "ROTY":
        return linalg.roty(g.theta)
    return {"X": linalg.X, "Y": linalg.Y, "Z": linalg.Z, "H": linalg.H}[g.name]


def embedded_gate(g: GateSpec, n: int) -> np.ndarray:
    """Full 2**n matrix of a gate at its target slots (audit route only)."""
    g.validate_for(n)
    if g.name == "CNOT":
        control, target = g.targets
        idle = [linalg.identity(2)] * n
        on_zero = list(idle)
        on_zero[control] = linalg.P0
        on_one = list(idle)
        on_one[control] = linalg.P1
        on_one[target] = linalg.X
        return linalg.tensor_all(on_zero) + linalg.tensor_all(on_one)
    return linalg.embed_one(_single_qubit_matrix(g), g.targets[0], n)


def _frozen(m: np.ndarray) -> np.ndarray:
    m.setflags(write=False)
    return m


def init_network(n: int) -> DescriptorNetwork:
    """Fresh n-qubit network: descriptor k holds the embedded Paulis of slot k."""
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in [1, {MAX_QUBITS}], got {n}")
    descriptors = tuple(
        Descriptor(
            qubit_id=k,
            qx=_frozen(linalg.embed_one(linalg.X, k, n)),
            qz=_frozen(linalg.embed_one(linalg.Z, k, n)),
        )
        for k in range(n)
    )
    return DescriptorNetwork(n=n, descriptors=descriptors)


def _single_qubit_update(
    g: GateSpec, qx: np.ndarray, qz: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """New (qx, qz) of a single-qubit gate's target from its current pair."""
    if g.name == "H":
        return qz, qx
    if g.name == "X":
        return qx, _frozen(-qz)
    if g.name == "Z":
        return _frozen(-qx), qz
    if g.name == "Y":
        return _frozen(-qx), _frozen(-qz)
    c, s = np.cos(g.theta), np.sin(g.theta)
    return _frozen(c * qx + s * qz), _frozen(c * qz - s * qx)


def apply_gate(net: DescriptorNetwork, g: GateSpec) -> DescriptorNetwork:
    """Apply a gate, rewriting only the targeted qubits' descriptors.

    Each new target descriptor is computed from the targets' current
    descriptors by the local update rule in the module docstring: sign
    flips, a swap or a rotation for single-qubit gates, and one matrix
    product per changed component for CNOT.  No cumulative unitary is
    formed.  Non-targets keep their Descriptor objects, object identity
    included.
    """
    g.validate_for(net.n)
    if g.name == "CNOT":
        c, t = g.targets
        dc, dt = net.descriptors[c], net.descriptors[t]
        updated = {
            c: Descriptor(qubit_id=c, qx=_frozen(linalg.matmul(dc.qx, dt.qx)), qz=dc.qz),
            t: Descriptor(qubit_id=t, qx=dt.qx, qz=_frozen(linalg.matmul(dc.qz, dt.qz))),
        }
    else:
        (k,) = g.targets
        d = net.descriptors[k]
        qx, qz = _single_qubit_update(g, d.qx, d.qz)
        updated = {k: Descriptor(qubit_id=k, qx=qx, qz=qz)}
    descriptors = tuple(updated.get(k, d) for k, d in enumerate(net.descriptors))
    return DescriptorNetwork(n=net.n, descriptors=descriptors, gate_log=net.gate_log + (g,))


def apply_circuit(net: DescriptorNetwork, gates: Iterable[GateSpec]) -> DescriptorNetwork:
    """Fold :func:`apply_gate` over a gate sequence."""
    for g in gates:
        net = apply_gate(net, g)
    return net


def _check_outcome(net: DescriptorNetwork, o) -> OutcomeSpec:
    qubit, outcome = o
    if not 0 <= qubit < net.n:
        raise ValueError(f"qubit {qubit} out of range for n={net.n}")
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome}")
    return OutcomeSpec(int(qubit), int(outcome))


def branch_measure(net: DescriptorNetwork, o) -> float:
    """Measure of the history where qubit's z-readout shows `outcome`.

    Reads <0...0| (I + (-1)**outcome qz) / 2 |0...0>, i.e. the (0, 0) entry
    of the outcome projector.  Measures of the two outcomes of any qubit
    sum to 1.
    """
    o = _check_outcome(net, o)
    sign = 1.0 if o.outcome == 0 else -1.0
    value = (1.0 + sign * net.descriptors[o.qubit].qz[0, 0]) / 2.0
    return float(value.real)


def joint_measure(net: DescriptorNetwork, outcomes) -> float:
    """Measure of a joint outcome record on distinct qubits (1 if empty).

    One matrix-vector chain from |0...0>: each outcome's projector
    (I + sign qz) / 2 is applied as v <- (v + sign qz v) / 2, last outcome
    first, and the measure is Re v[0].  The projectors commute, so order is
    irrelevant; the picture equivalence suite checks both orders.
    """
    specs = [_check_outcome(net, o) for o in outcomes]
    if len({s.qubit for s in specs}) != len(specs):
        raise ValueError(f"joint outcome qubits must be distinct, got {[s.qubit for s in specs]}")
    v = np.zeros(net.dim, dtype=complex)
    v[0] = 1.0
    for s in reversed(specs):
        sign = 1.0 if s.outcome == 0 else -1.0
        v = (v + sign * (net.descriptors[s.qubit].qz @ v)) / 2.0
    return float(v[0].real)


def conditional_measure(net: DescriptorNetwork, given, then) -> float:
    """Share of the `given` branch that also carries the `then` record."""
    given = _check_outcome(net, given)
    then = _check_outcome(net, then)
    if given.qubit == then.qubit:
        raise ValueError(f"conditional outcomes must be on distinct qubits, got {given.qubit}")
    base = branch_measure(net, given)
    if base <= ZERO_MEASURE:
        raise ValueError(
            f"conditioning on a zero-measure branch (qubit {given.qubit}, "
            f"outcome {given.outcome}, measure {base:.3e})"
        )
    return joint_measure(net, [given, then]) / base


def recomputed_components(net: DescriptorNetwork, qubit: int) -> tuple[np.ndarray, np.ndarray]:
    """Audit route: (qx, qz) of a qubit as dagger(U) P U, U rebuilt from the gate log."""
    if not 0 <= qubit < net.n:
        raise ValueError(f"qubit {qubit} out of range for n={net.n}")
    u = net.cumulative_unitary
    ud = linalg.dagger(u)
    qx = linalg.matmul(ud, linalg.matmul(linalg.embed_one(linalg.X, qubit, net.n), u))
    qz = linalg.matmul(ud, linalg.matmul(linalg.embed_one(linalg.Z, qubit, net.n), u))
    return qx, qz


def locality_audit(net: DescriptorNetwork, watched: int, remote_ops: Iterable[GateSpec]) -> bool:
    """Check that gates avoiding `watched` leave its descriptor untouched.

    The stored matrices must come back bit-for-bit identical (exact equality,
    no tolerance: gate application never rewrites a non-target), and the
    dense recomputation from the cumulative unitary, which does not use the
    local update rule, must agree with the stored matrices within the
    default tolerance.
    """
    if not 0 <= watched < net.n:
        raise ValueError(f"qubit {watched} out of range for n={net.n}")
    remote_ops = list(remote_ops)
    for g in remote_ops:
        if watched in g.targets:
            raise ValueError(f"remote op {g.name} targets the watched qubit {watched}")
    before = net.descriptors[watched]
    evolved = apply_circuit(net, remote_ops)
    after = evolved.descriptors[watched]
    untouched = np.array_equal(before.qx, after.qx) and np.array_equal(before.qz, after.qz)
    qx_audit, qz_audit = recomputed_components(evolved, watched)
    consistent = (
        linalg.frobenius_distance(qx_audit, after.qx) <= DEFAULT_TOL
        and linalg.frobenius_distance(qz_audit, after.qz) <= DEFAULT_TOL
    )
    return untouched and consistent
