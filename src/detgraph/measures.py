"""Determinantal measures on constrained spanning subgraphs.

Five variants are supported, all projection determinantal processes on the
edge set in the omega basis:

  ust        spanning trees, kernel = projection onto the exact forms
  connected  connected spanning subgraphs with first Betti number k; the
             projection subspace is (exact forms) + span(theta_1..theta_k)
             and the combinatorial weight of a subgraph K is
             x^K |det(theta_i(gamma_j))|^2 over an integral cycle basis of K
  forest     spanning forests with k+1 components; subspace is the part of
             the exact forms orthogonal to j_x(phi_1..phi_k), weight
             x^F |det((phi_i, kappa_j))|^2 over cuts separating components
  crsf       cycle-rooted spanning forests for a unit complex connection h;
             subspace is the range of the twisted differential, weight
             x^S prod_cycles |1 - holonomy|^2
  mixed      both constraints at once: k chains and l forms, samples have
             Euler characteristic k - l + 1 (no closed-form weight evaluator)

Everything that differs between the variants (sample size, frame builder,
support law, weight evaluator, forms) is data in VARIANT_TABLE; the rest of
the library reads a variant only through its entry there.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as _rng
from .dpp import ProjectionKernel, sample
from .errors import DegenerateForms, MalformedInput
from .graph import SubgraphMask, WeightedGraph, cycle_space_basis
from .linalg import (RANK_RTOL, _complex_pairs, extend_frame, j_x_columns, orthonormalize,
                     to_omega, unit_columns, weighted_frame)


@dataclass(frozen=True, eq=False)
class MeasureSpec:
    """Declarative description of which determinantal measure to build."""

    variant: str
    k: int = 0
    l: int = 0
    # forms are float64 unless one of them has a nonzero imaginary part
    theta: np.ndarray | None = None       # forms, num_edges x (k or l)
    phi: np.ndarray | None = None         # chains, num_edges x k
    connection: np.ndarray | None = None  # unit complex numbers per edge

    def __post_init__(self):
        variant_of(self.variant)
        if self.k < 0 or self.l < 0:
            raise ValueError("k and l must be nonnegative")

    @staticmethod
    def ust() -> "MeasureSpec":
        return MeasureSpec("ust")

    @staticmethod
    def connected_k(theta: np.ndarray) -> "MeasureSpec":
        return _spec_from_forms("connected", {"theta": theta})

    @staticmethod
    def forest_k(phi: np.ndarray) -> "MeasureSpec":
        return _spec_from_forms("forest", {"phi": phi})

    @staticmethod
    def crsf(connection: np.ndarray) -> "MeasureSpec":
        return _spec_from_forms("crsf", {"connection": connection})

    @staticmethod
    def mixed(phi: np.ndarray, theta: np.ndarray) -> "MeasureSpec":
        return _spec_from_forms("mixed", {"phi": phi, "theta": theta})

    def expected_rank(self, g: WeightedGraph) -> int:
        return VARIANT_TABLE[self.variant].size(g.num_vertices, self.k, self.l)


@dataclass(frozen=True)
class SubgraphWeight:
    """Weight of one subgraph: monomial part times topological factor."""

    value: float
    monomial: float
    topological: float


def _frame_exact_forms(g: WeightedGraph, x: np.ndarray, *forms: np.ndarray) -> np.ndarray:
    """Frame of the differentials of all vertices but the first, omega coords;
    independent as the graph is connected.  Complex when a form it is
    combined with is, so that a complex kernel is complex throughout."""
    return weighted_frame(x, g.coboundary[:, 1:].astype(np.result_type(float, *forms)))


def twisted_differential(g: WeightedGraph, connection: np.ndarray) -> np.ndarray:
    """Matrix of the covariant derivative for a connection, in e* coordinates.

    Column v over edges e: [head(e)=v] - h_e [tail(e)=v]; the trivial
    connection recovers the plain differential.
    """
    h = np.asarray(connection, dtype=complex)
    if h.shape != (g.num_edges,):
        raise ValueError("one connection value per edge required")
    if np.any(np.abs(np.abs(h) - 1.0) > 1e-12):
        raise ValueError("connection values must have unit modulus")
    m = np.zeros((g.num_edges, g.num_vertices), dtype=complex)
    for e, (t, hd) in enumerate(g.edges):
        m[e, hd] += 1.0
        m[e, t] -= h[e]
    return m


def _forest_core_frame(g: WeightedGraph, x: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Orthonormal frame of (exact forms) intersect (j_x phi)^perp, omega coords.

    q u[:, k:] for q^H j_x(phi) = u r (complete QR); the one numeric decision
    is whether the k chains are independent inside the exact forms.
    """
    q = _frame_exact_forms(g, x, phi)
    k = phi.shape[1]
    if k == 0:
        return q
    # unit chains before j_x divides by the weights, unit columns for the rank test
    jphi_omega = unit_columns(to_omega(x, j_x_columns(x, unit_columns(phi))))
    u, r = np.linalg.qr(q.conj().T @ jphi_omega, mode="complete")
    if k > q.shape[1] or np.abs(np.diag(r)).min() <= RANK_RTOL:
        raise DegenerateForms("chains must be independent from the cycle space")
    return q @ u[:, k:]


def build_kernel(g: WeightedGraph, spec: MeasureSpec) -> ProjectionKernel:
    """Projection kernel of the requested measure, in the omega basis."""
    variant = VARIANT_TABLE[spec.variant]
    for key, count in variant.forms.items():
        shape = (g.num_edges,) if count is None else (g.num_edges, getattr(spec, count))
        if np.shape(getattr(spec, key)) != shape:
            raise DegenerateForms(f"{spec.variant} measure needs {key} of shape {shape}")
    expected = spec.expected_rank(g)
    frame = variant.frame(g, g.weights, spec)
    if frame.shape[1] != expected:
        raise DegenerateForms(
            f"{spec.variant} kernel has rank {frame.shape[1]}, expected {expected}")
    return ProjectionKernel.from_frame(frame)


def sample_subgraph(g: WeightedGraph, kernel: ProjectionKernel, seed: int) -> SubgraphMask:
    return g.mask(sample(kernel, seed))


def cycle_weight(g: WeightedGraph, mask: SubgraphMask, theta: np.ndarray) -> SubgraphWeight:
    """Weight x^K |det(theta_i(gamma_j))|^2 of a connected spanning subgraph.

    The cycle basis choice does not matter: any two integral bases differ by
    a unimodular change of basis.
    """
    theta = np.asarray(theta, dtype=complex).reshape(g.num_edges, -1)
    if not mask.is_connected():
        raise ValueError("subgraph is not connected spanning")
    if mask.b1 != theta.shape[1]:
        raise ValueError(f"subgraph has b1={mask.b1}, expected {theta.shape[1]}")
    pairing = theta.T @ cycle_space_basis(g, within=mask)  # (theta_i, gamma_j)
    topo = float(np.abs(np.linalg.det(pairing)) ** 2) if pairing.shape[0] else 1.0
    mono = mask.weight_monomial()
    return SubgraphWeight(topo * mono, mono, topo)


def component_cuts(g: WeightedGraph, mask: SubgraphMask) -> np.ndarray:
    """Cut cochains separating each component of the mask except the last."""
    inside = np.array(mask.labels)[:, None] == np.arange(mask.b0 - 1)
    return g.coboundary @ inside.astype(int)


def forest_weight(g: WeightedGraph, mask: SubgraphMask, phi: np.ndarray) -> SubgraphWeight:
    """Weight x^F |det((phi_i, kappa_j))|^2 of a spanning forest.

    The omitted component and the component order do not change the value.
    """
    phi = np.asarray(phi, dtype=complex)
    if mask.b1 != 0:
        raise ValueError("subgraph has a cycle")
    if mask.b0 != phi.shape[1] + 1:
        raise ValueError(f"forest has {mask.b0} components, expected {phi.shape[1] + 1}")
    cuts = component_cuts(g, mask)
    pairing = phi.T @ cuts
    topo = float(np.abs(np.linalg.det(pairing)) ** 2) if pairing.shape[0] else 1.0
    mono = mask.weight_monomial()
    return SubgraphWeight(topo * mono, mono, topo)


def crsf_weight(g: WeightedGraph, mask: SubgraphMask, connection: np.ndarray) -> SubgraphWeight:
    """Weight x^S prod |1 - holonomy(cycle)|^2 of a cycle-rooted forest.

    Zero when some component is a tree; components with two or more
    independent cycles are rejected outright.
    """
    h = np.asarray(connection, dtype=complex)
    comp_b1 = mask._component_b1()
    if any(b > 1 for b in comp_b1):
        raise ValueError("component with two or more independent cycles")
    mono = mask.weight_monomial()
    if any(b == 0 for b in comp_b1):
        return SubgraphWeight(0.0, mono, 0.0)
    cycles = cycle_space_basis(g, within=mask)  # one per component
    # holonomy prod h_e^gamma_e, with h^-1 = conj(h)
    hol = np.where(cycles > 0, h[:, None], np.where(cycles < 0, h.conj()[:, None], 1)).prod(axis=0)
    topo = float(np.prod(np.abs(1.0 - hol) ** 2))
    return SubgraphWeight(topo * mono, mono, topo)


def random_theta(g: WeightedGraph, k: int, seed: int) -> np.ndarray:
    """k real forms drawn uniformly from the unit sphere (theta stream)."""
    gen = _rng.stream(seed, _rng.TAG_THETA)
    v = gen.standard_normal((g.num_edges, k))
    return v / np.linalg.norm(v, axis=0)


def random_phi(g: WeightedGraph, k: int, seed: int) -> np.ndarray:
    """k real chains drawn uniformly from the unit sphere (phi stream)."""
    gen = _rng.stream(seed, _rng.TAG_PHI)
    v = gen.standard_normal((g.num_edges, k))
    return v / np.linalg.norm(v, axis=0)


def random_connection(g: WeightedGraph, seed: int) -> np.ndarray:
    """Uniform unit complex number per edge (connection stream)."""
    gen = _rng.stream(seed, _rng.TAG_CONNECTION)
    return np.exp(2j * np.pi * gen.random(g.num_edges))


# seeded draw of each kind of form, from (graph, column count, seed)
_DRAWS = {
    "theta": random_theta,
    "phi": random_phi,
    "connection": lambda g, _count, seed: random_connection(g, seed),
}

# planar duality transports coefficients: primal chains are dual forms
_DUAL_FORM = {"theta": "phi", "phi": "theta"}


@dataclass(frozen=True)
class Variant:
    """What one measure variant is made of."""

    size: Callable[[int, int, int], int]          # sample size from (|V|, k, l)
    frame: Callable[..., np.ndarray]              # (g, x, spec) -> omega frame of the range
    # support law: (mask, k, l) -> bool, on the mask's integer topology only
    support: Callable[[SubgraphMask, int, int], bool]
    weight: Callable[..., float] | None           # (g, mask, spec) -> weight, if closed form
    forms: dict[str, str | None]                  # spec field -> its column count (k or l)
    family: str                                   # oracle family enumerating the support
    dual: str | None = None                       # variant under planar duality


VARIANT_TABLE: dict[str, Variant] = {
    "ust": Variant(
        size=lambda n, k, l: n - 1,
        frame=lambda g, x, spec: _frame_exact_forms(g, x),
        support=lambda mask, k, l: (mask.b0, mask.b1) == (1, 0),
        weight=lambda g, mask, spec: mask.weight_monomial(),
        forms={}, family="connected", dual="ust"),
    "connected": Variant(
        size=lambda n, k, l: n - 1 + k,
        frame=lambda g, x, spec: extend_frame(_frame_exact_forms(g, x, spec.theta),
                                              to_omega(x, spec.theta)),
        support=lambda mask, k, l: (mask.b0, mask.b1) == (1, k),
        weight=lambda g, mask, spec: cycle_weight(g, mask, spec.theta).value,
        forms={"theta": "k"}, family="connected", dual="forest"),
    "forest": Variant(
        size=lambda n, k, l: n - 1 - k,
        frame=lambda g, x, spec: _forest_core_frame(g, x, spec.phi),
        support=lambda mask, k, l: (mask.b0, mask.b1) == (k + 1, 0),
        weight=lambda g, mask, spec: forest_weight(g, mask, spec.phi).value,
        forms={"phi": "k"}, family="forest", dual="connected"),
    "crsf": Variant(
        size=lambda n, k, l: n,
        frame=lambda g, x, spec: orthonormalize(
            to_omega(x, twisted_differential(g, spec.connection))),
        support=lambda mask, k, l: all(b == 1 for b in mask._component_b1()),
        weight=lambda g, mask, spec: crsf_weight(g, mask, spec.connection).value,
        forms={"connection": None}, family="crsf"),
    "mixed": Variant(
        size=lambda n, k, l: n - 1 - k + l,
        frame=lambda g, x, spec: extend_frame(
            _forest_core_frame(g, x, spec.phi), to_omega(x, spec.theta)),
        support=lambda mask, k, l: (mask.b0 - mask.b1 == k - l + 1
                                    and max(0, l - k) <= mask.b1 <= l),
        weight=None,
        forms={"phi": "k", "theta": "l"}, family="mixed"),
}
VARIANTS = tuple(VARIANT_TABLE)


def variant_of(name: str) -> Variant:
    """Table entry of a variant; ValueError for an unknown name."""
    try:
        return VARIANT_TABLE[name]
    except KeyError:
        raise ValueError(f"unknown variant {name!r}") from None


def _spec_from_forms(variant: str, forms: dict) -> MeasureSpec:
    """Spec of a variant from its forms, with k and l read off their column counts.

    A single form or chain may be given as a vector.  The forms are real,
    and so is the kernel, when every imaginary part is exactly 0.
    """
    forms = {key: np.asarray(value, dtype=complex) for key, value in forms.items()}
    if not any(value.imag.any() for value in forms.values()):
        forms = {key: value.real.copy() for key, value in forms.items()}
    counts = {}
    for key, count in VARIANT_TABLE[variant].forms.items():
        if count:
            if forms[key].ndim == 1:
                forms[key] = forms[key][:, None]
            counts[count] = forms[key].shape[1]
    return MeasureSpec(variant, **counts, **forms)


def dual_transport(g: WeightedGraph, faces, spec: MeasureSpec):
    """Move a measure across planar duality.

    A forest measure on the primal becomes a connected measure on the dual
    with inverted weights and coefficientwise-transported forms (and back);
    the two measures correspond under complementation of edge sets.  Returns
    (dual graph with inverted weights, transported spec, PlanarDual).
    """
    from .planar import planar_dual
    pd = planar_dual(g, faces)
    dual_inv = pd.dual.inverted_weights()
    variant = VARIANT_TABLE[spec.variant]
    if variant.dual is None:
        raise ValueError(f"no duality transport for variant {spec.variant!r}")
    out = _spec_from_forms(variant.dual, {_DUAL_FORM[key]: getattr(spec, key)
                                          for key in variant.forms})
    return dual_inv, out, pd


def random_spec(g: WeightedGraph, variant: str, k: int, l: int, seed: int,
                forms: dict[str, np.ndarray] | None = None) -> MeasureSpec:
    """Spec with forms drawn from the seed, mirroring the sampler's streams.

    Forms present in `forms` (as returned by forms_from_json) are used
    instead of drawn; k and l then come from their column counts.
    """
    counts = {"k": k, "l": l}
    forms = forms or {}
    chosen = {}
    for key, count in variant_of(variant).forms.items():
        value = forms.get(key)
        chosen[key] = _DRAWS[key](g, counts.get(count), seed) if value is None else value
    return _spec_from_forms(variant, chosen)


def sample_in_support(spec: MeasureSpec, mask: SubgraphMask) -> bool:
    """Whether a sample satisfies the topological support law of its measure."""
    return VARIANT_TABLE[spec.variant].support(mask, spec.k, spec.l)


def forms_to_json(theta=None, phi=None, connection=None) -> str:
    def pairs(v):
        return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]
    payload = {key: [pairs(col) for col in np.asarray(m, dtype=complex).T]
               for key, m in (("theta", theta), ("phi", phi)) if m is not None}
    if connection is not None:
        payload["connection"] = pairs(connection)
    return json.dumps(payload)


def forms_from_json(text: str) -> dict[str, np.ndarray]:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise MalformedInput("forms JSON must be an object")
    out: dict[str, np.ndarray] = {}
    for key in ("theta", "phi"):
        if key in payload:
            out[key] = np.column_stack(_complex_pairs(payload[key], 2, f"forms {key!r}"))
    if "connection" in payload:
        out["connection"] = _complex_pairs(payload["connection"], 1, "forms 'connection'")
    return out
