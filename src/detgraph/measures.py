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
             Euler characteristic k - l + 1, weight x^S |det M|^2 with M the
             cycle pairings of theta coupled to the cut pairings of phi

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
from .errors import DegenerateForms, MalformedInput, NumericDegeneracy
from .graph import SubgraphMask, WeightedGraph, cycle_space_basis
from .linalg import _complex_pairs, null_space, unit_columns, weighted_frame


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
    m = g.coboundary.astype(complex)
    # one scatter onto the tails: -1 becomes -h_e, and a loop's 0 becomes 1 - h_e
    m[np.arange(g.num_edges), [t for t, _ in g.edges]] += 1.0 - h
    return m


def _with_chains(g: WeightedGraph, phi: np.ndarray) -> np.ndarray:
    """[conj phi | C] for the unit chains phi and the cycle basis C, independent
    when d phi has rank k; the chains first, as residuals off the cycles they
    lose four decades of accuracy at weight spreads of 1e+-14."""
    phi = unit_columns(phi)
    null_space(g.boundary @ phi, "chains must be independent from the cycle space")
    return np.hstack([phi.conj(), cycle_space_basis(g)])


def _annihilated(basis: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """basis @ null(theta^H basis): the part of span(basis) that the forms annihilate."""
    pairing = basis.conj().T @ unit_columns(theta)
    return basis @ null_space(pairing, "forms must be independent from the range they extend")


def build_kernel(g: WeightedGraph, spec: MeasureSpec) -> ProjectionKernel:
    """Projection kernel of the requested measure, in the omega basis: I - QQ^H for Q
    the frame of the variant's weight-free complement basis at inverted weights."""
    variant = VARIANT_TABLE[spec.variant]
    for key, count in variant.forms.items():
        shape = (g.num_edges,) if count is None else (g.num_edges, getattr(spec, count))
        if np.shape(getattr(spec, key)) != shape:
            raise DegenerateForms(f"{spec.variant} measure needs {key} of shape {shape}")
    q = weighted_frame(g.weights, variant.frame(g, spec), inverse=True)
    try:
        complement = ProjectionKernel.from_frame(q)
    except ValueError as exc:
        raise NumericDegeneracy(f"{spec.variant} complement frame: {exc}") from exc
    return complement.complement()


def sample_subgraph(g: WeightedGraph, kernel: ProjectionKernel, seed: int) -> SubgraphMask:
    return g.mask(sample(kernel, seed))


def _monomial(x: np.ndarray, t) -> np.ndarray:
    """x^S of each row of a stack of subsets."""
    return x[t.subsets].prod(axis=-1)


def _cycle_factor(t, theta: np.ndarray) -> np.ndarray:
    """|det(theta_i(gamma_j))|^2 over the cycles of a stack of b1 = k rows."""
    cycles = t.cycles[:, :theta.shape[1]]
    # narrower than k only when the stack is empty (k > b1 of the graph)
    if cycles.shape[1] < theta.shape[1]:
        return np.zeros(len(cycles))
    # (theta_i, gamma_j); einsum casts the int8 cycles a buffer at a time
    pairing = np.einsum("ei,nje->nij", theta, cycles)
    return np.abs(np.linalg.det(pairing)) ** 2


def _cut_factor(g: WeightedGraph, t, phi: np.ndarray) -> np.ndarray:
    """|det((phi_i, kappa_j))|^2 over the cuts of a stack of b0 = k + 1 rows,
    kappa_j separating component j: every component but the last."""
    inside = t.labels[..., None] == np.arange(phi.shape[1])
    return np.abs(np.linalg.det(phi.T @ (g.coboundary @ inside.astype(int)))) ** 2


def _holonomy_factor(t, connection: np.ndarray) -> np.ndarray:
    """prod |1 - holonomy|^2 over the cycles of each row; 0 where a component is a tree."""
    h = np.asarray(connection, dtype=complex)
    closed = np.arange(t.cycles.shape[1]) < t.b1[:, None]
    cycles = t.cycles[closed]
    # holonomy prod h_e^gamma_e, with h^-1 = conj(h): row gamma_e + 1 of the powers
    powers = np.stack([h.conj(), np.ones_like(h), h])
    hol = powers[cycles + 1, np.arange(len(h))].prod(axis=-1)
    factor = np.ones(closed.shape)
    factor[closed] = np.abs(1.0 - hol) ** 2
    return np.where((t.component_b1 > 0).sum(axis=-1) == t.b0, factor.prod(axis=-1), 0.0)


def _mixed_factor(g: WeightedGraph, t, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """|det M|^2 per row of a stack of the mixed support, M = [[Theta, 0], [P f, P kappa]]:
    Theta = (theta_a(gamma_j)) over the m = b1 cycles, P = phi^T d, kappa the
    indicators of every component but the last, and f a potential with
    d f = -theta on the forest edges.  M is square, of size k + m; padded to
    k + l by a 1 at (r, k + r) for each absent cycle row r >= m, whose kappa
    column is absent too."""
    k, l = phi.shape[1], theta.shape[1]
    cycles = t.cycles[:, :l]
    cycles = np.pad(cycles, ((0, 0), (0, l - cycles.shape[1]), (0, 0)))
    # (L + U U^T) f = -d_F^T theta, L the forest Laplacian and U the component
    # indicators: nonsingular, solved by the f that sums to 0 on each component
    incidence = g.coboundary[t.subsets] * t.forest[..., None]
    same = t.labels[:, :, None] == t.labels[:, None, :]
    f = np.linalg.solve(np.swapaxes(incidence, 1, 2) @ incidence + same,
                        -np.swapaxes(incidence, 1, 2) @ theta[t.subsets])
    p = phi.T @ g.coboundary
    kappa = (t.labels[..., None] == np.arange(k)) & (np.arange(k) < t.b0[:, None, None] - 1)
    m = np.zeros((len(t), k + l, k + l), dtype=np.result_type(phi, theta, float))
    m[:, :l, :l] = np.einsum("nje,ea->nja", cycles, theta)
    m[:, l:, :l] = p @ f
    m[:, l:, l:] = p @ kappa.astype(int)
    rows, absent = np.nonzero(np.arange(l) >= t.b1[:, None])
    m[rows, absent, k + absent] = 1.0
    return np.abs(np.linalg.det(m)) ** 2


def _one_row(g: WeightedGraph, mask: SubgraphMask, factor) -> SubgraphWeight:
    """A mask's weight from the code that weighs stacks, on its one-row topology."""
    t = mask.topology()
    topo = float(factor(t)[0])
    mono = float(_monomial(g.weights, t)[0])
    return SubgraphWeight(topo * mono, mono, topo)


def cycle_weight(g: WeightedGraph, mask: SubgraphMask, theta: np.ndarray) -> SubgraphWeight:
    """Weight x^K |det(theta_i(gamma_j))|^2 of a connected spanning subgraph.

    The cycle basis choice does not matter: any two integral bases differ by
    a unimodular change of basis.
    """
    theta = np.asarray(theta).reshape(g.num_edges, -1)
    if not mask.is_connected():
        raise ValueError("subgraph is not connected spanning")
    if mask.b1 != theta.shape[1]:
        raise ValueError(f"subgraph has b1={mask.b1}, expected {theta.shape[1]}")
    return _one_row(g, mask, lambda t: _cycle_factor(t, theta))


def component_cuts(g: WeightedGraph, mask: SubgraphMask) -> np.ndarray:
    """Cut cochains separating each component of the mask except the last."""
    inside = np.array(mask.labels)[:, None] == np.arange(mask.b0 - 1)
    return g.coboundary @ inside.astype(int)


def forest_weight(g: WeightedGraph, mask: SubgraphMask, phi: np.ndarray) -> SubgraphWeight:
    """Weight x^F |det((phi_i, kappa_j))|^2 of a spanning forest.

    The omitted component and the component order do not change the value.
    """
    phi = np.asarray(phi)
    if mask.b1 != 0:
        raise ValueError("subgraph has a cycle")
    if mask.b0 != phi.shape[1] + 1:
        raise ValueError(f"forest has {mask.b0} components, expected {phi.shape[1] + 1}")
    return _one_row(g, mask, lambda t: _cut_factor(g, t, phi))


def crsf_weight(g: WeightedGraph, mask: SubgraphMask, connection: np.ndarray) -> SubgraphWeight:
    """Weight x^S prod |1 - holonomy(cycle)|^2 of a cycle-rooted forest.

    Zero when some component is a tree; components with two or more
    independent cycles are rejected outright.
    """
    if max(mask.component_b1) > 1:
        raise ValueError("component with two or more independent cycles")
    return _one_row(g, mask, lambda t: _holonomy_factor(t, connection))


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
    frame: Callable[..., np.ndarray]              # (g, spec) -> weight-free complement basis
    # support law: (topology, k, l) -> bool, on the integer b0, b1 and
    # component_b1 alone; elementwise, so it serves a SubgraphMask and a
    # SubsetTopology stack alike
    support: Callable[..., bool | np.ndarray]
    # (g, stack, spec) -> the weight of each row of a SubsetTopology stack of
    # the support, at the graph's weights
    weight: Callable[..., np.ndarray]
    forms: dict[str, str | None]                  # spec field -> its column count (k or l)
    dual: str | None = None                       # variant under planar duality


VARIANT_TABLE: dict[str, Variant] = {
    "ust": Variant(
        size=lambda n, k, l: n - 1,
        frame=lambda g, spec: cycle_space_basis(g),
        support=lambda t, k, l: (t.b0 == 1) & (t.b1 == 0),
        weight=lambda g, t, spec: _monomial(g.weights, t),
        forms={}, dual="ust"),
    "connected": Variant(
        size=lambda n, k, l: n - 1 + k,
        frame=lambda g, spec: _annihilated(cycle_space_basis(g), spec.theta),
        support=lambda t, k, l: (t.b0 == 1) & (t.b1 == k),
        weight=lambda g, t, spec: _monomial(g.weights, t) * _cycle_factor(t, spec.theta),
        forms={"theta": "k"}, dual="forest"),
    "forest": Variant(
        size=lambda n, k, l: n - 1 - k,
        frame=lambda g, spec: _with_chains(g, spec.phi),
        support=lambda t, k, l: (t.b0 == k + 1) & (t.b1 == 0),
        weight=lambda g, t, spec: _monomial(g.weights, t) * _cut_factor(g, t, spec.phi),
        forms={"phi": "k"}, dual="connected"),
    "crsf": Variant(
        size=lambda n, k, l: n,
        frame=lambda g, spec: null_space(twisted_differential(g, spec.connection),
                                         "the twisted differential must be injective"),
        # b1 = b0 cycles with at most one per component: exactly one in each
        support=lambda t, k, l: (t.b1 == t.b0) & (np.max(t.component_b1, axis=-1) <= 1),
        weight=lambda g, t, spec: (_monomial(g.weights, t)
                                   * _holonomy_factor(t, spec.connection)),
        forms={"connection": None}),
    "mixed": Variant(
        size=lambda n, k, l: n - 1 - k + l,
        frame=lambda g, spec: _annihilated(_with_chains(g, spec.phi), spec.theta),
        support=lambda t, k, l: ((t.b0 - t.b1 == k - l + 1)
                                 & (max(0, l - k) <= t.b1) & (t.b1 <= l)),
        weight=lambda g, t, spec: (_monomial(g.weights, t)
                                   * _mixed_factor(g, t, spec.phi, spec.theta)),
        forms={"phi": "k", "theta": "l"}),
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
    return bool(VARIANT_TABLE[spec.variant].support(mask, spec.k, spec.l))


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
