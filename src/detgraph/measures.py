"""Determinantal measures on constrained spanning subgraphs.

Every measure is a projection determinantal process on the edge set, in the
omega basis, of one of two families:

  chains and forms  c chains phi and f forms theta: the subgraphs S with
             b0 - b1 = c - f + 1 and max(0, f - c) <= b1 <= f, of weight
             x^S |det M|^2, M the cycle pairings of theta coupled to the cut
             pairings of phi.  ust is (c, f) = (0, 0), the spanning trees;
             connected is (0, k), connected with b1 = k; forest is (k, 0),
             k + 1 trees; mixed is (k, l)
  crsf       cycle-rooted spanning forests for a unit complex connection h,
             weight x^S prod_cycles |1 - holonomy|^2

Everything that differs between the variants (sample size, frame builder,
support law, weight-free factor, forms) is data in VARIANT_TABLE; the rest of
the library reads a variant only through its entry there.  A weight is the
monomial x^S times that factor, into which no edge weight enters:
stack_weight weighs a stack of support rows at any x, subgraph_weight one mask.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import rng as _rng
from .dpp import ProjectionKernel, sample
from .errors import DegenerateForms, MalformedInput
from .graph import SubgraphMask, SubsetTopology, WeightedGraph, _incidence, cycle_space_basis
from .linalg import _annihilated, _complex_pairs, check_pivots, null_space, unit_columns


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
    m = _incidence(g, complex)
    # one scatter onto the tails: -1 becomes -h_e, and a loop's 0 becomes 1 - h_e
    m[np.arange(g.num_edges), g.ends[:, 0]] += 1.0 - h
    return m


def _chain_boundary(g: WeightedGraph, phi: np.ndarray) -> np.ndarray:
    """d phi, (|V|, k): one scatter of -phi onto each edge's tail and +phi onto its
    head, a loop's phi masked to 0 so that it adds exactly 0."""
    phi = phi * (g.ends[:, :1] != g.ends[:, 1:])
    d_phi = np.zeros((g.num_vertices, phi.shape[1]), dtype=phi.dtype)
    np.add.at(d_phi, g.ends, np.stack([-phi, phi], axis=1))
    return d_phi


def _with_chains(g: WeightedGraph, phi: np.ndarray) -> np.ndarray:
    """[conj phi | C] for the unit chains phi and the cycle basis C, independent when
    d phi has rank k, and the integer C itself with no chains; the chains first, as
    residuals off the cycles they lose four decades of accuracy at spreads of 1e+-14."""
    cycles = cycle_space_basis(g)
    if not phi.shape[1]:
        return cycles
    phi = unit_columns(phi)
    check_pivots(np.linalg.qr(_chain_boundary(g, phi), mode="r"),
                 "chains must be independent from the cycle space")
    return np.hstack([phi.conj(), cycles])


def _variant_with_forms(g: WeightedGraph, spec: MeasureSpec) -> Variant:
    """The spec's table entry, once its forms have the shapes k, l and g ask for."""
    variant = VARIANT_TABLE[spec.variant]
    for key, count in variant.forms.items():
        shape = (g.num_edges,) if count is None else (g.num_edges, getattr(spec, count))
        if np.shape(getattr(spec, key)) != shape:
            raise DegenerateForms(f"{spec.variant} measure needs {key} of shape {shape}")
    return variant


def build_kernel(g: WeightedGraph, spec: MeasureSpec) -> ProjectionKernel:
    """Projection kernel of the requested measure, in the omega basis:
    ProjectionKernel.complement_of the variant's weight-free complement basis."""
    return ProjectionKernel.complement_of(g.weights, _variant_with_forms(g, spec).frame(g, spec))


def sample_subgraph(g: WeightedGraph, kernel: ProjectionKernel, seed: int) -> SubgraphMask:
    return g.mask(sample(kernel, seed))


def _monomial(x: np.ndarray, t) -> np.ndarray:
    """x^S of each row of a stack of subsets."""
    return x[t.subsets].prod(axis=-1)


def stack_weight(g: WeightedGraph, spec: MeasureSpec, t: SubsetTopology,
                 x: np.ndarray) -> np.ndarray:
    """Weight x^S times the weight-free factor of each row of a SubsetTopology
    stack of the spec's support, at edge weights x (any finite values, 0 too)."""
    return _monomial(x, t) * VARIANT_TABLE[spec.variant].factor(g, t, spec)


def subgraph_weight(g: WeightedGraph, spec: MeasureSpec, mask: SubgraphMask) -> SubgraphWeight:
    """Weight of one subgraph of the spec's support, at the graph's weights:
    the table's factor on the mask's one-row topology.  ValueError outside
    the support.

    The factor does not depend on the cycle basis, the component order or
    the omitted component: any two choices differ by a unimodular change of
    basis.
    """
    variant = _variant_with_forms(g, spec)
    if not variant.support(mask, spec.k, spec.l):
        raise ValueError(f"subgraph with b0={mask.b0}, b1={mask.b1} is outside "
                         f"the {spec.variant} support")
    t = mask.topology()
    topo = float(variant.factor(g, t, spec)[0])
    mono = float(_monomial(g.weights, t)[0])
    return SubgraphWeight(topo * mono, mono, topo)


def _holonomy_factor(t, connection: np.ndarray) -> np.ndarray:
    """prod |1 - holonomy|^2 over the cycles of each row, one in each component."""
    h = np.asarray(connection, dtype=complex)
    closed = np.arange(t.cycles.shape[1]) < t.b1[:, None]
    cycles = t.cycles[closed]
    # holonomy prod h_e^gamma_e, with h^-1 = conj(h): row gamma_e + 1 of the powers
    powers = np.stack([h.conj(), np.ones_like(h), h])
    hol = powers[cycles + 1, np.arange(len(h))].prod(axis=-1)
    factor = np.ones(closed.shape)
    factor[closed] = np.abs(1.0 - hol) ** 2
    return factor.prod(axis=-1)


def _mixed_factor(g: WeightedGraph, t, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """|det M|^2 per row of a stack of the support of k chains phi and l forms theta,
    M = [[Theta, 0], [P f, P kappa]]: Theta = (theta_a(gamma_j)) over the m = b1
    cycles, P = (d phi)^T, kappa the indicators of every component but the last,
    and f a potential with d f = -theta on the forest edges.  M is square, of size
    k + m; padded to k + l by a 1 at (r, k + r) for each absent cycle row r >= m,
    whose kappa column is absent too.  At m = l, M is block triangular: |det M|^2
    is |det Theta|^2 |det P kappa|^2, an empty block skipped, so f is solved for
    on the rows with m < l alone, never for ust, connected or forest."""
    k, l = phi.shape[1], theta.shape[1]
    factor = np.ones(len(t))
    if l:
        cycles = t.cycles[:, :l]
        pairing = np.zeros((len(t), l, l), dtype=np.result_type(theta, float))
        # (theta_a, gamma_j), 0 past the cycles; einsum casts the int8 cycles a buffer at a time
        pairing[..., :cycles.shape[1]] = np.einsum("ea,nje->naj", theta, cycles)
        factor *= np.abs(np.linalg.det(pairing)) ** 2
    if k:
        p = _chain_boundary(g, phi).T
        kappa = (t.labels[..., None] == np.arange(k)) & (np.arange(k) < t.b0[:, None, None] - 1)
        cuts = p @ kappa.astype(p.dtype)
        factor *= np.abs(np.linalg.det(cuts)) ** 2
    short = np.flatnonzero(t.b1 < l) if k else ()  # rows with m < l, which need k > 0
    if len(short):
        # (L + U U^T) f = -d_F^T theta, L the forest Laplacian and U the component
        # indicators: nonsingular, solved by the f that sums to 0 on each component
        subsets, labels = t.subsets[short], t.labels[short]
        incidence = g.coboundary[subsets] * t.forest[short, :, None]
        same = labels[:, :, None] == labels[:, None, :]
        f = np.linalg.solve(np.swapaxes(incidence, 1, 2) @ incidence + same,
                            -np.swapaxes(incidence, 1, 2) @ theta[subsets])
        m = np.zeros((len(short), k + l, k + l), dtype=np.result_type(phi, theta, float))
        m[:, :l, :l] = np.swapaxes(pairing[short], 1, 2)
        m[:, l:, :l] = p @ f
        m[:, l:, l:] = cuts[short]
        rows, absent = np.nonzero(np.arange(l) >= t.b1[short, None])
        m[rows, absent, k + absent] = 1.0
        factor[short] = np.abs(np.linalg.det(m)) ** 2
    return factor


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
    """What one measure variant is made of.  Two families fill the fields:
    _chains_and_forms (ust, connected, forest, mixed) and crsf."""

    size: Callable[[int, int, int], int]          # sample size from (|V|, k, l)
    frame: Callable[..., np.ndarray]              # (g, spec) -> weight-free complement basis
    # support law: (topology, k, l) -> bool, on the integer b0, b1 and component_b1
    # alone; elementwise, so it serves a SubgraphMask and a SubsetTopology stack
    support: Callable[..., bool | np.ndarray]
    factor: Callable[..., np.ndarray]             # (g, stack, spec) -> weight / x^S per row
    forms: dict[str, str | None]                  # spec field -> its column count (k or l)
    dual: str | None = None                       # variant under planar duality


def _chains_and_forms(forms: dict[str, str], dual: str | None = None) -> Variant:
    """The measure of c chains phi and f forms theta, the spec fields `forms` names
    with their counts, no columns for a field it does not name: ust is (c, f) =
    (0, 0), connected (0, k), forest (k, 0) and mixed (k, l)."""
    def counts(k, l):  # (c, f)
        return [{"k": k, "l": l}.get(forms.get(key), 0) for key in ("phi", "theta")]

    def columns(g, spec):  # (phi, theta)
        return [getattr(spec, key) if key in forms else np.zeros((g.num_edges, 0))
                for key in ("phi", "theta")]

    def support(t, k, l):
        c, f = counts(k, l)
        return (t.b0 - t.b1 == c - f + 1) & (t.b1 <= f)  # so b1 >= f - c, as b0 >= 1

    def frame(g, spec):
        phi, theta = columns(g, spec)
        return _annihilated(_with_chains(g, phi), theta)

    return Variant(size=lambda n, k, l: n - 1 - counts(k, l)[0] + counts(k, l)[1],
                   frame=frame, support=support,
                   factor=lambda g, t, spec: _mixed_factor(g, t, *columns(g, spec)),
                   forms=forms, dual=dual)


VARIANT_TABLE: dict[str, Variant] = {
    "ust": _chains_and_forms({}, dual="ust"),
    "connected": _chains_and_forms({"theta": "k"}, dual="forest"),
    "forest": _chains_and_forms({"phi": "k"}, dual="connected"),
    "crsf": Variant(
        size=lambda n, k, l: n,
        frame=lambda g, spec: null_space(twisted_differential(g, spec.connection),
                                         "the twisted differential must be injective"),
        # b1 = b0 cycles with at most one per component: exactly one in each
        support=lambda t, k, l: (t.b1 == t.b0) & (np.max(t.component_b1, axis=-1) <= 1),
        factor=lambda g, t, spec: _holonomy_factor(t, spec.connection),
        forms={"connection": None}),
    "mixed": _chains_and_forms({"phi": "k", "theta": "l"}),
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
    instead of drawn; k and l then come from their column counts.  A negative
    k or l, or a given form without one row per edge (a connection: one value
    per edge), raises MalformedInput.
    """
    if k < 0 or l < 0:
        raise MalformedInput(f"k and l need nonnegative values, got k={k}, l={l}")
    counts = {"k": k, "l": l}
    forms = forms or {}
    chosen = {}
    for key, count in variant_of(variant).forms.items():
        value = forms.get(key)
        if value is None:
            value = _DRAWS[key](g, counts.get(count), seed)
        # one row per edge: a vector, or for forms and chains one column each
        elif np.shape(value)[:1] != (g.num_edges,) or np.ndim(value) > (2 if count else 1):
            raise MalformedInput(f"forms {key!r} need {g.num_edges} rows, one per edge, "
                                 f"got shape {np.shape(value)}")
        chosen[key] = value
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
