"""Applied layer: Gram assembly, simulation, likelihood fitting, cokriging.

The block Gram matrix over an observation set is the brute-force positive
definiteness oracle for everything upstream: a model certified by the
validity module must produce a numerically nonnegative spectrum here.
Simulation is plain Cholesky with an escalating jitter ladder and a
counter-based generator so runs are reproducible bit for bit.

Fitting is exact Gaussian maximum likelihood with per-component constant
means profiled out in closed form.  The remaining parameters are searched by
multi-start L-BFGS-B in a transformed space where every iterate is a valid
model: the colocated correlation is a fraction in [-1, 1] (sin(t), or tanh(u)
for Matern) times the certified bound for the current structural parameters.
The gradient is 1/2 tr(K^-1 dK) - 1/2 a^T dK a with a = K^-1 (z - means):
K^-1 - a a^T is summed once onto the slots of the Gram's value table, and each
parameter's derivative is that sum against the derivative of the table.  The
table's derivatives are exact, a Matern member's smoothness nu included: its
derivative is the quadrature sum of dK_nu/dnu that reads psi's own table
(:func:`corrfn._param_derivatives`).  The bound's own derivative is taken at
the bound engine's winning candidate, held fixed.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import types
from dataclasses import dataclass, field

import numpy as np

from .bimodels import (_PAIRS, LmcBivariate, _entries, _sum_into, _terms,
                       cauchy_bivariate, matern_bivariate, stable_bivariate)
from .corrfn import _param_derivatives, _require, stable

__all__ = [
    "FieldSample",
    "PdCheck",
    "FitResult",
    "gram",
    "check_pd",
    "simulate",
    "nll",
    "fit_ml",
    "cokrige",
    "loo_rmse",
]


@dataclass(frozen=True)
class FieldSample:
    """Observation (or simulation) rows: location, component index, value."""
    locations: np.ndarray            # (N, d) coordinates, d in {1, 2, 3}
    components: np.ndarray           # (N,) indices in {1, 2}
    values: np.ndarray | None = None
    seed: int | None = None
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        loc = np.atleast_2d(np.asarray(self.locations, dtype=float))
        comp = np.asarray(self.components)
        if loc.ndim != 2 or loc.shape[1] not in (1, 2, 3):
            raise ValueError("locations must be (N, d) with d in {1, 2, 3}")
        if comp.shape != (loc.shape[0],):
            raise ValueError("components must be one index per location row")
        if not np.all((comp == 1) | (comp == 2)):   # checked before the cast, which truncates
            raise ValueError("component indices must be 1 or 2")
        if not np.all(np.isfinite(loc)):
            raise ValueError("locations must be finite")
        object.__setattr__(self, "locations", loc)
        object.__setattr__(self, "components", comp.astype(int))
        if self.values is not None:
            vals = np.asarray(self.values, dtype=float)
            if vals.shape[-1] != loc.shape[0]:
                raise ValueError("values must align with location rows")
            object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class PdCheck:
    passed: bool
    min_eigenvalue: float
    threshold: float


@dataclass(frozen=True)
class FitResult:
    model: object                    # BivariateModel or LmcBivariate
    kind: str
    nugget1: float
    nugget2: float
    mean1: float
    mean2: float
    nll: float
    n_params: int
    aic: float
    converged: bool
    n_iter: int


# ---------------------------------------------------------------------------
# Gram assembly.

def gram(model, sample: FieldSample, nugget1: float = 0.0,
         nugget2: float = 0.0) -> np.ndarray:
    """Block covariance matrix in the sample's row order.

    Every cell is read from one table of evaluated entries: the cells on or
    above the diagonal are placed from it and mirrored once below, so the
    result is full and bitwise symmetric.  When both components are observed
    at the same sites in the same order, the cross cells of sites (p, q) and
    (q, p) share an entry too: their distances are equal bit for bit.
    Nuggets add to the matching diagonal entries only.
    """
    return _mirror(_upper_gram(model, sample, nugget1, nugget2, check_finite=False))


def _upper_gram(model, sample: FieldSample, nugget1: float, nugget2: float,
                check_finite: bool = True) -> np.ndarray:
    """The Gram's cells on or above the diagonal, all that an in-place
    Cholesky factorisation of its transpose reads; a cell below holds zero or,
    in a block written whole, its own entry.  ``check_finite`` as in
    :meth:`_GramCache.build`."""
    return _GramCache(sample).build(model, nugget1, nugget2, check_finite=check_finite)


def _mirror(m: np.ndarray) -> np.ndarray:
    """m with each cell below the diagonal copied from its mirror above, in place."""
    for k in range(m.shape[0] - 1):
        m[k + 1:, k] = m[k, k + 1:]
    return m


@np.errstate(over="ignore")   # overflowed squares are recomputed below
def _block_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances between the rows of a and b, bit-equal to
    ``np.linalg.norm(a[i] - b[j])`` (squares summed in coordinate order)
    wherever that sum of squares is finite; where it overflows, the distance
    is taken by hypot, which scales, and is infinite only past the double range."""
    sq = 0.0
    for k in range(a.shape[1]):
        diff = a[:, None, k] - b[None, :, k]
        sq = sq + diff * diff
    dist = np.sqrt(sq)
    if np.max(dist, initial=0.0) == math.inf:
        big = np.nonzero(np.isinf(dist))
        dist[big] = np.hypot.reduce(np.abs(a[big[0]] - b[big[1]]), axis=1)
    return dist


def _check_nuggets(nugget1: float, nugget2: float) -> None:
    _require(0.0 <= nugget1 < math.inf and 0.0 <= nugget2 < math.inf,
             f"nuggets must be finite and nonnegative, got {nugget1} and {nugget2}")


def _strided(rows: np.ndarray) -> slice | None:
    """``rows`` (increasing) as a slice, None when they are not evenly spaced."""
    steps = np.unique(np.diff(rows))
    if steps.size > 1:
        return None
    step = int(steps[0]) if steps.size else 1
    start = int(rows[0]) if rows.size else 0
    return slice(start, start + step * rows.size, step)


class _GramCache:
    """A sample's block distances, the layout of its value table
    [11 entries, 12 entries, 22 entries, var1 + nugget1, var2 + nugget2] and
    where each entry goes in the Gram, so repeated builds only re-evaluate
    families.  ``slots[pair]`` is the pair's span of the table.  A block whose
    two location lists are equal keeps one entry per unordered pair of sites,
    in the row-major order of its upper triangle (``upper[pair]``; None for a
    full block, kept in row-major order).

    Each distinct point set is measured once: in a colocated sample the two
    components share one, so pairs 11, 12 and 22 read one distance block, and
    11 and 22 one triangle of it.  The distance arrays are read-only.

    ``writes[pair]`` lists, for the pair's block of rows i and columns j and
    for its mirror, rows j and columns i, where the block's cells that lie
    above the Gram's diagonal go: ``out[at][above]`` takes ``table[take]``,
    ``take`` the pair's slice, a mask of the table or an index made here.
    Where the components' rows are not evenly spaced ``above`` is None: a
    full block goes whole to ``out[at]``, an ``np.ix_`` index (transposed
    for its mirror), and a triangle cell by cell.  A block with no cell
    above the diagonal is left out."""

    def __init__(self, sample: FieldSample):
        self.comp = sample.components
        self.rows = {c: np.flatnonzero(self.comp == c) for c in (1, 2)}
        pts = {c: sample.locations[r] for c, r in self.rows.items()}
        # the point set of each component: one for both when they are equal
        key = {1: 1, 2: 1 if np.array_equal(pts[1], pts[2]) else 2}
        self.dist, self.slots, self.upper, start, blocks, triangles = {}, {}, {}, 0, {}, {}
        self.masks = {}
        for pair in _PAIRS:
            i, j = int(pair[0]), int(pair[1])
            a, b = key[i], key[j]
            if (a, b) not in blocks:
                blocks[a, b] = _block_distances(pts[a], pts[b])
            full = blocks[a, b]
            if a == b:
                # the self-pairs of 11 and 22 are the diagonal: variance slots
                if (a, i == j) not in triangles:
                    sites = np.arange(full.shape[0])
                    upper = self._mask(np.minimum(sites + int(i == j), sites.size), sites.size)
                    triangles[a, i == j] = upper, full[upper]
                self.upper[pair], self.dist[pair] = triangles[a, i == j]
            else:
                self.upper[pair], self.dist[pair] = None, full.ravel()
            self.dist[pair].flags.writeable = False
            self.slots[pair] = slice(start, start + self.dist[pair].size)
            start += self.dist[pair].size
        self.n_slots = start + 2
        # within[pair] = (base, index): dist[pair] is dist[base][index] (index None: all
        # of it); with one point set 11 and 22 hold 12's triangle off its diagonal
        self.within = {pair: (pair, None) for pair in _PAIRS}
        if key[2] == 1:
            off = triangles[1, True][0][triangles[1, False][0]]
            self.within.update({"11": ("12", off), "22": ("12", off)})
        strided = {c: _strided(r) for c, r in self.rows.items()}
        self.writes = {pair: [w for w in (self._write(pair, side, strided) for side in
                                          dict.fromkeys((pair, pair[::-1]))) if w is not None]
                       for pair in _PAIRS}

    def _write(self, pair: str, side: str, strided: dict):
        """(at, above, take) of the block of rows p and columns q, side = "pq",
        None when none of its cells lies above the diagonal."""
        p, q, flip = int(side[0]), int(side[1]), side != pair
        rows_p, rows_q = self.rows[p], self.rows[q]
        # each row's cells above the diagonal are those from its first column past it on
        first = np.searchsorted(rows_q, rows_p, side="right")
        if np.all(first == rows_q.size):
            return None
        upper, slots = self.upper[pair], self.slots[pair]
        if upper is None and not (strided[p] and strided[q]):
            # a full block whole, in stored order: its cells below the diagonal are never read
            at = (rows_p[None, :], rows_q[:, None]) if flip else np.ix_(rows_p, rows_q)
            return at, None, slots
        above = self._mask(first, rows_q.size)
        if above is upper:   # the stored triangle as it stands
            take = slots
        elif not flip if upper is None else np.all(first >= np.arange(rows_p.size)):
            # stored entries in stored order, a full block's or those within the stored
            # triangle (its rows begin at their own sites): a mask, cheaper than indices
            take = np.zeros(self.n_slots, dtype=bool)
            take[slots] = above.ravel() if upper is None else above[upper]
        else:   # a full block's mirror, or a colocated cross block's triangle mirrored
            # (12's, which holds the diagonal), as when component 2 follows component 1
            index = np.arange(slots.start, slots.stop)
            if upper is None:
                index = index.reshape(self.rows[int(pair[0])].size, -1)
            else:
                index, entries = np.empty(upper.shape, dtype=np.intp), index
                index[upper] = index.T[upper] = entries
            take = (index.T if flip else index)[above]
        if strided[p] and strided[q]:
            return (strided[p], strided[q]), above, take
        # a triangle whose rows are not evenly spaced: each cell above the diagonal
        # at its own row and column, row by row
        counts = rows_q.size - first
        cols = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - first, counts)
        return (rows_p.repeat(counts), rows_q[cols]), None, take

    def _mask(self, first: np.ndarray, width: int) -> np.ndarray:
        """The (first.size, width) mask of each row's cells from its ``first``
        column on, one array for equal masks."""
        key = width, first.tobytes()
        if key not in self.masks:
            self.masks[key] = np.arange(width) >= first[:, None]
        return self.masks[key]

    def place(self, table: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The (N, N) matrix whose every cell on or above the diagonal holds
        its table entry, written into ``out`` when given: each block's cells
        there as ``writes`` lists them, then the two variance entries on the
        diagonal.  Cells below the diagonal are not read: they keep what they
        held, zeros in a new matrix, but in a block written whole take their
        own entries; :func:`_mirror` fills them.  Applied to
        ``arange(n_slots)`` it gives each cell's slot on and above the
        diagonal."""
        n = self.comp.size
        out = np.zeros((n, n), dtype=table.dtype) if out is None else out
        for pair in _PAIRS:
            for at, above, take in self.writes[pair]:
                if above is None:   # whole or cell by cell: the values take the cells' shape
                    out[at] = table[take].reshape(np.broadcast(*at).shape)
                else:
                    out[at][above] = table[take]
        for c in (1, 2):
            out[self.rows[c], self.rows[c]] = table[c - 3]
        return out

    def shared(self, terms, frees):
        """(k, (psi, derivatives)) for each term k of :func:`bimodels._terms`, by one
        :func:`corrfn._param_derivatives` call per distance array with the terms'
        ``frees`` entries, an array's values made once the last array's are taken:
        a Matern term reads its pair's ``within`` base (members of one scale read
        one table) and keeps its own cells; any other term reads its pair's array."""
        groups = {}
        for k, (pair, _, fam) in enumerate(terms):
            base, index = self.within[pair] if fam.kind == "Matern" else (pair, None)
            groups.setdefault(base, []).append((k, index, fam, frees[k]))
        for base, members in groups.items():
            ks, ix, fams, free = map(list, zip(*members))
            for k, index, (psi, ds) in zip(ks, ix, _param_derivatives(fams, self.dist[base], free)):
                yield k, (psi, ds) if index is None else (
                    psi[index], [None if d is None else d[index] for d in ds])

    def build(self, model, nugget1: float, nugget2: float, psis=None,
              out: np.ndarray | None = None, check_finite: bool = True) -> np.ndarray:
        """The Gram of ``model`` placed from its value table, on and above the
        diagonal: each term of :func:`bimodels._terms` adds amplitude times its
        correlation at the pair's distances to the pair's entries, and its
        amplitude to the pair's variance, to which the nuggets then add.
        ``psis`` holds the terms' correlations when already evaluated;
        ``out``, an (N, N) float array, receives the Gram in place of a new
        one, and its cells below the diagonal are left as :meth:`place`
        says.  With ``check_finite`` a table with a non-finite value raises
        numpy's ``asarray_chkfinite`` ``ValueError``: every cell LAPACK reads
        comes from the table, so the factorisations need not scan the N x N
        array."""
        _check_nuggets(nugget1, nugget2)
        terms = _terms(model)
        # each array's values are summed before the next array's are made; a pair
        # sums at most two terms, so the order they come in keeps the bits
        values = (enumerate(psis) if psis else
                  ((k, psi) for k, (psi, _) in self.shared(terms, [(False,) * 3] * len(terms))))
        entries, var = {}, {}
        for k, psi in values:
            pair, amp, _ = terms[k]
            _sum_into(var, pair, amp)
            if self.dist[pair].size:
                _sum_into(entries, pair, amp * psi)
        table = np.concatenate([entries[p] for p in _PAIRS if p in entries]
                               + [np.array([var["11"], var["22"]])])
        table[-2:] += nugget1, nugget2
        return self.place(np.asarray_chkfinite(table) if check_finite else table, out)


def check_pd(matrix: np.ndarray) -> PdCheck:
    """Eigenvalue test: pass when min eig >= -1e-8 * largest diagonal."""
    m = np.asarray(matrix, dtype=float)
    if not np.array_equal(m, m.T):
        raise ValueError("matrix must be exactly symmetric")
    w = np.linalg.eigvalsh(m)
    threshold = -1e-8 * float(np.max(np.diag(m)))
    return PdCheck(bool(w[0] >= threshold), float(w[0]), threshold)


# ---------------------------------------------------------------------------
# Simulation.

_JITTER_LADDER = (0.0, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


def _chol_with_jitter(m: np.ndarray) -> tuple[np.ndarray, float]:
    """numpy's lower Cholesky factor of m, which reads m's lower triangle only."""
    scale = float(np.max(np.diag(m)))
    for j in _JITTER_LADDER:
        try:
            # the zero rung factors m itself rather than a copy plus 0 * I
            jittered = m + j * scale * np.eye(m.shape[0]) if j else m
            return np.linalg.cholesky(jittered), j * scale
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError(
        "covariance matrix is not positive definite even with maximal jitter")


@np.errstate(over="ignore", divide="ignore", invalid="ignore")   # non-finite values raise
def simulate(model, locations, components, seed: int, n_draws: int = 1,
             mean1: float = 0.0, mean2: float = 0.0,
             nugget1: float = 0.0, nugget2: float = 0.0) -> FieldSample:
    """Draw a Gaussian field sample by Cholesky factorization.

    Deterministic for a given seed (counter-based generator).  The jitter
    actually applied is recorded under ``info["jitter"]``.  With
    ``n_draws > 1`` the values array has one row per draw.
    """
    _require(math.isfinite(mean1) and math.isfinite(mean2),
             f"means must be finite, got {mean1} and {mean2}")
    base = FieldSample(locations=locations, components=components)
    m = _upper_gram(model, base, nugget1, nugget2, check_finite=False)
    chol, jitter = _chol_with_jitter(m.T)
    rng = np.random.Generator(np.random.Philox(seed))
    eps = rng.standard_normal((n_draws, m.shape[0]))
    means = np.where(base.components == 1, mean1, mean2)
    values = eps @ chol.T + means
    _require(bool(np.isfinite(values).all()), "simulated values are not finite: the "
             "model's covariances at these locations leave the double range")
    if n_draws == 1:
        values = values[0]
    return FieldSample(locations=base.locations, components=base.components,
                       values=values, seed=seed, info={"jitter": jitter})


# ---------------------------------------------------------------------------
# Exact Gaussian likelihood with profiled per-component means.

def _cython_lapack() -> ctypes.CDLL:
    """scipy's ``linalg.cython_lapack`` extension with the LAPACK it links
    against, opened by ctypes: no scipy module loads."""
    scipy = importlib.util.find_spec("scipy")
    spec = importlib.machinery.PathFinder.find_spec(
        "cython_lapack", [os.path.join(scipy.submodule_search_locations[0], "linalg")])
    return ctypes.CDLL(spec.origin)


@functools.cache
def _lapack() -> types.SimpleNamespace:
    """scipy's LAPACK and BLAS routines as ctypes functions of their Fortran
    pointer arguments, ints 32-bit as in ``cython_lapack``: the library's
    ``scipy_<name>_`` symbols or, where it exports none (older scipy wheels;
    Windows, whose loader does not search a DLL's dependencies), scipy's
    capsules that call them.  Unlike scipy's wrappers, which copy an array
    that is not contiguous, they read and write a block where it lies."""
    # dpotrf(uplo, n, a, lda, info) is "cipii": c a char, i an int, d a double, p an array
    kinds = {"c": ctypes.c_char_p, "i": ctypes.POINTER(ctypes.c_int),
             "d": ctypes.POINTER(ctypes.c_double), "p": ctypes.c_void_p}
    routines = {"dpotrf": "cipii", "dpotrs": "ciipipii", "dtrtrs": "ccciipipii",
                "dtrtri": "ccipii", "dlauum": "cipii", "dtrmm": "cccciidpipi",
                "dsyr": "cidpipi"}
    try:
        library = _cython_lapack()
        pointers = {name: ctypes.cast(getattr(library, f"scipy_{name}_"), ctypes.c_void_p).value
                    for name in routines}
    except (AttributeError, OSError):
        from scipy.linalg import cython_blas, cython_lapack
        capsules = {**cython_blas.__pyx_capi__, **cython_lapack.__pyx_capi__}
        # prototypes of their own, so that ctypes.pythonapi's shared attributes stay as they are
        capsule_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
            ("PyCapsule_GetName", ctypes.pythonapi))
        capsule_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
            ("PyCapsule_GetPointer", ctypes.pythonapi))
        pointers = {name: capsule_pointer(capsules[name], capsule_name(capsules[name]))
                    for name in routines}
    return types.SimpleNamespace(**{
        name: ctypes.CFUNCTYPE(None, *(kinds[k] for k in args))(pointers[name])
        for name, args in routines.items()})


def _square_fortran(c: np.ndarray) -> int:
    """The rows of c, a square, writeable, Fortran-ordered float64 array, which
    LAPACK may then read and write where it lies; any other array raises ``ValueError``."""
    n = c.shape[0]
    if not (c.dtype == np.float64 and c.shape == (n, n) and c.flags.f_contiguous
            and c.flags.writeable):
        raise ValueError("the factor must be a square, writeable, Fortran-ordered float64 array")
    return n


# This module factors and solves through these two module attributes, so a
# wrapper set on them from outside sees every call.
def cho_factor(a: np.ndarray):
    """(L, True), L the lower Cholesky factor of a by LAPACK potrf, written over
    a's lower triangle, whose strict upper triangle is neither read nor written;
    a is as :func:`_square_fortran` requires.  A matrix that is not positive
    definite raises ``LinAlgError``, with scipy's ``cho_factor`` message."""
    n, info = _square_fortran(a), ctypes.c_int(0)
    _lapack().dpotrf(b"L", ctypes.c_int(n), a.ctypes.data, ctypes.c_int(max(1, n)), info)
    if info.value:
        raise np.linalg.LinAlgError(
            f"{info.value}-th leading minor of the array is not positive definite")
    return a, True


def cho_solve(factor, b: np.ndarray) -> np.ndarray:
    """K^-1 b by LAPACK potrs from the factor of K that :func:`cho_factor`
    returns, on a Fortran-ordered copy of b, a vector or a matrix of columns.
    Only b is checked for finite values, with numpy's ``asarray_chkfinite``
    ``ValueError``: the factor was made here from a checked table."""
    c, n = factor[0], factor[0].shape[0]
    x = np.asarray_chkfinite(np.array(b, dtype=np.float64, order="F"))
    if x.shape[0] != n or x.ndim > 2:
        raise ValueError(f"incompatible dimensions ({c.shape} and {x.shape})")
    ld, info = ctypes.c_int(max(1, n)), ctypes.c_int(0)
    _lapack().dpotrs(b"L", ctypes.c_int(n), ctypes.c_int(x.size // n if n else 0),
                     c.ctypes.data, ld, x.ctypes.data, ld, info)
    return x


_DATA_RANGE = "the data values are too large: the likelihood's products leave the double range"


def _nll_core(m: np.ndarray, comp: np.ndarray, z: np.ndarray):
    """NLL, profiled means (mean1, mean2), the Cholesky factor of the Gram
    and Gram^-1 (z - profiled means).  m holds the Gram on and above its
    diagonal, checked for finite values where it was built
    (:meth:`_GramCache.build`); its cells below are neither read nor checked.
    m is overwritten: it is factored in place through m.T, its Fortran-ordered
    view, whose lower triangle that is.  Data whose GLS products or quadratic
    form leave the double range raise ``ValueError``, not a NaN."""
    factor = cho_factor(m.T)
    cols = [c for c in (1, 2) if np.any(comp == c)]
    design = np.column_stack([(comp == c).astype(float) for c in cols])
    solved_design = cho_solve(factor, design)
    with np.errstate(over="ignore", invalid="ignore"):   # products past the double range raise
        mu_fit = np.linalg.solve(design.T @ solved_design, solved_design.T @ z)
        resid = z - design @ mu_fit
        _require(bool(np.isfinite(resid).all()), _DATA_RANGE)
        solved = cho_solve(factor, resid)
        quad = float(resid @ solved)
    _require(math.isfinite(quad), _DATA_RANGE)
    means = {c: float(v) for c, v in zip(cols, mu_fit)}
    mu1, mu2 = means.get(1, 0.0), means.get(2, 0.0)
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    value = 0.5 * (len(z) * math.log(2.0 * math.pi) + logdet + quad)
    return value, mu1, mu2, factor, solved


# Rows of the diagonal blocks that :func:`_invert_lower` hands to LAPACK trtri.
# At one BLAS thread on a 2-core x86-64 VM, leaves of 32 and 64 rows took the
# same time on factors of 300 and 1,600 rows; 128 took 10-50% longer at 240-300
# rows, and trtri on the whole factor 1.7-3x as long.
_LEAF = 64


def _halvings(j: int, size: int):
    """The diagonal blocks (first row, rows) that :func:`_invert_lower` visits
    in the block of rows j to j + size, each after the two halves it splits into."""
    if size > _LEAF:
        half = size // 2
        yield from _halvings(j, half)
        yield from _halvings(j + half, size - half)
    yield j, size


def _invert_lower(c: np.ndarray) -> np.ndarray:
    """L^-1 in place of L, the lower triangle of the square Fortran-ordered
    float array c; the strict upper triangle is neither read nor written, as
    by LAPACK trtri.  A zero on L's diagonal raises ``LinAlgError``.

    The recursion of Elmroth, Gustavson, Jonsson and Kagstrom (SIAM Review 46,
    2004): with L split in halves, [[A, 0], [B, C]]^-1 = [[A^-1, 0],
    [-C^-1 B A^-1, C^-1]].  trtri inverts the diagonal blocks of at most
    ``_LEAF`` rows, and two BLAS trmm calls take each B to -C^-1 B A^-1, so
    most of the work runs at matrix-multiply speed, where trtri's own panels
    run it at a fraction of that.  Every block is read and written in c."""
    n, lapack = _square_fortran(c), _lapack()
    trtri, trmm = lapack.dtrtri, lapack.dtrmm
    base, ld, info = c.ctypes.data, ctypes.c_int(n), ctypes.c_int(0)
    one, minus_one = ctypes.c_double(1.0), ctypes.c_double(-1.0)

    def at(i: int, j: int) -> int:   # the address of c[i, j]
        return base + c.itemsize * (i + n * j)

    for j, size in _halvings(0, n):
        if size <= _LEAF:
            trtri(b"L", b"N", ctypes.c_int(size), at(j, j), ld, info)
            if info.value:
                raise np.linalg.LinAlgError(f"the factor's diagonal entry {j + info.value} "
                                            "is zero")
            continue
        # B, rows j + half to j + size of columns j to j + half, after its halves' inverses
        half = size // 2
        rows, cols, b = ctypes.c_int(size - half), ctypes.c_int(half), at(j + half, j)
        trmm(b"R", b"L", b"N", b"N", rows, cols, one, at(j, j), ld, b, ld)
        trmm(b"L", b"L", b"N", b"N", rows, cols, minus_one, at(j + half, j + half), ld, b, ld)
    return c


def _precision(factor) -> np.ndarray:
    """m^-1 = L^-T L^-1 from the lower Cholesky factor L of m, by
    :func:`_invert_lower` and LAPACK lauum, in the factor's lower triangle only
    (the other holds stale values).  The factor is overwritten."""
    inv = _invert_lower(factor[0])
    n = inv.shape[0]
    _lapack().dlauum(b"L", ctypes.c_int(n), inv.ctypes.data, ctypes.c_int(max(1, n)),
                     ctypes.c_int(0))
    return inv


def _precision_diagonal(factor) -> np.ndarray:
    """diag(m^-1) from the lower Cholesky factor L of m: the column sums of
    squares of L^-1, by :func:`_invert_lower`.  The factor is overwritten."""
    inv = _invert_lower(factor[0])
    for j in range(1, inv.shape[0]):   # the strict upper triangle holds stale values
        inv[:j, j] = 0.0
    return np.einsum("ij,ij->j", inv, inv)


def _values(data: FieldSample) -> np.ndarray:
    if data.values is None:
        raise ValueError("data sample carries no values")
    return np.asarray(data.values, dtype=float)


def nll(model, data: FieldSample, nugget1: float = 0.0,
        nugget2: float = 0.0) -> tuple[float, float, float]:
    """Negative log-likelihood and the profiled means (mean1, mean2).

    Data so large that the likelihood's products leave the double range raise
    ``ValueError``.
    """
    z = _values(data)
    m = _upper_gram(model, data, nugget1, nugget2)
    return _nll_core(m, data.components, z)[:3]


# ---------------------------------------------------------------------------
# Maximum likelihood fitting.

class _D:
    """A value x with its gradient g over theta (forward-mode differentiation)."""
    __slots__ = ("x", "g")

    def __init__(self, x: float, g: np.ndarray):
        self.x, self.g = x, g

    def __add__(self, o):
        return _D(self.x + o.x, self.g + o.g) if isinstance(o, _D) else _D(self.x + o, self.g)

    def __mul__(self, o):
        if isinstance(o, _D):
            return _D(self.x * o.x, o.x * self.g + self.x * o.g)
        return _D(self.x * o, o * self.g)

    __radd__, __rmul__ = __add__, __mul__

    def __sub__(self, o: "_D") -> "_D":
        return _D(self.x - o.x, self.g - o.g)

    def __rsub__(self, o):
        return _D(o - self.x, -self.g)

    def __truediv__(self, o: "_D") -> "_D":
        q = self.x / o.x
        return _D(q, (self.g - q * o.g) / o.x)

    def log(self) -> "_D":
        return self.chain(math.log(self.x), 1.0 / self.x)

    def chain(self, fx: float, dfx: float) -> "_D":
        """f(self) from f(x) and f'(x)."""
        return _D(fx, dfx * self.g)


# Transforms from a theta coordinate t to a parameter; v holds the parameters
# decoded before it.
def _exp(t: _D, v=None) -> _D:
    return t.chain(math.exp(t.x), math.exp(t.x))


def _tanh(t: _D, v=None) -> _D:
    return t.chain(math.tanh(t.x), 1.0 - math.tanh(t.x) ** 2)


def _box(lo: float, hi: float):
    """lo + (hi - lo) logistic(t)."""
    from scipy.special import expit

    def tf(t: _D, v) -> _D:
        y = expit(t.x)
        return lo + (hi - lo) * t.chain(y, y * (1.0 - y))
    return tf


def _log_box(lo: float, hi: float):
    box = _box(math.log(lo), math.log(hi))
    return lambda t, v: _exp(box(t, v))


def _sin_box(hi: float, lower):
    """lower(v) + (hi - lower(v)) sin^2(t).  Unlike a logistic box it reaches its
    lower edge at t = 0, and its slope vanishes only linearly there, so a search
    that runs onto the edge can leave it again."""
    def tf(t: _D, v) -> _D:
        low = lower(v)
        return low + (hi - low) * t.chain(math.sin(t.x) ** 2, math.sin(2.0 * t.x))
    return tf


def _from_logistic(x: float, v=None) -> float:
    """theta of a :func:`_sin_box` row from a start-box draw x of its logistic coordinate."""
    return math.asin(math.sqrt(1.0 / (1.0 + math.exp(-x))))


def _microergodic(i: str):
    """(transform, start map) of the row that carries m_ii = log(sigma_i^2 c s_ii^alpha_ii),
    c = beta_ii / alpha_ii for a Cauchy member and 1 for a stable one, and decodes
    log s_ii: psi_ii = 1 - c (s_ii r)^alpha_ii + ... near the origin, and the
    likelihood is nearly flat along m_ii (Zhang 2004, JASA).  The start map takes a
    draw of log s_ii to m_ii."""
    def offset(v):   # (log(sigma_i^2 c), alpha_ii)
        a, b, log_var = v[f"a{i}{i}"], v.get(f"b{i}{i}"), v[f"log_var{i}"]
        return (log_var if b is None else log_var + b.log() - a.log()), a

    def tf(t: _D, v) -> _D:
        off, a = offset(v)
        return (t - off) / a

    def from_log_scale(ls: float, v) -> float:
        off, a = offset(v)
        return off.x + a.x * ls
    return tf, from_log_scale


def _box_inv(x: float, lo: float, hi: float) -> float:
    frac = min(max((x - lo) / (hi - lo), 1e-12), 1.0 - 1e-12)
    return math.log(frac / (1.0 - frac))


def _parsimonious_matern_rho_bound(nu1: float, nu2: float, d: int) -> float:
    """Exact |rho| limit for common-scale members with nu12 = (nu1 + nu2)/2.

    With a shared scale the spectral ratio f12^2 / (f11 f22) is frequency
    free, so the bound is sharp: a gamma-function expression in nu1, nu2, d.
    """
    from scipy.special import gammaln
    half = 0.5 * d
    mean_nu = 0.5 * (nu1 + nu2)
    log_b = (0.5 * (gammaln(nu1 + half) + gammaln(nu2 + half)
                    - gammaln(nu1) - gammaln(nu2))
             + gammaln(mean_nu) - gammaln(mean_nu + half))
    return math.exp(log_b)


class _ParamSpec:
    """Per-kind transformed parameter space with latin hypercube start boxes.

    ``table`` lists (name, transform, start box, start map) per theta
    coordinate.  theta is unconstrained and every decoded model is valid:
    structural parameters stay in their boxes, and |rho| = |rho_frac| <= 1
    times the certified bound for the current structural parameters.  Below
    the cross-smoothness edges (stable alpha12 < max(alpha11, alpha22); Cauchy
    alpha12 or beta12 below the marginal mean) the bound, and so rho, is zero,
    so the search starts at them.  ``n_valid`` is the dimension handed to the
    bound engine.

    theta carries log sigma_i^2.  A stable or Cauchy fit searches coordinates
    along which the likelihood is better conditioned:

    * each marginal scale as m_ii = log(sigma_i^2 c s_ii^alpha_ii) (see
      :func:`_microergodic`), in the rows ``ls11`` and ``ls22`` that decode to
      log s_ii;
    * the cross scale as log s12 - (log s11 + log s22) / 2, so s12 follows the
      marginal scales along their ridges instead of drifting into the region
      where the bound, and so rho, is zero, a plateau with zero gradient;
    * the cross smoothness (and Cauchy beta12) in a :func:`_sin_box`, and
      rho_frac as sin(t), so a search can leave the cross edges and the bound.

    Their start boxes hold the plain coordinates (log s_ii, the logistic box
    coordinate, u of tanh(u)); a row's start map, None where theta is the
    start-box coordinate, turns a draw into theta, so every start decodes to
    the model a plain draw decodes to.
    """

    def __init__(self, kind: str, data: FieldSample, n_valid: int,
                 fit_nugget: bool, nugget1: float, nugget2: float):
        self.kind, self.n_valid, self.nuggets = kind, n_valid, (nugget1, nugget2)
        self.d_space = data.locations.shape[1]

        z = _values(data)
        v1 = float(np.var(z[data.components == 1])) or 1.0
        v2 = float(np.var(z[data.components == 2])) or 1.0
        self.emp_var = (v1, v2)
        rng = np.random.default_rng(0)
        n_obs = data.locations.shape[0]
        ii = rng.integers(0, n_obs, size=min(4000, n_obs * n_obs))
        jj = rng.integers(0, n_obs, size=ii.size)
        keep = ii != jj
        pair_dists = np.linalg.norm(
            data.locations[ii[keep]] - data.locations[jj[keep]], axis=1)
        # center the inverse-range starts on a near-neighbor quantile: the
        # median pairwise distance sits far outside the correlated zone
        ls = -math.log(max(float(np.quantile(pair_dists, 0.2)), 1e-12))
        lv1, lv2 = math.log(v1), math.log(v2)

        smooth = (_box_inv(0.35, 1e-3, 1.0), _box_inv(0.95, 1e-3, 1.0))
        table = [("log_var1", lambda t, v: t, (lv1 - 1.2, lv1 + 1.2)),
                 ("log_var2", lambda t, v: t, (lv2 - 1.2, lv2 + 1.2)),
                 ("rho_frac", _tanh, (-0.7, 0.7)) if kind == "matern" else
                 ("rho_frac", lambda t, v: t.chain(math.sin(t.x), math.cos(t.x)), (-0.7, 0.7),
                  lambda u, v: math.asin(math.tanh(u)))]
        if kind == "stable":
            table += [("a11", _box(1e-3, 1.0), smooth), ("a22", _box(1e-3, 1.0), smooth),
                      ("a12", _sin_box(2.0, lambda v: max(v["a11"], v["a22"], key=lambda a: a.x)),
                       (-4.0, 0.0), _from_logistic)]
        elif kind == "cauchy":
            lb = math.log(0.01), math.log(50.0)
            beta = (_box_inv(math.log(0.3), *lb), _box_inv(math.log(5.0), *lb))
            table += [("a11", _box(1e-3, 1.0), smooth), ("a22", _box(1e-3, 1.0), smooth),
                      ("a12", _sin_box(2.0, lambda v: 0.5 * (v["a11"] + v["a22"])),
                       (-4.0, 0.0), _from_logistic),
                      ("b11", _log_box(0.01, 50.0), beta), ("b22", _log_box(0.01, 50.0), beta),
                      ("b12", _sin_box(50.0, lambda v: 0.5 * (v["b11"] + v["b22"])),
                       (-6.0, -1.0), _from_logistic)]
        elif kind == "matern":
            nu = (_box_inv(math.log(0.3), math.log(0.05), math.log(10.0)),
                  _box_inv(math.log(2.5), math.log(0.05), math.log(10.0)))
            table += [("nu1", _log_box(0.05, 10.0), nu), ("nu2", _log_box(0.05, 10.0), nu),
                      ("ls", lambda t, v: t, (ls - 2.0, ls + 2.0))]
        elif kind == "lmc":
            # B_j = L_j L_j^T with L_j lower triangular, positive diagonal
            a1, a2 = 0.5 * math.log(0.5 * v1), 0.5 * math.log(0.5 * v2)
            sd12 = 0.6 * math.sqrt(v2)
            table = [(f"l{j}_{k}", tf, box) for j in (1, 2)
                     for k, tf, box in (("11", _exp, (a1 - 1.0, a1 + 1.0)),
                                        ("21", lambda t, v: t, (-sd12, sd12)),
                                        ("22", _exp, (a2 - 1.0, a2 + 1.0)))]
            table += [("ls1", lambda t, v: t, (ls - 2.2, ls + 0.6)),
                      ("ls2", lambda t, v: t, (ls - 0.6, ls + 2.2))]
        else:
            raise ValueError(f"unknown model kind {kind!r}")
        if kind in ("stable", "cauchy"):
            from . import validity   # rho's cap is field's only use of the bound engine
            self.validity = validity
            # log s12 as its offset from the mean marginal log scale
            cross = (lambda t, v: t + 0.5 * (v["ls11"] + v["ls22"]),
                     lambda ls, v: ls - 0.5 * (v["ls11"].x + v["ls22"].x))
            table += [(f"ls{p}", tf, (ls - 2.0, ls + 2.0), start_map)
                      for p, (tf, start_map) in (("11", _microergodic("1")),
                                                 ("22", _microergodic("2")), ("12", cross))]
        if fit_nugget:
            table += [("nugget1", _exp, (lv1 - 9.0, lv1 - 1.6)),
                      ("nugget2", _exp, (lv2 - 9.0, lv2 - 1.6))]
        self.table = [row if len(row) == 4 else (*row, None) for row in table]
        self.dim = len(table)

    def starts(self, n_starts: int, seed: int) -> np.ndarray:
        from scipy.stats import qmc
        unit = qmc.LatinHypercube(d=self.dim, seed=seed).random(n_starts)
        box = np.array([entry[2] for entry in self.table])
        return self.encode(box[:, 0] + unit * (box[:, 1] - box[:, 0]))

    def encode(self, draws: np.ndarray) -> np.ndarray:
        """theta from start-box draws, one row per start."""
        theta = np.array(draws, dtype=float)
        for row in theta:
            self._walk(row, encode=True)
        return theta

    def _walk(self, theta: np.ndarray, encode: bool = False) -> dict:
        """Every row's parameter as a :class:`_D`, decoded in table order.  With
        ``encode`` theta holds start-box draws, mapped to theta in place first."""
        v = {}
        for k, ((name, tf, _, start_map), basis) in enumerate(zip(self.table, np.eye(self.dim))):
            if encode and start_map is not None:
                theta[k] = start_map(theta[k], v)
            v[name] = tf(_D(float(theta[k]), basis), v)
        return v

    def decode(self, theta: np.ndarray):
        """theta -> (model, (nugget1, nugget2), sensitivities).

        The nuggets are :class:`_D` values, and the sensitivities are one
        (amplitude, parameters) pair of :class:`_D` values per term of
        :func:`bimodels._terms` (model), the parameters in
        :func:`corrfn._param_derivatives` order, None where fixed.
        """
        v = self._walk(theta)
        nuggets = tuple(v.get(f"nugget{c}", _D(self.nuggets[c - 1], np.zeros(self.dim)))
                        for c in (1, 2))
        if self.kind == "lmc":
            coefs, psis = [], []
            for j in (1, 2):
                l11, l21, l22 = (v[f"l{j}_{k}"] for k in ("11", "21", "22"))
                coefs.append((l11 * l11, l11 * l21, l21 * l21 + l22 * l22))
                psis.append(stable(1.0, math.exp(v[f"ls{j}"].x)))
            model = LmcBivariate(*(tuple(b.x for b in bs) for bs in coefs), *psis)
            return model, nuggets, [(b, [None, v[f"ls{j}"]])
                                    for j, bs in zip((1, 2), coefs) for b in bs]

        s1, s2 = (_exp(0.5 * v[f"log_var{c}"]) for c in (1, 2))
        if self.kind == "matern":
            ls = v["ls"]
            nus = (v["nu1"], 0.5 * (v["nu1"] + v["nu2"]), v["nu2"])
            params = {p: [nu, ls] for p, nu in zip(_PAIRS, nus)}
            rho = v["rho_frac"] * self._matern_bound(v["nu1"], v["nu2"])
            model = matern_bivariate(s1.x, s2.x, rho.x,
                                     *(nu.x for nu in nus), *[math.exp(ls.x)] * 3)
        else:
            params = {p: [v["a" + p], v["ls" + p]] + ([v["b" + p]] if "b" + p in v else [])
                      for p in _PAIRS}
            make = stable_bivariate if self.kind == "stable" else cauchy_bivariate
            shape = [v[k].x for k in ("a11", "a12", "a22", "b11", "b12", "b22") if k in v]
            scales = [math.exp(v["ls" + p].x) for p in _PAIRS]
            probe = make(1.0, 1.0, 0.0, *shape, *scales)
            rho = v["rho_frac"] * self._member_bound(probe, params)
            model = make(s1.x, s2.x, rho.x, *shape, *scales)
        amps = (s1 * s1, rho * s1 * s2, s2 * s2)
        return model, nuggets, [(amp, params[p]) for p, amp in zip(_PAIRS, amps)]

    def _member_bound(self, probe, params) -> _D:
        """:func:`certify`'s bound of a stable or Cauchy probe, bit for bit; its
        gradient holds the bound engine's winning candidate fixed."""
        report = self.validity.certify(probe, self.n_valid)
        grad = np.zeros(self.dim)
        if 0.0 < report.rho_bound_raw < 1.0:
            sens = self.validity._log_infimum_gradient(probe, report)
            for p, ds in zip(_PAIRS, sens):
                for d, q in zip(ds, params[p]):
                    grad += (0.5 * report.rho_bound * d) * q.g
        return _D(report.rho_bound, grad)

    def _matern_bound(self, nu1: _D, nu2: _D) -> _D:
        from scipy.special import digamma
        half, mean_nu = 0.5 * self.d_space, 0.5 * (nu1.x + nu2.x)
        b = _parsimonious_matern_rho_bound(nu1.x, nu2.x, self.d_space)
        common = 0.5 * (digamma(mean_nu) - digamma(mean_nu + half))
        d1, d2 = (0.5 * (digamma(nu + half) - digamma(nu)) + common for nu in (nu1.x, nu2.x))
        return _D(b, b * (d1 * nu1.g + d2 * nu2.g))


class _ProfiledNll:
    """theta -> (NLL with the component means profiled out, its gradient).

    One evaluation of each term's family gives both the Gram's value table
    and the table's derivatives.  The gradient is 1/2 <dK, W> with
    W = K^-1 - a a^T: W is summed once onto the table's slots,
    w = bincount(idx, W), and each parameter's derivative is
    1/2 <d table, w>.  LAPACK lauum and BLAS syr write W on and above the
    Gram's diagonal only, so idx, the cache's placement of the slot numbers
    made once per objective, holds them there and one discard slot below.
    Every entry slot lies off the diagonal, where W and the slot table are
    symmetric, so its sum is doubled; the variance slots lie on it.  Every Gram
    is built into one workspace that lives as long as the objective and is
    factored in place, so an evaluation maps no fresh N x N pages; no step
    writes the workspace below its diagonal but a build's whole-block write.
    A Gram matrix that is not positive definite is retried with a nugget floor
    of 1e-8 times the empirical component variance.
    Calls count towards ``cap`` and the best point is kept; the call that
    reaches the cap raises :class:`_BudgetSpent`.
    """

    def __init__(self, spec: _ParamSpec, data: FieldSample):
        self.spec, self.cache = spec, _GramCache(data)
        idx = self.cache.place(np.arange(self.cache.n_slots))
        idx[np.tri(idx.shape[0], k=-1, dtype=bool)] = self.cache.n_slots   # the discard slot
        self.idx = idx.ravel()
        self.z = _values(data)
        self.work = np.zeros((self.z.size,) * 2)
        self.floor = (1e-8 * spec.emp_var[0], 1e-8 * spec.emp_var[1])
        self.restart(math.inf)

    def restart(self, cap: float) -> None:
        self.cap, self.evals = cap, 0
        self.best = (math.inf, None)   # (NLL, (model, nuggets used))

    def core(self, model, nug1: float, nug2: float, psis=None):
        """:func:`_nll_core` on the workspace with the floor fallback, and the nuggets
        used; the factor it returns holds until the next call.  A failed factorization
        has overwritten part of the workspace, so the fallback builds the Gram again."""
        cache, work = self.cache, self.work
        try:
            out = _nll_core(cache.build(model, nug1, nug2, psis, work), cache.comp, self.z)
        except np.linalg.LinAlgError:
            nug1, nug2 = nug1 + self.floor[0], nug2 + self.floor[1]
            out = _nll_core(cache.build(model, nug1, nug2, psis, work), cache.comp, self.z)
        return out, nug1, nug2

    def __call__(self, theta: np.ndarray):
        value, grad, fitted = self._evaluate(theta)
        self.evals += 1
        if value < self.best[0]:
            self.best = (value, fitted)
        if self.evals >= self.cap:
            raise _BudgetSpent
        return value, grad

    def _evaluate(self, theta: np.ndarray):
        failed = np.zeros(self.spec.dim)
        try:
            model, nuggets, sens = self.spec.decode(theta)
            terms = _terms(model)
            free = [[q is not None for q in qs] for _, qs in sens]
            derivs = [d for _, d in sorted(self.cache.shared(terms, free), key=lambda kd: kd[0])]
            (value, _, _, (c, lower), a), nug1, nug2 = self.core(
                model, nuggets[0].x, nuggets[1].x, [psi for psi, _ in derivs])
        except (ValueError, OverflowError):
            return 1e13, failed, None
        except np.linalg.LinAlgError:
            return 1e12, failed, None
        if not math.isfinite(value):
            return 1e12, failed, None
        p, n = _precision((c, lower)), c.shape[0]
        _lapack().dsyr(b"L", ctypes.c_int(n), ctypes.c_double(-1.0), a.ctypes.data,
                       ctypes.c_int(1), p.ctypes.data, ctypes.c_int(n))
        # p.T, the workspace, lists W's cells in idx's order; the discard slot goes
        w = np.bincount(self.idx, p.T.ravel())[:-1]
        w[:-2] *= 2.0
        w_var = {"11": w[-2], "12": 0.0, "22": w[-1]}
        grad = 0.5 * (w[-2] * nuggets[0].g + w[-1] * nuggets[1].g)
        for (pair, _, _), (psi, ds), (amp, params) in zip(terms, derivs, sens):
            wp = w[self.cache.slots[pair]]
            grad = grad + (0.5 * (float(psi @ wp) + w_var[pair])) * amp.g
            for d, q in zip(ds, params):
                if q is not None:
                    grad = grad + (0.5 * amp.x * float(d @ wp)) * q.g
        return value, grad, (model, (nug1, nug2))


class _BudgetSpent(Exception):
    """The objective reached its evaluation cap; the start ends there."""


_KIND_ALIASES = {
    "stable": "stable", "stablebivariate": "stable",
    "cauchy": "cauchy", "cauchybivariate": "cauchy",
    "matern": "matern", "maternbivariate": "matern",
    "lmc": "lmc",
}


def fit_ml(data: FieldSample, model_kind: str, n_starts: int = 8, seed: int = 0,
           max_evals: int | None = None, fit_nugget: bool = False,
           nugget1: float = 0.0, nugget2: float = 0.0) -> FitResult:
    """Multi-start maximum likelihood over a valid-by-design parameter space.

    Each of the ``n_starts`` starts (at least 1) runs L-BFGS-B on the
    exact gradient of the NLL with the two component means profiled out (a
    Matern fit's smoothness derivatives included).  ``max_evals`` caps the
    NLL-and-gradient evaluations of each start (default 400 per parameter); a
    start ends on the cap with its best point.
    ``n_iter`` is the total over all starts, at most ``n_starts * max_evals``;
    ``converged`` is L-BFGS-B's verdict on the winning start (false when it
    ended on the cap).

    Every iterate is valid: rho is a fraction in [-1, 1] times the certified
    bound of the current structure, :func:`certify`'s own, and the cross smoothness is
    searched only where that bound can be positive: stable alpha12 in
    [max(alpha11, alpha22), 2], Cauchy alpha12 in [(alpha11 + alpha22)/2, 2]
    and beta12 in [(beta11 + beta22)/2, 50].  A singular Gram matrix is
    retried with a nugget floor of 1e-8 times the empirical component
    variance; the floor is added to the returned nuggets only when the
    returned model's Gram needs it.
    """
    z = _values(data)
    kind = _KIND_ALIASES.get(model_kind.lower().replace("_", ""))
    if kind is None:
        raise ValueError(f"unknown model kind {model_kind!r}")
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    if max_evals is not None and max_evals < 1:
        raise ValueError("max_evals must be at least 1")
    _check_nuggets(nugget1, nugget2)
    for c in (1, 2):
        mask = data.components == c
        if int(np.sum(mask)) < 10:
            raise ValueError(f"need at least 10 observations of component {c}")
        if float(np.var(z[mask])) == 0.0:
            raise ValueError(f"degenerate input: component {c} values are constant")

    from scipy.optimize import minimize
    spec = _ParamSpec(kind, data, data.locations.shape[1], fit_nugget, nugget1, nugget2)
    objective = _ProfiledNll(spec, data)
    best, total_evals = None, 0
    for theta0 in spec.starts(n_starts, seed):
        objective.restart(max_evals if max_evals is not None else 400 * spec.dim)
        try:
            # ftol = 1e-12 is about 4e-10 nats per step at N = 300; the default
            # 2.2e-9 stops up to 2e-3 nats short there
            converged = bool(minimize(objective, theta0, jac=True, method="L-BFGS-B",
                                      options=dict(ftol=1e-12)).success)
        except _BudgetSpent:
            converged = False
        total_evals += objective.evals
        if best is None or objective.best[0] < best[0]:
            best = (*objective.best, converged)

    if best[1] is None:
        raise ValueError("no start reached a finite likelihood")
    model, (nug1, nug2) = best[1]
    (value, mu1, mu2, _, _), nug1, nug2 = objective.core(model, nug1, nug2)
    n_params = spec.dim + 2
    return FitResult(model=model, kind=kind, nugget1=nug1, nugget2=nug2,
                     mean1=mu1, mean2=mu2, nll=value, n_params=n_params,
                     aic=2.0 * n_params + 2.0 * value,
                     converged=best[2], n_iter=total_evals)


# ---------------------------------------------------------------------------
# Simple cokriging and leave-one-out residuals.

def _unpack_fitted(model_or_fit, nugget1, nugget2, mean1, mean2):
    if isinstance(model_or_fit, FitResult):
        fit = model_or_fit
        return (fit.model,
                fit.nugget1 if nugget1 is None else nugget1,
                fit.nugget2 if nugget2 is None else nugget2,
                fit.mean1 if mean1 is None else mean1,
                fit.mean2 if mean2 is None else mean2)
    return (model_or_fit, nugget1 or 0.0, nugget2 or 0.0,
            mean1 or 0.0, mean2 or 0.0)


def cokrige(model_or_fit, data: FieldSample, targets, target_component: int,
            nugget1: float | None = None, nugget2: float | None = None,
            mean1: float | None = None, mean2: float | None = None):
    """Simple cokriging predictions and variances at target locations.

    With K = L L^T the data's Gram and c the cross-covariances of a target,
    the prediction is mean + c^T a, a = K^-1 (data - means), from one vector
    solve, and the variance is C(0) - |L^-1 c|^2, from one lower-triangular
    solve with all target columns.  The variance refers to the nugget-free
    field, so an observed location with zero nugget reproduces its
    observation with zero variance.  Targets must be finite.
    """
    model, nug1, nug2, mu1, mu2 = _unpack_fitted(
        model_or_fit, nugget1, nugget2, mean1, mean2)
    _require(math.isfinite(mu1) and math.isfinite(mu2),
             f"means must be finite, got {mu1} and {mu2}")
    return _cokrige(model, data, targets, target_component, nug1, nug2, (mu1, mu2))


@np.errstate(over="ignore", invalid="ignore")   # non-finite results raise
def _cokrige(model, data: FieldSample, targets, target_component: int,
             nugget1: float, nugget2: float, means=None):
    """:func:`cokrige` for a bare model; ``means=None`` takes the profiled
    GLS means of the data from the same Gram factor as the weights, and a
    from the likelihood's own solve."""
    z = _values(data)
    if target_component not in (1, 2):
        raise ValueError("target component must be 1 or 2")
    pts = np.atleast_2d(np.asarray(targets, dtype=float))
    if pts.shape[1] != data.locations.shape[1]:
        raise ValueError("targets must match the data coordinate dimension")
    _require(bool(np.isfinite(pts).all()), "targets must be finite")

    comp = data.components
    m = _upper_gram(model, data, nugget1, nugget2)
    if means is None:
        _, mu1, mu2, factor, a = _nll_core(m, comp, z)
    else:
        # m.T, whose lower triangle m holds, is factored in place, as in _nll_core
        (mu1, mu2), factor = means, cho_factor(m.T)
        a = cho_solve(factor, z - np.where(comp == 1, mu1, mu2))
    dist = _block_distances(pts, data.locations)
    cross = np.empty_like(dist)
    groups = [[c] for c in (1, 2) if np.any(comp == c)]
    if len(groups) == 2 and np.array_equal(data.locations[comp == 1], data.locations[comp == 2]):
        groups = [[1, 2]]   # one point set: both entries at one set of distances, one table
    for cs in groups:
        pairs = ["".join(sorted(f"{target_component}{c}")) for c in cs]
        for c, entry in zip(cs, _entries(model, pairs, dist[:, comp == cs[0]])):
            cross[:, comp == c] = entry
    pred = (mu1 if target_component == 1 else mu2) + cross @ a
    # L^-1 c for every target at once, by LAPACK trtrs in place on cross.T, which is
    # Fortran-ordered; only it is checked for finiteness: the factor was made here
    half, ld = np.asarray_chkfinite(cross.T), ctypes.c_int(max(1, m.shape[0]))
    _lapack().dtrtrs(b"L", b"N", b"N", ctypes.c_int(m.shape[0]), ctypes.c_int(half.shape[1]),
                     factor[0].ctypes.data, ld, half.ctypes.data, ld, ctypes.c_int(0))
    sill = float(_entries(model, (f"{target_component}{target_component}",), 0.0)[0])
    var = sill - np.einsum("ij,ij->j", half, half)
    _require(bool(np.isfinite(pred).all() and np.isfinite(var).all()), "cokriging results "
             "are not finite: the data values or the weights leave the double range")
    return pred, var


def loo_rmse(model_or_fit, data: FieldSample,
             nugget1: float | None = None, nugget2: float | None = None) -> float:
    """Leave-one-out RMSE via the precision-matrix shortcut.

    For a Gaussian vector the deleted residual at i is (P (z - mu))_i / P_ii
    with P the precision matrix, so no refitting or resolving per point is
    needed.  diag(P) is read from one triangular inverse,
    :func:`_invert_lower`: the column sums of squares of L^-1, L the Cholesky
    factor.  Means are the profiled GLS estimates of the full data.  Data so
    large that the likelihood's products or the RMSE leave the double range
    raise ``ValueError``.
    """
    model, nug1, nug2, _, _ = _unpack_fitted(model_or_fit, nugget1, nugget2,
                                             None, None)
    z = _values(data)
    factor, solved = _nll_core(_upper_gram(model, data, nug1, nug2), data.components, z)[3:]
    resid = solved / _precision_diagonal(factor)
    with np.errstate(over="ignore"):
        rmse = float(np.sqrt(np.mean(resid ** 2)))
    _require(math.isfinite(rmse), _DATA_RANGE)
    return rmse
