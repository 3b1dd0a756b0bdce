"""Shared numeric primitives and the value types used across the package.

Every operation here is a pure function of immutable inputs. The value types
derive from ``_Value`` and store arrays through ``_freeze``, as read-only
copies; they pickle through their constructors, so an instance that comes
back from a worker process is validated and read-only again.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, fields

import numpy as np
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

# Tolerances fixed by the data contracts (exercised directly in the tests).
SYMMETRY_ATOL = 1e-12
ORTHOGONALITY_ATOL = 1e-10
PINV_RCOND = 1e-10

# Order up to which _top_eigenpairs_array runs a full dense eigendecomposition
# instead of Lanczos for the top p pairs. Measured on double-centred patch
# completions (2-vCPU host, one BLAS thread), ms per top-2 solve, dense vs
# Lanczos: m=64 0.31-0.47 vs 0.36-0.57, m=72 0.39-0.61 vs 0.37-0.55,
# m=80 0.47-0.69 vs 0.36-0.58, m~120 1.0 vs 0.4, m~900+ 172 vs 9.
_DENSE_EIGH_MAX_ORDER = 80

# Rows per np.dot in the Lanczos matrix-vector product. On two threads,
# OpenBLAS 0.3.31 rounds a whole-matrix B @ x differently from one thread at
# some orders (700, 1,500 and 2,330 of those tried); blocks of 256 rows gave
# the one-thread bits of B @ x on one and two threads at every order tried,
# 81 to 6,000. Per matvec on one thread (2-vCPU host), blocked vs whole:
# 1.88 vs 1.93 ms at m=2,330. Blocks of 64 rows were up to 2x slower on two
# threads.
_MATVEC_BLOCK_ROWS = 256

# Bytes of dense float64 scratch that one block of rows may hold: hop_balls
# runs its truncated searches from this many rows' worth of sources at a time,
# and the in-place symmetrizations of completion and double-centring walk an
# n x n array in row blocks of this size (at least one row).
_DENSE_BLOCK_BYTES = 2 * 1024 * 1024

# CSV indices lie below this bound, so that a count max(index) + 1 fits in int64.
_INDEX_LIMIT = np.iinfo(np.int64).max


class StressTuneError(Exception):
    """Base class for domain errors raised by this package."""


class DisconnectedGraphError(StressTuneError):
    """An operation that needs a connected (sub)graph got a disconnected one."""


class DegenerateGeometryError(StressTuneError):
    """A point set is affinely degenerate where full affine span is required."""


class EigenSolverError(StressTuneError):
    """The symmetric eigensolver failed: no convergence, or any other LAPACK or ARPACK error."""


def _physical_memory_bytes() -> int | None:
    """Installed physical memory in bytes, or None where ``os.sysconf`` cannot tell."""
    try:
        page, pages = os.sysconf("SC_PAGE_SIZE"), os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return page * pages if page > 0 and pages > 0 else None


def _check_dense_fits(step: str, n: int, arrays: int) -> None:
    """Raise ``StressTuneError`` when ``arrays`` dense n x n float64 arrays exceed physical memory.

    ``arrays`` counts what the step itself holds at once, so the check is a
    lower bound: it refuses only runs that cannot fit, before any is allocated.
    """
    need = arrays * 8 * n * n
    total = _physical_memory_bytes()
    if total is not None and need > total:
        raise StressTuneError(
            f"{step} at n={n} needs at least {need / 2**30:.3g} GiB of dense n x n arrays, "
            f"more than the {total / 2**30:.3g} GiB of physical memory"
        )


class _Value:
    """Base of the frozen dataclasses: a pickled copy is rebuilt by the constructor."""

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))


def _freeze(obj, name: str) -> np.ndarray:
    """Store a read-only C-order float64 copy of the array field ``name`` and return it."""
    out = np.array(getattr(obj, name), dtype=np.float64, order="C", copy=True)
    out.setflags(write=False)
    object.__setattr__(obj, name, out)
    return out


@dataclass(frozen=True)
class Configuration(_Value):
    """An indexed set of n points in R^p, stored as an (n, p) float array."""

    points: np.ndarray

    def __post_init__(self):
        pts = _freeze(self, "points")
        if pts.ndim != 2:
            raise ValueError("points must be a 2-d array of shape (n, p)")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("need n >= 1 points with dimension p >= 1")
        if not np.isfinite(pts).all():
            raise ValueError("coordinates must be finite")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def p(self) -> int:
        return self.points.shape[1]


@dataclass(frozen=True)
class DenseSymmetricMatrix(_Value):
    """Square symmetric float matrix, checked for symmetry at construction.

    ``+inf`` entries are permitted only when ``allow_infinite`` is set (used
    by shortest-path completion to mark unreachable pairs); NaN never is.
    """

    values: np.ndarray
    allow_infinite: bool = False

    def __post_init__(self):
        v = _freeze(self, "values")
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("matrix must be square")
        # One row block at a time, so the copy is the only n x n array held.
        nan = neginf = inf = False
        gap = 0.0
        for rows in _row_blocks(v.shape[0]):
            block = v[rows]
            nan = nan or bool(np.isnan(block).any())
            neginf = neginf or bool(np.isneginf(block).any())
            inf = inf or bool(np.isinf(block).any())
            # The gap is symmetric, so the block's upper part and its mirror cover it.
            upper, lower = v[rows, rows.start :], v[rows.start :, rows].T
            # Pairs infinite on both sides count as a zero gap.
            finite_pair = ~(np.isinf(upper) & np.isinf(lower))
            diff = np.subtract(upper, lower, out=np.zeros(upper.shape), where=finite_pair)
            gap = max(gap, float(np.abs(diff, out=diff).max(initial=0.0)))
        if nan:
            raise ValueError("matrix entries must not be NaN")
        if neginf:
            raise ValueError("matrix entries must not be -inf")
        if not self.allow_infinite and inf:
            raise ValueError("infinite entries are not permitted here")
        if gap > SYMMETRY_ATOL:
            raise ValueError(f"matrix is not symmetric within {SYMMETRY_ATOL:g} (max gap {gap:g})")

    @property
    def order(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class RigidMap(_Value):
    """Orthogonal map plus translation, ``x -> Q x + t``; Q may reflect."""

    Q: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        Q, t = _freeze(self, "Q"), _freeze(self, "t")
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        p = Q.shape[0]
        if t.shape != (p,):
            raise ValueError("t must have shape (p,)")
        if not (np.isfinite(Q).all() and np.isfinite(t).all()):
            raise ValueError("rigid map entries must be finite")
        gap = np.abs(Q.T @ Q - np.eye(p)).max()
        if gap > ORTHOGONALITY_ATOL:
            raise ValueError(f"Q is not orthogonal within {ORTHOGONALITY_ATOL:g}")

    @property
    def p(self) -> int:
        return self.Q.shape[0]

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply the map to an (n, p) array of row points."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.Q.T + self.t

    def apply_configuration(self, config: Configuration) -> Configuration:
        return Configuration(self.apply(config.points))


def _row_blocks(n: int):
    """Consecutive row slices of an ``n``-column float64 array, at most ``_DENSE_BLOCK_BYTES`` each.

    A block holds at least one row, and the last one may be partial.
    """
    step = max(1, _DENSE_BLOCK_BYTES // (8 * max(n, 1)))
    for start in range(0, n, step):
        yield slice(start, min(start + step, n))


def _symmetrize_in_place(W: np.ndarray, combine) -> np.ndarray:
    """Set ``W[i, j]`` and ``W[j, i]`` to ``combine(W[i, j], W[j, i])``, one row block at a time.

    ``combine(a, b, out=a)`` is elementwise and gives the same bits for
    swapped arguments, so the result equals ``combine(W, W.T)`` exactly while
    the scratch stays within a row block or two (numpy copies an operand that
    overlaps the output).
    """
    for rows in _row_blocks(W.shape[0]):
        upper = W[rows, rows.start :]
        combine(upper, W[rows.start :, rows].T, out=upper)
        W[rows.start :, rows] = upper.T
    return W


def _double_center_array(W: np.ndarray) -> np.ndarray:
    """Double-centre the writable square array ``W`` in place and return it.

    Same operations in the same order as ``B = W - r[:, None] - r[None, :] +
    W.mean()`` followed by ``(B + B.T) / 2.0``, so the bits agree, but no
    second n x n array is allocated.
    """
    r = W.mean(axis=1)
    mean = W.mean()
    W -= r[:, None]
    W -= r[None, :]
    W += mean
    _symmetrize_in_place(W, np.add)
    W /= 2.0
    return W


def _blocked_matvec(B: np.ndarray, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``B @ x`` written into ``out``, one ``np.dot`` per block of ``_MATVEC_BLOCK_ROWS`` rows.

    The blocks are fixed, so the BLAS thread count does not choose how the
    product is split, and the bits are those of ``B @ x`` on one thread.
    """
    for start in range(0, B.shape[0], _MATVEC_BLOCK_ROWS):
        rows = slice(start, start + _MATVEC_BLOCK_ROWS)
        np.dot(B[rows], x, out=out[rows])
    return out


def _top_eigenpairs_array(B: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense ``eigh`` up to ``_DENSE_EIGH_MAX_ORDER`` or for ``p > k // 4``, else Lanczos."""
    k = B.shape[0]
    try:
        if k <= _DENSE_EIGH_MAX_ORDER or p > k // 4:
            vals, vecs = np.linalg.eigh(B)
            vals, vecs = vals[k - p :], vecs[:, k - p :]
        else:
            # A fixed start vector: ARPACK's own random one depends on earlier
            # calls in the process, and a constant one lies in the null space
            # of a double-centred matrix.
            v0 = np.random.default_rng(0).standard_normal(k)
            out = np.empty(k)  # ARPACK copies each product out before the next
            op = LinearOperator((k, k), matvec=lambda x: _blocked_matvec(B, x, out), dtype=B.dtype)
            vals, vecs = eigsh(op, k=p, which="LA", v0=v0)
    except (np.linalg.LinAlgError, ArpackError) as exc:  # ArpackNoConvergence included
        raise EigenSolverError(f"eigendecomposition failed: {exc}") from exc
    # Both solvers return ascending eigenvalues.
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def affine_rank(points: np.ndarray) -> int:
    """Dimension of the affine span of row points.

    Counts the singular values of the centered points above ``PINV_RCOND``
    times the largest.
    """
    X = np.asarray(points, dtype=np.float64)
    if X.shape[0] == 0:
        return 0
    centered = X - X.mean(axis=0)
    s = np.linalg.svd(centered, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > PINV_RCOND * s[0]))


def write_configuration_csv(config: Configuration, path: str | os.PathLike) -> None:
    """Write ``id,x1,...,xp`` rows; csv writes floats as their repr, so reads round-trip exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id"] + [f"x{d + 1}" for d in range(config.p)])
        writer.writerows([i, *row] for i, row in enumerate(config.points.tolist()))


def _csv_rows(path: str | os.PathLike, columns) -> list[list]:
    """The parsed data rows of the UTF-8 CSV file at ``path``, one list each.

    ``columns(header)`` gives one ``(index, parse)`` pair per wanted field, or
    refuses the header by raising ``ValueError``. Blank rows are skipped; every
    other row must have as many fields as the header. A parsed float must be
    finite, and a parsed int is an index in [0, ``_INDEX_LIMIT``). A refusal
    names the file and, unless the file has no data rows, the row (the header
    is row 1).
    """
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, [])
            fields = columns(header)
            for rec in filter(None, reader):
                if len(rec) != len(header):
                    raise ValueError(f"{len(rec)} fields, but the header has {len(header)}")
                row = [parse(rec[i]) for i, parse in fields]
                for value in row:
                    if isinstance(value, float) and not math.isfinite(value):
                        raise ValueError(f"numbers must be finite, got {value}")
                    if isinstance(value, int) and not 0 <= value < _INDEX_LIMIT:
                        raise ValueError(f"index outside [0, {_INDEX_LIMIT})")
                rows.append(row)
        except UnicodeDecodeError as exc:  # decoded by the chunk, so no row to name
            raise ValueError(f"{path}: {exc}") from exc
        except (csv.Error, ValueError) as exc:
            raise ValueError(f"{path}: row {max(reader.line_num, 1)}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return rows


def _configuration_columns(header: list[str]):
    if len(header) < 2 or header[0] != "id":
        raise ValueError("expected header id,x1,...,xp")
    return [(0, int)] + [(c, float) for c in range(1, len(header))]


def read_configuration_csv(path: str | os.PathLike) -> Configuration:
    """Read a configuration written by :func:`write_configuration_csv`."""
    rows = _csv_rows(path, _configuration_columns)
    rows.sort(key=lambda r: r[0])
    if [r[0] for r in rows] != list(range(len(rows))):
        raise ValueError(f"{path}: ids must be 0..n-1 without gaps")
    return Configuration(np.array([r[1:] for r in rows]))
