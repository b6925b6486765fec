"""Needle decomposition: recursive measure-preserving hyperplane splits.

Each cell is cut by a hyperplane chosen so that both halves keep the
relative measure of a prescribed set E, the empirical analogue of
bisecting with a zero of int_H (1_E - a) p.  Rotating a halfspace
through the cell mean inside a random coordinate plane switches the
sign of that integral between an angle and its antipode, so a bisection
on the angle always brackets a zero of the estimate.

Every cell is the base body cut by the halfspaces of its ancestors'
splits, so its samples are exact draws of the density's law on the
base, conditioned on those cuts (walks.exact_sample); a hit-and-run
chain replaces them only when the density has no exact law or a cell
is too thin for the rejection budget.

Recursion stops when the cell's sample covariance has second-largest
eigenvalue at most eps^2 (the cell is needle-like) or at max_depth.
The result reports per-cell weight, largest variance and relative
E-measure, plus the curve of mass fraction versus variance threshold.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bodies import RestrictedBody
from .rng import as_stream
from .walks import NoExactSampler, WalkError, exact_sample, run_chain

CELL_COLUMNS = ["cell_id", "depth", "weight", "max_variance", "rel_measure"]

_MIN_SIDE = 8
# proposals a cell's exact draw may spend per hit-and-run step of the
# chain it replaces.  At n = 6 one 256-row proposal batch costs about
# 66 us and one restricted hit-and-run step about 21 us, so a spent
# budget costs no more than the chain that then runs
_PROPOSALS_PER_STEP = 64


@dataclass(frozen=True)
class NeedleCell:
    cell_id: str
    depth: int
    weight: float
    max_variance: float
    second_variance: float
    rel_measure: float
    n_samples: int
    flag: str = ""

    def row(self):
        return [self.cell_id, self.depth, self.weight,
                self.max_variance, self.rel_measure]


@dataclass
class NeedleResult:
    cells: list
    curve: list
    meta: dict

    def mass_fraction_below(self, threshold):
        total = sum(c.weight for c in self.cells)
        kept = sum(c.weight for c in self.cells if c.max_variance <= threshold)
        return kept / total


def balanced_split(X, inside, i, j):
    """Angle of a halfspace through the sample mean preserving E's measure.

    The halfspace normal is cos(t) e_i + sin(t) e_j; F(t) is the sample
    mean of (1_E - a) over the halfspace.  F(pi) = -F(0) by construction
    (a is the same-sample mean of 1_E), so a sign change is bracketed.
    Returns (theta, side_mask, fhat, se) after 40 bisection steps; ties
    in the bisection move toward the smaller angle.
    """
    X = np.asarray(X, dtype=float)
    inside = np.asarray(inside, dtype=bool)
    m = len(X)
    a = float(inside.mean())
    d = inside.astype(float) - a
    center = X.mean(axis=0)
    ci = X[:, i] - center[i]
    cj = X[:, j] - center[j]

    def fhat(theta):
        side = (math.cos(theta) * ci + math.sin(theta) * cj) <= 0.0
        return float(d[side].sum()) / m, side

    f0, side0 = fhat(0.0)
    if f0 == 0.0:
        se = float(np.std(d * side0, ddof=1)) / math.sqrt(m)
        return 0.0, side0, 0.0, se
    s0 = math.copysign(1.0, f0)
    lo, hi = 0.0, math.pi
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        fm, _ = fhat(mid)
        if fm == 0.0 or math.copysign(1.0, fm) != s0:
            hi = mid
        else:
            lo = mid
    theta = 0.5 * (lo + hi)
    fstar, side = fhat(theta)
    se = float(np.std(d * side, ddof=1)) / math.sqrt(m)
    return theta, side, fstar, se


def _cut_body(body, normal, beta, x0):
    if isinstance(body, RestrictedBody):
        return body.with_cut(normal, beta, x0)
    return RestrictedBody(body, normal[None, :], [beta], x0)


def needle_decompose(density, E, eps, max_depth, k=256, rng=None):
    """Partition the support into near-needle cells preserving E's measure.

    E is a set descriptor with signed_distance (nonnegative inside).  Each
    cell, the root included, draws k exact samples of the density on the
    cell: its law on the base body, conditioned on the cell's cuts
    (walks.exact_sample), so a cell accepts at about its weight.  The
    budget allows _PROPOSALS_PER_STEP proposals per step of the fallback:
    when the density has no exact law or the budget runs out, the cell
    runs hit-and-run instead, k samples 2 steps apart after a burn-in of
    30 n steps, from the parent's sample deepest inside the cell (the
    root warm-starts).  Every cell draws from its own substream.
    Returns a NeedleResult with per-cell statistics, the mass-fraction
    versus variance-threshold curve, and in meta the count n_exact of
    cells drawn exactly.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    n = density.n
    stream = as_stream(rng)
    burn_in = 30 * n
    max_batches = -(-_PROPOSALS_PER_STEP * (burn_in + 2 * k) // max(k, 256))

    cells = []
    # queue rows: (cell_id, depth, weight, body, density, x0 or None)
    queue = [("0", 0, 1.0, density.body, density, None)]
    counter = 0
    n_flagged = 0
    n_exact = 0
    while queue:
        cell_id, depth, weight, body, cell_density, x0 = queue.pop(0)
        gen = stream.substream(counter).generator()
        counter += 1
        try:
            X = exact_sample(cell_density, k, gen, max_batches=max_batches)
            n_exact += 1
        except (NoExactSampler, WalkError):
            X = run_chain(cell_density, x0, k, burn_in=burn_in, thin=2, rng=gen)
        inside = E.signed_distance(X) >= 0.0
        a = float(inside.mean())
        if depth == 0 and not (0.25 <= a <= 0.75):
            raise ValueError(
                f"E has estimated root measure {a:.3f}, outside [0.25, 0.75]")
        Xc = X - X.mean(axis=0)
        lam = np.linalg.eigvalsh(Xc.T @ Xc / len(X))
        max_var = float(lam[-1])
        second_var = float(lam[-2]) if n >= 2 else 0.0

        def leaf(flag=""):
            cells.append(NeedleCell(cell_id, depth, weight, max_var,
                                    second_var, a, len(X), flag))

        if n < 2 or depth >= max_depth or second_var <= eps * eps:
            leaf()
            continue
        if a <= 0.0 or a >= 1.0:
            # E invisible in this cell; no constraint left to preserve
            leaf("degenerate")
            n_flagged += 1
            continue

        axes = gen.choice(n, size=2, replace=False)
        i, j = int(axes[0]), int(axes[1])
        theta, side, fstar, se = balanced_split(X, inside, i, j)
        if abs(fstar) > 2.0 * se:
            leaf("split_skipped")
            n_flagged += 1
            continue
        m_left = int(side.sum())
        if min(m_left, len(X) - m_left) < _MIN_SIDE:
            leaf("split_skipped")
            n_flagged += 1
            continue

        normal = np.zeros(n)
        normal[i] = math.cos(theta)
        normal[j] = math.sin(theta)
        center = X.mean(axis=0)
        beta = float(normal @ center)
        frac_left = m_left / len(X)

        margins = beta - X @ normal
        x_left = X[side][np.argmax(margins[side])]
        x_right = X[~side][np.argmax(-margins[~side])]
        body_left = _cut_body(body, normal, beta, x_left)
        body_right = _cut_body(body, -normal, -beta, x_right)
        queue.append((cell_id + "0", depth + 1, weight * frac_left,
                      body_left, density.restricted_to(body_left), x_left))
        queue.append((cell_id + "1", depth + 1, weight * (1.0 - frac_left),
                      body_right, density.restricted_to(body_right), x_right))

    thresholds = sorted({c.max_variance for c in cells})
    total = sum(c.weight for c in cells)
    curve = []
    for v in thresholds:
        kept = sum(c.weight for c in cells if c.max_variance <= v)
        curve.append((v, kept / total))
    meta = {"n": n, "eps": eps, "max_depth": max_depth, "k": k,
            "n_cells": len(cells), "n_flagged": n_flagged,
            "n_exact": n_exact, "total_weight": total}
    return NeedleResult(cells=cells, curve=curve, meta=meta)
