"""Point-cloud discretizations of 2D domains.

Domains are axis-aligned rectangles, optionally with circular holes drilled
out. A discretization is a flat set of nodes; the boundary nodes are the
nodes with an outward unit normal, and every other node is interior. Nodes
are the only geometric entity the solver ever sees, so everything
downstream (supports, stencils, assembly) works on the arrays stored here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial import cKDTree

from .io import _table

# Relative tolerance for "sits on the boundary", in units of the domain
# diagonal.
BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [x_lo, x_hi] x [y_lo, y_hi]."""

    x_lo: float
    x_hi: float
    y_lo: float
    y_hi: float

    def __post_init__(self) -> None:
        if not (self.x_lo < self.x_hi and self.y_lo < self.y_hi):
            raise ValueError(f"degenerate rectangle: {self}")

    @property
    def width(self) -> float:
        return self.x_hi - self.x_lo

    @property
    def height(self) -> float:
        return self.y_hi - self.y_lo

    @property
    def diagonal(self) -> float:
        return math.hypot(self.width, self.height)

    def contains(self, p: np.ndarray) -> np.ndarray:
        """Closed-rectangle membership, vectorized over trailing axis 2."""
        p = np.asarray(p)
        x, y = p[..., 0], p[..., 1]
        return (x >= self.x_lo) & (x <= self.x_hi) & (y >= self.y_lo) & (y <= self.y_hi)


@dataclass(frozen=True)
class Circle:
    cx: float
    cy: float
    radius: float

    def __post_init__(self) -> None:
        if not self.radius > 0:
            raise ValueError(f"circle radius must be positive, got {self.radius}")

    @property
    def center(self) -> np.ndarray:
        return np.array([self.cx, self.cy])


@dataclass(frozen=True)
class DomainShape:
    """Rectangle with zero or more circular holes.

    The signed distance is negative inside the material, zero on the
    boundary (outer rectangle or hole circles), positive outside.
    """

    rect: Rect
    holes: tuple[Circle, ...] = ()

    def signed_distance(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        x, y = p[..., 0], p[..., 1]
        qx = np.maximum(self.rect.x_lo - x, x - self.rect.x_hi)
        qy = np.maximum(self.rect.y_lo - y, y - self.rect.y_hi)
        outside = np.hypot(np.maximum(qx, 0.0), np.maximum(qy, 0.0))
        inside = np.minimum(np.maximum(qx, qy), 0.0)
        sd = outside + inside
        for hole in self.holes:
            r = np.hypot(x - hole.cx, y - hole.cy)
            sd = np.maximum(sd, hole.radius - r)
        return sd

    def contains(self, p: np.ndarray) -> np.ndarray:
        """Strict interior membership: signed distance < 0."""
        return self.signed_distance(p) < 0.0

    def project_to_boundary(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closest boundary point to each row of an (M, 2) array, and its outward normal.

        The point is the nearest of the clamped points on the four
        rectangle edges and the radial points on the hole circles; the
        normal is that of the edge or circle the point lies on.
        """
        p = np.asarray(p, dtype=float)
        r = self.rect
        x = np.clip(p[:, 0], r.x_lo, r.x_hi)
        y = np.clip(p[:, 1], r.y_lo, r.y_hi)
        points = [
            np.column_stack([np.full_like(y, r.x_lo), y]),
            np.column_stack([np.full_like(y, r.x_hi), y]),
            np.column_stack([x, np.full_like(x, r.y_lo)]),
            np.column_stack([x, np.full_like(x, r.y_hi)]),
        ]
        normals = [np.broadcast_to(n, p.shape) for n in ((-1.0, 0.0), (1.0, 0.0), (0.0, -1.0), (0.0, 1.0))]
        for hole in self.holes:
            d = p - hole.center
            nrm = np.hypot(d[:, 0], d[:, 1])
            # Center of the hole: any radial direction is closest.
            center = nrm == 0.0
            d[center] = (1.0, 0.0)
            nrm[center] = 1.0
            points.append(hole.center + d * (hole.radius / nrm)[:, None])
            normals.append(-d / nrm[:, None])  # the material lies outside the circle
        c = np.stack(points, axis=1)
        diff = c - p[:, None, :]
        best = np.argmin(np.hypot(diff[..., 0], diff[..., 1]), axis=1)
        rows = np.arange(len(p))
        return c[rows, best], np.stack(normals, axis=1)[rows, best]


@dataclass(frozen=True)
class NodeSet:
    """Flat arrays describing one point-cloud discretization.

    positions : (N, 2) float
    normals   : (N, 2) float, outward unit normal of each boundary node and a
                zero row for each interior node: a node is a boundary node
                iff its normal row is nonzero
    """

    positions: np.ndarray
    normals: np.ndarray
    domain: DomainShape

    @property
    def n(self) -> int:
        return self.positions.shape[0]

    @property
    def boundary_mask(self) -> np.ndarray:
        return (self.normals[:, 0] != 0.0) | (self.normals[:, 1] != 0.0)

    @property
    def interior_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    def replace(self, **kwargs) -> "NodeSet":
        return replace(self, **kwargs)

    def finalize(self) -> None:
        """Raise ValueError on a broken invariant of the cloud."""
        N = self.n
        if N < 2:
            raise ValueError("a cloud needs at least 2 nodes")
        if self.normals.shape != (N, 2):
            raise ValueError("inconsistent array shapes in NodeSet")
        # Checked before the tree, which rejects non-finite data with its own message.
        if not np.all(np.isfinite(self.positions)):
            raise ValueError("non-finite node positions")

        tol = BOUNDARY_TOL * self.domain.rect.diagonal
        sd = self.domain.signed_distance(self.positions)
        bnd = self.boundary_mask
        if np.any(np.abs(sd[bnd]) > tol):
            raise ValueError("boundary node off the boundary curve")
        if np.any(sd[~bnd] >= 0.0):
            raise ValueError("interior node not strictly inside the domain")

        nrm = np.hypot(self.normals[bnd, 0], self.normals[bnd, 1])
        # Written as "not within" so that a NaN normal fails too.
        if not np.all(np.abs(nrm - 1.0) <= 1e-12):
            raise ValueError("boundary normal not unit length")

        if cKDTree(self.positions).query_pairs(1e-12 * self.domain.rect.diagonal, output_type="ndarray").size:
            raise ValueError("coincident nodes")

    def to_csv(self, path, xy=None) -> None:
        """Write `x,y,kind,nx,ny` rows; normals are empty for interior nodes.

        xy, when given, is the x and y columns already written as text.
        """
        bnd = self.boundary_mask
        kind = np.where(bnd, "boundary", "interior")
        normals = np.where(bnd[:, None], self.normals, None)
        xy = self.positions.T if xy is None else xy
        with open(path, "w") as fh:
            fh.write("x,y,kind,nx,ny\n")
            fh.write(_table([*xy, kind, *normals.T]))


def build_rectangle_grid(rect: Rect, h: float) -> NodeSet:
    """Regular grid of nodes on a rectangle with target spacing h.

    The actual spacing per axis is the closest divisor of the side length,
    so grid lines always hit the corners exactly. Corner normals are the
    normalized average of the two adjacent edge normals.
    """
    if not h > 0:
        raise ValueError(f"spacing must be positive, got {h}")
    if h > rect.width or h > rect.height:
        raise ValueError(f"spacing {h} exceeds a rectangle side of {rect}")

    nx = int(round(rect.width / h)) + 1
    ny = int(round(rect.height / h)) + 1
    xs = np.linspace(rect.x_lo, rect.x_hi, nx)
    ys = np.linspace(rect.y_lo, rect.y_hi, ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    positions = np.column_stack([X.ravel(), Y.ravel()])

    x, y = positions[:, 0], positions[:, 1]
    on_left = x == rect.x_lo
    on_right = x == rect.x_hi
    on_bottom = y == rect.y_lo
    on_top = y == rect.y_hi
    bnd = on_left | on_right | on_bottom | on_top

    normals = np.zeros_like(positions)
    normals[on_left, 0] -= 1.0
    normals[on_right, 0] += 1.0
    normals[on_bottom, 1] -= 1.0
    normals[on_top, 1] += 1.0
    lengths = np.hypot(normals[:, 0], normals[:, 1])
    normals[bnd] /= lengths[bnd, None]
    nodes = NodeSet(positions, normals, DomainShape(rect))
    nodes.finalize()
    return nodes


def build_drilled_domain(rect: Rect, holes: tuple[Circle, ...] | list[Circle], h: float) -> NodeSet:
    """Rectangle grid with circular holes cut out.

    Grid nodes inside a hole or closer than h/2 to its circle are dropped;
    each circle is then sampled with ceil(2*pi*r/h) equally spaced boundary
    nodes whose normals point toward the hole center (outward from the
    material).
    """
    holes = tuple(holes)
    for hole in holes:
        if not (
            rect.x_lo < hole.cx - hole.radius
            and hole.cx + hole.radius < rect.x_hi
            and rect.y_lo < hole.cy - hole.radius
            and hole.cy + hole.radius < rect.y_hi
        ):
            raise ValueError(f"hole {hole} is not strictly inside {rect}")
    for i, a in enumerate(holes):
        for b in holes[i + 1 :]:
            if math.hypot(a.cx - b.cx, a.cy - b.cy) <= a.radius + b.radius:
                raise ValueError(f"holes {a} and {b} overlap")

    grid = build_rectangle_grid(rect, h)
    keep = np.ones(grid.n, dtype=bool)
    for hole in holes:
        r = np.hypot(grid.positions[:, 0] - hole.cx, grid.positions[:, 1] - hole.cy)
        keep &= r - hole.radius >= h / 2.0

    new_pos, new_norm = [], []
    for hole in holes:
        m = int(math.ceil(2.0 * math.pi * hole.radius / h))
        theta = 2.0 * math.pi * np.arange(m) / m
        ring = hole.center + hole.radius * np.column_stack([np.cos(theta), np.sin(theta)])
        new_pos.append(ring)
        new_norm.append((hole.center - ring) / hole.radius)

    positions = np.vstack([grid.positions[keep]] + new_pos)
    normals = np.vstack([grid.normals[keep]] + new_norm)

    nodes = NodeSet(positions, normals, DomainShape(rect, holes))
    nodes.finalize()
    return nodes
