"""Scalar volumes: .svol I/O and synthetic phantom generation (the stand-in
for clinical data).  Columns are sampled from a volume's own, possibly
anisotropic, lattice by patches.sample_columns."""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

_FLOAT_MAX = np.finfo(np.float64).max


class SvolError(ValueError):
    """Malformed .svol file or inconsistent header."""


@dataclass(frozen=True, eq=False)
class Volume:
    """Isotropic-or-not scalar 3-D image.

    data is a float32 (X,Y,Z) array; voxel (i,j,k) has its center at
    origin + (i*sx, j*sy, k*sz) in mm.  The .svol byte layout is x-fastest.
    """
    dims: tuple[int, int, int]
    spacing: tuple[float, float, float]
    origin: tuple[float, float, float]
    data: np.ndarray

    def __post_init__(self):
        # tuples, so grids given as lists and as tuples compare equal; the
        # elements are kept as given
        for name in ("dims", "spacing", "origin"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if any(d < 1 for d in self.dims):
            raise ValueError(f"dims must all be >= 1, got {self.dims}")
        if any(s <= 0 for s in self.spacing):
            raise ValueError(f"spacing must all be > 0, got {self.spacing}")
        if self.data.shape != self.dims:
            raise ValueError(f"data shape {self.data.shape} != dims {self.dims}")


def save_svol(vol: Volume, path) -> None:
    header = {
        "dims": list(vol.dims),
        "spacing": list(vol.spacing),
        "origin": list(vol.origin),
        "dtype": "f32le",
    }
    with open(path, "wb") as fh:
        fh.write((json.dumps(header) + "\n").encode("ascii"))
        fh.write(np.asarray(vol.data, dtype="<f4").ravel(order="F").tobytes())


def _finite(v) -> bool:
    """A JSON number (not a bool) that a float64 holds without overflow."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= _FLOAT_MAX


def _header_triple(header, key, path, ok, what) -> tuple:
    val = header[key]
    if not (isinstance(val, list) and len(val) == 3 and all(ok(v) for v in val)):
        raise SvolError(f"header field {key!r} in {path} must be {what}, got {val!r}")
    return tuple(val)


def load_svol(path) -> Volume:
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("ascii"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SvolError(f"malformed .svol header in {path}: {exc}") from exc
        if not isinstance(header, dict):
            raise SvolError(f"malformed .svol header in {path}: not a JSON object")
        for key in ("dims", "spacing", "origin", "dtype"):
            if key not in header:
                raise SvolError(f"missing header field {key!r} in {path}")
        if header["dtype"] != "f32le":
            raise SvolError(f"unsupported dtype {header['dtype']!r} in {path}")
        dims = _header_triple(header, "dims", path,
                              lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1,
                              "3 positive integers")
        spacing = _header_triple(header, "spacing", path, lambda v: _finite(v) and v > 0,
                                 "3 positive finite numbers")
        origin = _header_triple(header, "origin", path, _finite, "3 finite numbers")
        raw = fh.read()
    expect = dims[0] * dims[1] * dims[2] * 4
    if len(raw) != expect:
        raise SvolError(
            f"length mismatch in {path}: header implies {expect} data bytes, found {len(raw)}")
    data = np.frombuffer(raw, dtype="<f4").reshape(dims, order="F").copy()
    if not np.isfinite(data).all():
        raise SvolError(f"{path}: data must be finite, found "
                        f"{np.count_nonzero(~np.isfinite(data))} non-finite values")
    return Volume(dims=dims, spacing=tuple(float(s) for s in spacing),
                  origin=tuple(float(o) for o in origin), data=data)


# ---------------------------------------------------------------------------
# phantoms


@dataclass
class PhantomSpec:
    """Analytic test object: a two-level shape rendered into a volume plus its
    exact triangulated boundary.  Seed fixes the output bit-exactly."""
    kind: str = "ellipsoid"  # ellipsoid | bumpy
    semi_axes_mm: tuple[float, float, float] = (25.0, 22.0, 25.0)
    radius_mm: float = 24.0
    bump_amplitude_mm: float = 2.0
    bump_freq: float = 3.0
    noise_sigma: float = 0.0
    blur_sigma_mm: float = 0.0
    dims: tuple[int, int, int] = (64, 64, 64)
    spacing: tuple[float, float, float] = (1.0, 1.0, 1.0)
    seed: int = 0
    mesh_subdivisions: int = 4

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PhantomSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, raw: dict) -> "PhantomSpec":
        unknown = set(raw) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown PhantomSpec keys: {sorted(unknown)}")
        triples = {key: tuple(raw[key]) for key in ("semi_axes_mm", "dims", "spacing")
                   if key in raw}
        return cls(**{**raw, **triples})

    def validate(self) -> None:
        """Each error message starts with the name of the field it rejects."""
        if self.kind not in ("ellipsoid", "bumpy"):
            raise ValueError(f"kind must be 'ellipsoid' or 'bumpy', got {self.kind!r}")
        for name in ("noise_sigma", "blur_sigma_mm"):
            sigma = getattr(self, name)
            if not (math.isfinite(sigma) and sigma >= 0):
                raise ValueError(f"{name} must be a finite number >= 0, got {sigma!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if not all(math.isfinite(a) and a > 0 for a in self.semi_axes_mm):
            raise ValueError(f"semi_axes_mm must all be finite and > 0, "
                             f"got {list(self.semi_axes_mm)}")
        for name in ("bump_amplitude_mm", "bump_freq"):
            val = getattr(self, name)
            if not math.isfinite(val):
                raise ValueError(f"{name} must be finite, got {val!r}")
        # a positive radius in every direction: the bump field lies in [-1, 1]
        if not (math.isfinite(self.radius_mm) and self.radius_mm > abs(self.bump_amplitude_mm)):
            raise ValueError(f"radius_mm must be finite, > 0 and > |bump_amplitude_mm| = "
                             f"{abs(self.bump_amplitude_mm)!r}, got {self.radius_mm!r}")
        if self.mesh_subdivisions < 0:
            raise ValueError(f"mesh_subdivisions must be >= 0, got {self.mesh_subdivisions!r}")
        if min(self.dims) < 1:
            raise ValueError(f"dims must all be >= 1, got {list(self.dims)}")
        if not all(math.isfinite(s) and s > 0 for s in self.spacing):
            raise ValueError(f"spacing must all be finite and > 0, got {list(self.spacing)}")
        half = (np.asarray(self.dims) - 1) / 2.0 * np.asarray(self.spacing)
        margin = 4.0 * np.asarray(self.spacing)
        if self.kind == "ellipsoid":
            reach = np.asarray(self.semi_axes_mm)
        else:
            reach = np.full(3, self.radius_mm + abs(self.bump_amplitude_mm))
        if np.any(reach + margin > half):
            name = "semi_axes_mm" if self.kind == "ellipsoid" else "radius_mm"
            raise ValueError(
                f"{name} must let the phantom fit the volume with a 4-voxel margin: "
                f"reach {reach.tolist()} vs half-extent {half.tolist()}")


def _bump_field(u: np.ndarray, freq: float) -> np.ndarray:
    # smooth seamless modulation on the unit sphere, bounded by 1
    x, y, z = u[..., 0], u[..., 1], u[..., 2]
    f = freq
    return (np.sin(f * x) * np.cos(f * y)
            + np.sin(f * y) * np.cos(f * z)
            + np.sin(f * z) * np.cos(f * x)) / 3.0


def _phantom_radius(spec: PhantomSpec, u: np.ndarray) -> np.ndarray:
    """Radius of the analytic boundary along unit directions u."""
    if spec.kind == "ellipsoid":
        a, b, c = spec.semi_axes_mm
        return 1.0 / np.sqrt((u[..., 0] / a) ** 2 + (u[..., 1] / b) ** 2 + (u[..., 2] / c) ** 2)
    return spec.radius_mm + spec.bump_amplitude_mm * _bump_field(u, spec.bump_freq)


def _inside_mask(spec: PhantomSpec) -> np.ndarray:
    """Boolean (X,Y,Z) inside test at the voxel centres, evaluated on open
    per-axis coordinates shaped (X,1,1), (1,Y,1) and (1,1,Z)."""
    spacing = np.asarray(spec.spacing)
    center = (np.asarray(spec.dims) - 1) / 2.0 * spacing
    px, py, pz = (i * s - c for i, s, c in
                  zip(np.ix_(*(np.arange(d) for d in spec.dims)), spacing, center))
    if spec.kind == "ellipsoid":
        a, b, c = spec.semi_axes_mm
        return (px / a) ** 2 + (py / b) ** 2 + (pz / c) ** 2 <= 1.0
    p = np.stack(np.broadcast_arrays(px, py, pz), axis=-1)
    r = np.linalg.norm(p, axis=-1)
    with np.errstate(invalid="ignore", divide="ignore"):
        u = p / np.where(r[..., None] > 0, r[..., None], 1.0)
    return r <= _phantom_radius(spec, u)


def make_phantom(spec: PhantomSpec):
    """Render the phantom: returns (volume, labels, truth), where labels holds
    the float32 inside test, volume is those labels blurred plus seeded noise,
    and truth is the analytic boundary mesh (deformed icosphere)."""
    from scipy import ndimage  # here, so that only the phantom step imports it

    from . import mesh as meshmod

    spec.validate()
    grid = {"dims": spec.dims, "spacing": spec.spacing, "origin": (0.0, 0.0, 0.0)}
    labels = Volume(**grid, data=_inside_mask(spec).astype(np.float32))
    data = labels.data.astype(np.float64)
    if spec.blur_sigma_mm > 0:
        sig = [spec.blur_sigma_mm / s for s in spec.spacing]
        data = ndimage.gaussian_filter(data, sigma=sig)
    if spec.noise_sigma > 0:
        rng = np.random.default_rng(spec.seed)
        data = data + rng.normal(0.0, spec.noise_sigma, size=data.shape)
    vol = Volume(**grid, data=data.astype(np.float32))

    sphere = meshmod.icosphere(spec.mesh_subdivisions)
    u = sphere.vertices
    radii = _phantom_radius(spec, u)
    center = (np.asarray(spec.dims) - 1) / 2.0 * np.asarray(spec.spacing)
    verts = center + u * radii[:, None]
    tri = meshmod.TriMesh(vertices=verts, faces=sphere.faces.copy())
    return vol, labels, tri
