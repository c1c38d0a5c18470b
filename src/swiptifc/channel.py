"""Two-user MIMO interference channel: generation, normalization, (de)serialization.

H_ij is the channel from transmitter j to receiver i.  Raw entries are drawn
i.i.d. complex normal with unit variance (1/2 per real component) and then
rescaled so that ||H_ij||_F^2 = alpha_ij * max(M_t, M_r) holds exactly.

Randomness is reproducible and order-independent: link (i, j) always draws
from the PCG64 stream seeded with SeedSequence(seed, spawn_key=(i, j)), so
redrawing one link can never shift another link's realization.
"""

import hashlib
import json
import numbers
from dataclasses import dataclass

import numpy as np

from .exceptions import ChannelFormatError, DegenerateChannelError, InvalidInputError
from .linalg import as_matrix

__all__ = [
    "ChannelSet",
    "draw_channel_set",
    "stacked_channel",
    "swap_roles",
    "channel_document",
    "channel_digest",
    "save_channels",
    "load_channels",
]

_LINKS = ("h11", "h12", "h21", "h22")

# numerical full-rank requirement: smallest singular value relative to largest
_RANK_RATIO = 1e-9


@dataclass(frozen=True)
class ChannelSet:
    """One realization of the four links plus its gain profile.

    Invariants (checked on construction): integer antenna counts of at least
    1 and a nonnegative integer seed or None (numpy integers are accepted
    and stored as int, bools are not), common shape (m_r, m_t), exact
    Frobenius normalization ||h_ij||_F^2 = alpha_ij * max(m_t, m_r) within
    1e-9 relative, and full numerical rank on every link.
    """

    h11: np.ndarray
    h12: np.ndarray
    h21: np.ndarray
    h22: np.ndarray
    alpha: np.ndarray
    m_t: int
    m_r: int
    seed: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", np.asarray(self.alpha, dtype=float))
        if self.alpha.shape != (2, 2):
            raise InvalidInputError(f"alpha must be 2x2, got {self.alpha.shape}")
        if not np.all(np.isfinite(self.alpha)) or np.any(self.alpha <= 0):
            raise InvalidInputError("alpha entries must be positive finite reals")
        _check_counts_and_seed(self.m_t, self.m_r, self.seed)
        for name in ("m_t", "m_r", "seed"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, int(getattr(self, name)))
        m = max(self.m_t, self.m_r)
        for i in (1, 2):
            for j in (1, 2):
                name = f"h{i}{j}"
                h = as_matrix(getattr(self, name), name)
                object.__setattr__(self, name, h)
                if h.shape != (self.m_r, self.m_t):
                    raise InvalidInputError(
                        f"{name} has shape {h.shape}, expected {(self.m_r, self.m_t)}"
                    )
                target = self.alpha[i - 1, j - 1] * m
                fro2 = float(np.linalg.norm(h) ** 2)
                if abs(fro2 - target) > 1e-9 * target:
                    raise InvalidInputError(
                        f"{name} violates normalization: ||.||_F^2 = {fro2!r}, expected {target!r}"
                    )
                s = np.linalg.svd(h, compute_uv=False)
                if s[-1] <= _RANK_RATIO * s[0]:
                    raise DegenerateChannelError(
                        f"{name} is numerically rank deficient (sigma ratio {s[-1] / s[0]:.2e})"
                    )


def _draw_link(seed, i, j, m_r, m_t):
    """Draw one raw link from its dedicated substream, redrawing on rank loss."""
    rng = np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(i, j)))
    )
    for _ in range(16):
        z = rng.standard_normal((m_r, m_t, 2))
        h = (z[..., 0] + 1j * z[..., 1]) / np.sqrt(2.0)
        s = np.linalg.svd(h, compute_uv=False)
        if s[-1] > _RANK_RATIO * s[0]:
            return h
    raise DegenerateChannelError(
        f"link ({i},{j}) stayed rank deficient after 16 redraws (seed {seed})"
    )


def _is_int(x):
    """An integer, including numpy's, but not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _check_counts_and_seed(m_t, m_r, seed):
    """Raise InvalidInputError unless both antenna counts are integers >= 1
    and the seed is a nonnegative integer or None (see `_is_int`)."""
    if not all(_is_int(m) and m >= 1 for m in (m_t, m_r)):
        raise InvalidInputError(f"antenna counts must be integers >= 1, got {(m_t, m_r)!r}")
    if seed is not None and not (_is_int(seed) and seed >= 0):
        raise InvalidInputError(f"seed must be a nonnegative integer or None, got {seed!r}")


def draw_channel_set(m_t, m_r, alpha, seed):
    """Draw a normalized ChannelSet for the given antenna counts and gains."""
    alpha = np.asarray(alpha, dtype=float)
    if alpha.shape != (2, 2):
        raise InvalidInputError(f"alpha must be 2x2, got {alpha.shape}")
    if not np.all(np.isfinite(alpha)) or np.any(alpha <= 0):
        raise InvalidInputError("alpha entries must be positive finite reals")
    _check_counts_and_seed(m_t, m_r, seed)
    m = max(m_t, m_r)
    links = {}
    for i in (1, 2):
        for j in (1, 2):
            h = _draw_link(seed, i, j, m_r, m_t)
            h = h * (np.sqrt(alpha[i - 1, j - 1] * m) / np.linalg.norm(h))
            links[f"h{i}{j}"] = h
    return ChannelSet(alpha=alpha, m_t=m_t, m_r=m_r, seed=seed, **links)


def stacked_channel(cs, tx):
    """Both receivers' views of transmitter `tx`, stacked: [H_1j; H_2j]."""
    if tx == 1:
        return np.vstack((cs.h11, cs.h21))
    if tx == 2:
        return np.vstack((cs.h12, cs.h22))
    raise InvalidInputError(f"tx must be 1 or 2, got {tx!r}")


def swap_roles(cs):
    """Relabel users 1 <-> 2 (both ends), mapping h_ij -> h_(3-i)(3-j).

    Turns a solver written for the (harvest at rx1, decode at rx2) pairing
    into one for the mirrored pairing.
    """
    return ChannelSet(
        h11=cs.h22,
        h12=cs.h21,
        h21=cs.h12,
        h22=cs.h11,
        alpha=cs.alpha[::-1, ::-1].copy(),
        m_t=cs.m_t,
        m_r=cs.m_r,
        seed=cs.seed,
    )


def _f17(x):
    """Format a float with 17 significant digits (round-trips IEEE doubles)."""
    return format(float(x), ".17g")


def _matrix_json(h):
    rows = []
    for r in range(h.shape[0]):
        cells = ",".join(
            f"[{_f17(h[r, c].real)},{_f17(h[r, c].imag)}]" for c in range(h.shape[1])
        )
        rows.append(f"[{cells}]")
    return "[" + ",".join(rows) + "]"


def channel_document(cs, include_seed=True):
    """Canonical JSON text for a ChannelSet.

    Entries are [re, im] pairs in row-major order, floats at 17 significant
    digits, fixed key order -- the byte stream is deterministic, which makes
    it usable both for files and for content digests.
    """
    alpha = ",".join(
        "[" + ",".join(_f17(cs.alpha[i, j]) for j in range(2)) + "]" for i in range(2)
    )
    mats = ",".join(f'"{k}":{_matrix_json(getattr(cs, k))}' for k in _LINKS)
    doc = f'{{"m_t":{cs.m_t},"m_r":{cs.m_r},"alpha":[{alpha}],"matrices":{{{mats}}}'
    if include_seed and cs.seed is not None:
        doc += f',"seed":{int(cs.seed)}'
    return doc + "}\n"


def channel_digest(cs):
    """SHA-256 of the canonical document without the seed field.

    Two sets with identical matrices and gains share a digest regardless of
    how (or whether) a seed was recorded.
    """
    doc = channel_document(cs, include_seed=False)
    return hashlib.sha256(doc.encode("ascii")).hexdigest()


def save_channels(cs, path):
    """Write the canonical channel document to `path`."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(channel_document(cs))


def _want(doc, key, kind, path):
    if key not in doc:
        raise ChannelFormatError(f"missing field: {path}{key}")
    val = doc[key]
    if kind is int and (not isinstance(val, int) or isinstance(val, bool)):
        raise ChannelFormatError(f"field {path}{key} must be an integer")
    if kind is list and not isinstance(val, list):
        raise ChannelFormatError(f"field {path}{key} must be an array")
    if kind is dict and not isinstance(val, dict):
        raise ChannelFormatError(f"field {path}{key} must be an object")
    return val


def _parse_matrix(rows, m_r, m_t, path):
    if not isinstance(rows, list) or len(rows) != m_r:
        raise ChannelFormatError(f"field {path} must be an array of {m_r} rows")
    out = np.empty((m_r, m_t), dtype=np.complex128)
    for r, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != m_t:
            raise ChannelFormatError(f"field {path}[{r}] must be an array of {m_t} entries")
        for c, cell in enumerate(row):
            if (
                not isinstance(cell, list)
                or len(cell) != 2
                or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in cell)
            ):
                raise ChannelFormatError(f"field {path}[{r}][{c}] must be a [re, im] pair")
            out[r, c] = complex(cell[0], cell[1])
    return out


def load_channels(path):
    """Load and fully validate a channel document; inverse of save_channels."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ChannelFormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ChannelFormatError("top-level document must be an object")
    m_t = _want(doc, "m_t", int, "")
    m_r = _want(doc, "m_r", int, "")
    alpha_rows = _want(doc, "alpha", list, "")
    if len(alpha_rows) != 2 or any(
        not isinstance(row, list) or len(row) != 2 for row in alpha_rows
    ):
        raise ChannelFormatError("field alpha must be a 2x2 array")
    mats = _want(doc, "matrices", dict, "")
    links = {}
    for key in _LINKS:
        links[key] = _parse_matrix(
            _want(mats, key, list, "matrices."), m_r, m_t, f"matrices.{key}"
        )
    try:
        return ChannelSet(
            alpha=np.asarray(alpha_rows, dtype=float),
            m_t=m_t,
            m_r=m_r,
            seed=doc.get("seed"),
            **links,
        )
    except (InvalidInputError, DegenerateChannelError) as exc:
        raise ChannelFormatError(f"document is well-formed but invalid: {exc}") from None
