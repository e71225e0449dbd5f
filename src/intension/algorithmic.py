"""Compression-based complexity estimates and the algorithmic inheritance score.

True description length is uncomputable, so the engine measures the
compressed size of a canonical concept serialization, minus the
compressor's empty-input baseline, and reads the standard identities off
those lengths: joint complexity from the compressed concatenation,
conditional complexity as joint minus antecedent (floored at zero because
real compressors violate monotonicity by a few bytes), and mutual
information as k_f + k_w - k_joint.

Serialization format, fixed bit-exactly:

    u16 BE   property count
    then per property, sorted by the UTF-8 bytes of its id:
      u16 BE   byte length of the UTF-8 id
      ...      id bytes
      u16 BE   degree in 16-bit fixed point: round(d * 65536), saturated
               at 65535 (so 1.0 decodes to 65535/65536)

Joint serialization concatenates the two concept encodings around a single
0x1F separator byte. All complexities are reported in bits as 8x the byte
length; no finer granularity is pretended. Mutual-information estimates
inside the +-64 bit band are flagged as compressor noise, never clamped.
"""

from __future__ import annotations

import math
import struct
import zlib
from dataclasses import dataclass
from functools import cache
from typing import Callable

from .errors import CompressorFailure
from .model import Concept, check_degree

DEGREE_SCALE = 65536
JOINT_SEPARATOR = b"\x1f"
NOISE_FLOOR_BITS = 64.0


def quantize_degree(d: float) -> int:
    """16-bit fixed-point code for a degree; round-half-even, saturating."""
    d = check_degree(d)
    return min(int(round(d * DEGREE_SCALE)), DEGREE_SCALE - 1)


def canonical_serialize(concept: Concept) -> bytes:
    """Order-normalized byte encoding of a concept's properties and degrees."""
    props = sorted(concept.properties, key=lambda pd: pd[0].encode("utf-8"))
    if len(props) >= 1 << 16:
        raise ValueError(f"too many properties to serialize: {len(props)}")
    parts = [struct.pack(">H", len(props))]
    for pid, degree in props:
        encoded = pid.encode("utf-8")
        if len(encoded) >= 1 << 16:
            raise ValueError(f"property id too long to serialize: {pid[:32]!r}...")
        parts.append(struct.pack(">H", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack(">H", quantize_degree(degree)))
    return b"".join(parts)


class Compressor:
    """Named, deterministic map from bytes to compressed byte length."""

    def __init__(self, name: str, length_fn: Callable[[bytes], int]):
        self.name = name
        self._length_fn = length_fn
        self.baseline_bytes = self.length_bytes(b"")  # empty-input overhead, once per compressor

    def length_bytes(self, data: bytes) -> int:
        try:
            n = self._length_fn(data)
        except Exception as exc:
            raise CompressorFailure(f"compressor {self.name!r} failed: {exc}") from exc
        if not isinstance(n, int) or n < 0:
            raise CompressorFailure(f"compressor {self.name!r} returned bad length {n!r}")
        return n

    def __repr__(self):
        return f"Compressor({self.name!r})"


def identity_compressor() -> Compressor:
    """Length = input length; useful as a noise-free arithmetic baseline."""
    return Compressor("identity", len)


def _deflate_length(data: bytes) -> int:
    # raw stream (no header or checksum) with fixed Huffman tables: the
    # container bytes are pure noise for length differences, and dynamic
    # code tables leak shared structure between unrelated inputs
    engine = zlib.compressobj(9, zlib.DEFLATED, -15, 9, zlib.Z_FIXED)
    return len(engine.compress(data) + engine.flush())


def deflate_compressor() -> Compressor:
    """The bundled general-purpose compressor: raw DEFLATE, fixed settings."""
    return Compressor("deflate", _deflate_length)


BUILTIN_COMPRESSORS: dict[str, Callable[[], Compressor]] = {
    "identity": identity_compressor,
    "deflate": deflate_compressor,
}


@cache
def get_compressor(name: str) -> Compressor:
    try:
        factory = BUILTIN_COMPRESSORS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_COMPRESSORS))
        raise CompressorFailure(f"unknown compressor {name!r} (available: {known})") from None
    return factory()


@dataclass(frozen=True)
class ComplexityEstimate:
    """Description-length estimates in bits, baseline-subtracted.

    overhead is the compressor's empty-input cost; every k field has it
    subtracted and is floored at zero.
    """

    k_f: float
    k_w: float
    k_joint: float
    k_w_given_f: float
    overhead: float

    @property
    def mutual_information(self) -> float:
        return self.k_f + self.k_w - self.k_joint


def estimate_complexities(f: Concept, w: Concept, compressor: Compressor) -> ComplexityEstimate:
    """Complexity estimate over the canonical concept serializations."""
    f_bytes, w_bytes = canonical_serialize(f), canonical_serialize(w)
    baseline = compressor.baseline_bytes
    k_f = 8.0 * max(0, compressor.length_bytes(f_bytes) - baseline)
    k_w = 8.0 * max(0, compressor.length_bytes(w_bytes) - baseline)
    joint = compressor.length_bytes(f_bytes + JOINT_SEPARATOR + w_bytes)
    k_joint = 8.0 * max(0, joint - baseline)
    return ComplexityEstimate(
        k_f=k_f,
        k_w=k_w,
        k_joint=k_joint,
        k_w_given_f=max(0.0, k_joint - k_f),
        overhead=8.0 * baseline,
    )


@dataclass(frozen=True)
class AlgorithmicInheritance:
    """Compression-based inheritance score.

    conditional_estimate = prior_estimate * 2**mutual_information, computed
    as the single power 2**(mutual_information - k_w) so the relation holds
    exactly whenever both factors are representable. The values are
    proportional scores, not calibrated probabilities; past roughly 1000
    bits of description the linear-space fields underflow a double and
    mutual_information (log space) is the only useful comparator.
    """

    mutual_information: float
    prior_estimate: float
    conditional_estimate: float

    @property
    def within_noise_floor(self) -> bool:
        """True when |I| is inside the compressor-noise band."""
        return abs(self.mutual_information) < NOISE_FLOOR_BITS


def _pow2(x: float) -> float:
    # 2.0**x raises OverflowError past the double range; saturate instead
    if x >= 1024.0:
        return math.inf
    return 2.0 ** x


def algorithmic_inheritance(f: Concept, w: Concept, compressor: Compressor) -> AlgorithmicInheritance:
    """Score inheritance of w from f by compressed description lengths."""
    estimate = estimate_complexities(f, w, compressor)
    mi = estimate.mutual_information
    return AlgorithmicInheritance(
        mutual_information=mi,
        prior_estimate=_pow2(-estimate.k_w),
        conditional_estimate=_pow2(mi - estimate.k_w),
    )
