"""Answers the benchmark checks against, computed without the program.

Nothing here imports `intension`. The Shannon side works from closed-form
products of independent marginals, from the four cells of a concept-pair
joint, or from McGill's anchors for interaction information. The
algorithmic side re-implements the canonical serialization from the byte
format in the top-level README and compresses with raw fixed-Huffman
zlib at level 9.
"""

from __future__ import annotations

import json
import math
import re
import zlib

TOL = 1e-9
JOINT_SEPARATOR = b"\x1f"
NOISE_FLOOR_BITS = 64.0
DEGREE_MISMATCH_TOL = 1e-6
MISMATCH = re.compile(r"degree-mismatch (\S+): concept '([^']*)' declares ")


def close(got: float, want: float, tol: float = TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


# --- Shannon side -----------------------------------------------------------


def none_hold(marginals) -> float:
    """P(no property of an independent set holds) = prod(1 - mu)."""
    return math.exp(sum(math.log1p(-mu) for mu in marginals))


def some_hold(marginals) -> float:
    """P(at least one holds), without the cancellation of 1 - prod(1 - mu)."""
    return -math.expm1(sum(math.log1p(-mu) for mu in marginals))


def independent_cells(f_only, w_only, shared) -> tuple[float, float, float, float]:
    """Four cells (FW, F~W, ~FW, ~F~W) of two union events over independent properties.

    Each argument is a list of marginals: properties only in F, only in
    W, and in both. Every cell is a sum of products of nonnegative terms,
    so a small cell keeps its relative precision:
    P(F and not W) = prod_W(1 - mu) * (1 - prod_{F\\W}(1 - mu)).
    """
    q_s, q_f, q_w = none_hold(shared), none_hold(f_only), none_hold(w_only)
    fw = some_hold(shared) + q_s * some_hold(f_only) * some_hold(w_only)
    f_not_w = q_s * q_w * some_hold(f_only)
    w_not_f = q_s * q_f * some_hold(w_only)
    neither = q_s * q_f * q_w
    return fw, f_not_w, w_not_f, neither


def pair_scores(fw: float, f_not_w: float, w_not_f: float, neither: float) -> dict:
    """Exact conditional, mutual information and P(W) * 2**I from the four cells."""
    p_f, p_w = fw + f_not_w, fw + w_not_f
    mi = 0.0
    for cell, pf, pw in ((fw, p_f, p_w), (f_not_w, p_f, 1 - p_w), (w_not_f, 1 - p_f, p_w), (neither, 1 - p_f, 1 - p_w)):
        if cell > 0:
            mi += cell * math.log2(cell / (pf * pw))
    return {
        "p_f": p_f,
        "p_w": p_w,
        "p_fw": fw,
        "exact": fw / p_f if p_f > 0 else None,
        "mi": mi,
        "estimate": p_w * 2.0 ** mi,
    }


def mcgill_anchor(subset, parity_blocks, singles) -> float:
    """Interaction information of a subset of a world of independent blocks.

    Each parity block is a set of fair bits whose XOR is 0; every other
    property (`singles`) is independent of everything. A subset that
    meets two blocks, or only part of a parity block (whose members are
    then mutually independent), splits into independent parts and
    scores 0. A whole t-variable parity block scores (-1)**t bits.
    """
    subset = set(subset)
    parts = [subset & set(block) for block in parity_blocks if subset & set(block)]
    parts += [{pid} for pid in subset if pid in singles]
    if len(parts) > 1:
        return 0.0
    block = next(b for b in parity_blocks if subset <= set(b))
    return float((-1) ** len(subset)) if subset == set(block) else 0.0


def mismatch_warnings(report_warnings) -> set[tuple[str, str]]:
    """(concept, property) of every degree-mismatch entry in a warning list."""
    found = set()
    for message in report_warnings:
        match = MISMATCH.match(message)
        if match:
            found.add((match.group(2), match.group(1)))
    return found


# --- algorithmic side -------------------------------------------------------


def serialize(properties) -> bytes:
    """README byte format: u16 count, then sorted (u16 len, id, u16 degree) triples."""
    items = sorted(properties, key=lambda pd: pd[0].encode("utf-8"))
    out = bytearray(len(items).to_bytes(2, "big"))
    for pid, degree in items:
        raw = pid.encode("utf-8")
        out += len(raw).to_bytes(2, "big") + raw
        out += min(round(degree * 65536), 65535).to_bytes(2, "big")
    return bytes(out)


def deflate_length(data: bytes) -> int:
    engine = zlib.compressobj(9, zlib.DEFLATED, -15, 9, zlib.Z_FIXED)
    return len(engine.compress(data) + engine.flush())


LENGTHS = {"deflate": deflate_length, "identity": len}


def algorithmic_scores(f_props, w_props, compressor: str = "deflate") -> dict:
    """Mutual information (bits) and the 2**(I - K(W)) conditional score."""
    length = LENGTHS[compressor]
    base = length(b"")
    f_bytes, w_bytes = serialize(f_props), serialize(w_props)
    k_f = 8.0 * max(0, length(f_bytes) - base)
    k_w = 8.0 * max(0, length(w_bytes) - base)
    k_joint = 8.0 * max(0, length(f_bytes + JOINT_SEPARATOR + w_bytes) - base)
    mi = k_f + k_w - k_joint
    return {
        "mi": mi,
        "prior": 2.0 ** -k_w,
        "conditional": math.inf if mi - k_w >= 1024 else 2.0 ** (mi - k_w),
    }


# --- CLI output -------------------------------------------------------------


def parse_output(out: str, fmt: str, sep: str = "\n") -> dict:
    """Flat fields of one report: JSON values typed, text values as strings."""
    if fmt == "json":
        return json.loads(out)
    fields = {}
    for item in out.rstrip("\n").split(sep):
        key, _, value = item.partition("=")
        fields[key] = value
    return fields


def field_errors(want: dict, got: dict, fmt: str) -> list[str]:
    """Differences between expected typed fields and a parsed report."""
    if list(got) != list(want):
        return [f"fields {list(got)} != {list(want)}"]
    return [f"{key}={got[key]!r}, expected {value!r}" for key, value in want.items() if not _same(value, got[key], fmt)]


def _same(want, raw, fmt: str) -> bool:
    if isinstance(want, bool):
        return raw is want if fmt == "json" else raw == ("true" if want else "false")
    if isinstance(want, list):
        return raw == want if fmt == "json" else raw == ",".join(want)
    if isinstance(want, str):
        return raw == want
    if isinstance(raw, bool) or (fmt == "json" and (isinstance(raw, str) or isinstance(want, int) and isinstance(raw, float))):
        return False
    try:
        return int(raw) == want if isinstance(want, int) else close(float(raw), want)
    except ValueError:
        return False


def cli_errors(want: dict, code: int, out: str, err: str) -> list[str]:
    """Check one CLI invocation: exit code, then the report or the diagnostic."""
    if code != want["code"]:
        return [f"exit {code}, expected {want['code']}"]
    if code == 2:
        lines = err.splitlines()
        if out or len(lines) != 1 or not lines[0].startswith("error: "):
            return [f"exit 2 wants one 'error:' line and no report, got {err!r}"]
        return []
    if err:
        return [f"unexpected stderr {err!r}"]
    try:
        got = parse_output(out, want["format"], want.get("sep", "\n"))
    except ValueError as exc:
        return [f"unparseable output: {exc}"]
    return field_errors(want["fields"], got, want["format"])
