"""Output checks: the recorded reference and the interpreter oracle.

Two independent checks guard every workload, both outside the timed
region:

* each window's verdict is compared with ``reference.json``, recorded
  once by ``record_reference.py`` through the in-process library path;
* every finding is replayed on the concrete interpreter
  (``repro.semantics.eval.run_function``) over a fixed, seeded input
  sample.  The target must refine the source on each input: where the
  source is defined, the target may not be UB, poison or a different
  value.  This uses none of the verifier's code, so a faster verifier
  that wrongly accepts a rewrite is caught here.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import List, Optional, Tuple

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

#: Inputs replayed per finding.
ORACLE_SAMPLES = 48


def text_key(ir: str) -> str:
    """The benchmark's own identity for a window: its IR text digest."""
    return hashlib.sha256(ir.encode()).hexdigest()[:16]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _int_lane(rng: random.Random, bits: int) -> int:
    mask = (1 << bits) - 1
    pick = rng.random()
    if pick < 0.4:
        return rng.choice((0, 1, 2, mask, mask - 1, 1 << (bits - 1),
                           (1 << (bits - 1)) - 1)) & mask
    return rng.getrandbits(bits)


def _lane(rng: random.Random, scalar):
    from repro.ir.types import FloatType, IntType
    if isinstance(scalar, IntType):
        return _int_lane(rng, scalar.bits)
    if isinstance(scalar, FloatType):
        if rng.random() < 0.3:
            return rng.choice((0.0, -0.0, 1.0, -1.0, float("inf"),
                               float("nan")))
        return rng.uniform(-1e4, 1e4)
    raise ValueError(f"no oracle inputs for {scalar}")


def _inputs(function, rng: random.Random):
    from repro.ir.types import PointerType, VectorType
    from repro.semantics.domain import Pointer
    from repro.semantics.memory import DEFAULT_BUFFER_SIZE, Memory
    args = []
    memory = Memory(DEFAULT_BUFFER_SIZE)
    for index, argument in enumerate(function.arguments):
        type_ = argument.type
        if isinstance(type_, VectorType):
            args.append([_lane(rng, type_.element)
                         for _ in range(type_.count)])
        elif isinstance(type_, PointerType):
            base = f"arg{index}"
            memory.add_buffer(base, bytes(
                rng.getrandbits(8) for _ in range(DEFAULT_BUFFER_SIZE)))
            args.append(Pointer(base))
        else:
            args.append(_lane(rng, type_))
    return args, memory


def _refutes(source, target) -> Optional[str]:
    """Why ``target``'s outcome fails to refine ``source``'s, or None."""
    from repro.semantics.domain import POISON, values_equal
    if source.is_ub:
        return None
    if target.is_ub:
        return f"target UB ({target.ub_reason}) where source is defined"
    if (source.value is None) != (target.value is None):
        return "return value presence differs"
    if source.value is not None:
        src = source.value if isinstance(source.value, list) else [
            source.value]
        tgt = target.value if isinstance(target.value, list) else [
            target.value]
        if len(src) != len(tgt):
            return "lane count differs"
        for src_lane, tgt_lane in zip(src, tgt):
            if src_lane is POISON:
                continue
            if tgt_lane is POISON:
                return "target poison where source is defined"
            if not values_equal(src_lane, tgt_lane):
                return f"value {tgt_lane!r} != {src_lane!r}"
    if source.memory is not None and target.memory is not None:
        if not source.memory.equal_defined_bytes(target.memory):
            return "memory differs"
    return None


def confirm_finding(source_ir: str, target_ir: str,
                    seed: int) -> Optional[str]:
    """Replay one finding on the interpreter; the failure, or None."""
    from repro.errors import ReproError
    from repro.ir.parser import parse_function
    from repro.semantics.eval import run_function
    rng = random.Random(f"oracle:{seed}:{text_key(source_ir)}")
    try:
        source = parse_function(source_ir)
        target = parse_function(target_ir)
        for _ in range(ORACLE_SAMPLES):
            args, memory = _inputs(source, rng)
            src = run_function(source, list(args), memory=memory.clone())
            tgt = run_function(target, list(args), memory=memory.clone())
            reason = _refutes(src, tgt)
            if reason is not None:
                return f"{reason} on {args!r}"
    except (ReproError, ValueError) as exc:
        return f"cannot replay: {type(exc).__name__}: {exc}"
    return None


def check_findings(pairs: List[Tuple[str, str]], seed: int) -> List[str]:
    """Replay every ``(source_ir, target_ir)`` finding; the failures."""
    failures = []
    for source_ir, target_ir in pairs:
        reason = confirm_finding(source_ir, target_ir, seed)
        if reason is not None:
            failures.append(f"{text_key(source_ir)}: {reason}")
    return failures
