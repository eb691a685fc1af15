"""Deterministic fault injection for the trial engine's tests.

:func:`inject` wraps a trial function with a :class:`FaultPlan`: crash,
hang, error, and corrupt-payload modes keyed off the trial index,
recovering after a configurable number of attempts.  The injector
counts its own attempts in marker files, one per trial index, in a
directory of its own under the one the test gives it, so the count
survives the worker processes the attempts ran in.  The fault-smoke
suite and CI job drive the executors through every failure path with
it.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.rng import derive_seed

#: Exit code used by injected crashes (visible in worker exitcodes).
CRASH_EXIT_CODE = 87


class InjectedFault(RuntimeError):
    """Raised (or simulated) by the fault-injection harness."""


class _CorruptPayload:
    """A payload that refuses to pickle — the corrupt-payload mode.

    Crossing the worker boundary raises in the worker's send,
    surfacing as a ``"payload"``-kind attempt failure in the parent.
    Inline execution has no pickle boundary, so corruption is only
    observable in a worker.
    """

    def __init__(self, payload: Any) -> None:
        self.payload = payload

    def __reduce__(self) -> Any:
        raise TypeError("injected corrupt payload refuses to pickle")


@dataclass(frozen=True)
class FaultPlan:
    """Which trials fault, how, and for how many attempts.

    Modes (all keyed off the trial *index*, so a plan is deterministic
    by construction):

    - ``error``: the trial raises :class:`InjectedFault`;
    - ``crash``: the executing worker process dies hard
      (``os._exit``); inline execution raises instead of killing the
      parent process;
    - ``hang``: the trial sleeps ``hang_seconds`` before computing its
      real payload — under a shorter ``trial_timeout`` this presents as
      a hung worker, without one it is merely slow;
    - ``corrupt``: the trial computes its real payload but wraps it in
      an unpicklable envelope, so it cannot cross the worker boundary.

    Every mode recovers after ``recover_after`` faulted attempts: the
    retried trial runs clean with the same seed, which is what lets the
    fault-smoke suite assert byte-identical recovery.
    """

    error: Tuple[int, ...] = ()
    crash: Tuple[int, ...] = ()
    hang: Tuple[int, ...] = ()
    corrupt: Tuple[int, ...] = ()
    recover_after: int = 1
    hang_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.recover_after < 0:
            raise ConfigurationError(
                "recover_after must be >= 0", recover_after=self.recover_after
            )
        if self.hang_seconds <= 0:
            raise ConfigurationError(
                "hang_seconds must be > 0", hang_seconds=self.hang_seconds
            )

    def faulty_indices(self) -> Tuple[int, ...]:
        return tuple(
            sorted(set(self.error) | set(self.crash) | set(self.hang) | set(self.corrupt))
        )

    @classmethod
    def seeded(
        cls,
        seed: int,
        count: int,
        fraction: float = 0.3,
        modes: Sequence[str] = ("error", "crash", "hang", "corrupt"),
        recover_after: int = 1,
        hang_seconds: float = 30.0,
    ) -> "FaultPlan":
        """Derive a plan faulting ``<= fraction`` of ``count`` trials.

        The victim set and mode assignment come from a
        :func:`~repro.rng.derive_seed`-seeded generator, so the same
        ``(seed, count, fraction, modes)`` always yields the same plan
        on every platform.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ConfigurationError("fraction must be in [0, 1]", fraction=fraction)
        unknown = [m for m in modes if m not in ("error", "crash", "hang", "corrupt")]
        if unknown:
            raise ConfigurationError("unknown fault modes", modes=unknown)
        rng = random.Random(derive_seed(seed, "fault-plan"))
        victims = sorted(rng.sample(range(count), int(count * fraction)))
        buckets: Dict[str, List[int]] = {m: [] for m in modes}
        for position, index in enumerate(victims):
            buckets[modes[position % len(modes)]].append(index)
        return cls(
            error=tuple(buckets.get("error", ())),
            crash=tuple(buckets.get("crash", ())),
            hang=tuple(buckets.get("hang", ())),
            corrupt=tuple(buckets.get("corrupt", ())),
            recover_after=recover_after,
            hang_seconds=hang_seconds,
        )


class FaultInjector:
    """Wraps a trial function with a :class:`FaultPlan` (picklable)."""

    def __init__(self, fn: Callable[..., Any], plan: FaultPlan, directory: Any) -> None:
        self._fn = fn
        self._plan = plan
        self._markers = tempfile.mkdtemp(prefix="attempts-", dir=directory)

    def _attempt(self, trial: Any) -> int:
        """Count this call against the trial; returns its 0-based attempt.

        A trial's attempts never overlap (a retry is sent only after the
        previous attempt failed), so appending one byte per call counts
        them exactly, whichever processes they ran in.
        """
        with open(os.path.join(self._markers, str(trial.index)), "ab") as marker:
            marker.write(b".")
            return marker.tell() - 1

    def __call__(self, trial: Any) -> Any:
        plan = self._plan
        attempt = self._attempt(trial)
        faulting = attempt < plan.recover_after
        if faulting and trial.index in plan.crash:
            if multiprocessing.current_process().daemon:
                os._exit(CRASH_EXIT_CODE)
            raise InjectedFault(
                f"injected crash (trial {trial.index}, attempt {attempt}; "
                "raised instead of killing the non-worker process)"
            )
        if faulting and trial.index in plan.hang:
            time.sleep(plan.hang_seconds)
        if faulting and trial.index in plan.error:
            raise InjectedFault(
                f"injected error (trial {trial.index}, attempt {attempt})"
            )
        payload = self._fn(trial)
        if faulting and trial.index in plan.corrupt:
            return _CorruptPayload(payload)
        return payload


def inject(fn: Callable[..., Any], plan: FaultPlan, directory: Any) -> FaultInjector:
    """Wrap ``fn`` so the plan's trials fault deterministically.

    ``directory`` (a test's ``tmp_path``) receives the injector's
    attempt markers, in a fresh subdirectory per call.
    """
    return FaultInjector(fn, plan, directory)
