"""Recovery policy: capped exponential backoff, timeouts, attempt history.

:func:`run_with_retry` is the single execution primitive the backends
call per task.  Its determinism property is inherited from the task
payload discipline of :mod:`repro.parallel`: a task is a pure function
of its item (which carries any pre-spawned ``SeedSequence``), so a
retried attempt re-executes the *same* item and produces the same bytes
as a failure-free first attempt.  Retry therefore changes wall-clock
behaviour only — never a result, a random draw, or a ``values`` metric.

Terminal failures surface as :class:`TaskFailed`, which carries the full
:class:`AttemptRecord` history (error type, message, attempt seconds) so
a crashed experiment reports *why* it crashed, not just that it did.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Optional, Tuple, Type

from repro.errors import FaultError
from repro.faults.plan import FaultPlan, InjectedFault


class AttemptRecord(NamedTuple):
    """One failed attempt of one task (picklable, human-renderable)."""

    attempt: int
    error_type: str
    message: str
    seconds: float

    def render(self) -> str:
        """``attempt 0: InjectedFault: ... (0.001s)``."""
        return (
            f"attempt {self.attempt}: {self.error_type}: {self.message} "
            f"({self.seconds:.3g}s)"
        )

    def as_dict(self) -> dict:
        """JSON-able form, used by protocol-level error responses.

        The service layer attaches the full attempt history to a
        terminal failure so a remote client can distinguish "my query
        timed out twice then hit an injected fault" from a single hard
        error without parsing rendered text.
        """
        return {
            "attempt": self.attempt,
            "error_type": self.error_type,
            "message": self.message,
            "seconds": self.seconds,
        }


class TaskTimeout(FaultError):
    """A task attempt exceeded the policy's per-task timeout.

    The attempt's worker thread is abandoned (daemonic); its eventual
    result, if any, is discarded, and the retry re-executes the task
    from its original payload.
    """

    def __init__(
        self, scope: str, index: int, attempt: int, timeout: float
    ) -> None:
        self.scope = scope
        self.index = index
        self.attempt = attempt
        self.timeout = timeout
        super().__init__(
            f"task {index} in scope {scope!r} exceeded the {timeout:g}s "
            f"per-task timeout (attempt {attempt})"
        )

    def __reduce__(self):
        return (
            type(self),
            (self.scope, self.index, self.attempt, self.timeout),
        )


class TaskFailed(FaultError):
    """Terminal task failure: every allowed attempt was exhausted.

    Attributes
    ----------
    scope / index:
        Which task of which fan-out failed.
    attempts:
        Tuple of :class:`AttemptRecord`, one per failed attempt, oldest
        first.  Picklable, so the history survives the trip back from a
        process-pool worker.
    """

    def __init__(
        self,
        scope: str,
        index: int,
        attempts: Tuple[AttemptRecord, ...] = (),
    ) -> None:
        self.scope = scope
        self.index = index
        self.attempts = tuple(
            record if isinstance(record, AttemptRecord) else AttemptRecord(*record)
            for record in attempts
        )
        message = (
            f"task {index} in scope {scope!r} failed after "
            f"{len(self.attempts)} attempt(s)"
        )
        if self.attempts:
            last = self.attempts[-1]
            message += f"; last error: {last.error_type}: {last.message}"
        super().__init__(message)

    def __reduce__(self):
        return (type(self), (self.scope, self.index, self.attempts))

    def history(self) -> str:
        """Multi-line rendering of the attempt history."""
        return "\n".join(record.render() for record in self.attempts)


@dataclass(frozen=True)
class RetryPolicy:
    """How failed task attempts are re-executed.

    Parameters
    ----------
    max_attempts:
        Total attempts per task (1 = no retry).
    backoff_base / backoff_factor / backoff_cap:
        Capped exponential backoff: retry ``k`` (1-based) sleeps
        ``min(cap, base * factor**(k-1))`` seconds.  The default base of
        0 disables sleeping, which keeps in-process test scenarios fast;
        the *planned* backoff seconds are still accounted to the
        ``faults.backoff_seconds`` timer.
    timeout:
        Optional per-attempt wall-clock limit in seconds, enforced by
        running the attempt on a watchdog thread; an overrun raises
        :class:`TaskTimeout` (retryable like any other failure).
    retryable:
        Exception classes that trigger a retry; anything else propagates
        immediately.  Defaults to all :class:`Exception` subclasses
        (``KeyboardInterrupt``/``SystemExit`` always propagate).
    """

    max_attempts: int = 3
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_cap: float = 1.0
    timeout: Optional[float] = None
    retryable: Tuple[Type[BaseException], ...] = (Exception,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise FaultError("backoff seconds must be >= 0")
        if self.backoff_factor < 1.0:
            raise FaultError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.timeout is not None and self.timeout <= 0:
            raise FaultError(f"timeout must be > 0, got {self.timeout}")

    def backoff_seconds(self, retry_number: int) -> float:
        """Planned sleep before retry ``retry_number`` (1-based)."""
        if retry_number < 1:
            raise FaultError(
                f"retry_number must be >= 1, got {retry_number}"
            )
        if self.backoff_base <= 0:
            return 0.0
        return min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** (retry_number - 1),
        )


#: Policy used when a fault plan is active but the caller did not
#: configure recovery explicitly: three attempts, no sleeping.
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Policy meaning "execute once, never retry" (still applies injection
#: and timeout mechanics).
NO_RETRY = RetryPolicy(max_attempts=1)


@dataclass
class RetryStats:
    """Deterministic retry/recovery accounting for one ``map`` call.

    Every field is a pure function of the task payloads and the active
    :class:`FaultPlan` (decisions are seeded, backoff seconds are the
    *planned* sleeps), so the stats — and the ``faults.*`` metrics they
    feed — are byte-identical across execution backends.
    """

    attempts: int = 0
    retries: int = 0
    tasks_retried: int = 0
    tasks_failed: int = 0
    injected: int = 0
    backoff_seconds: float = 0.0

    def absorb(self, other: "RetryStats") -> None:
        """Fold another (chunk's) stats into this one, in place."""
        self.attempts += other.attempts
        self.retries += other.retries
        self.tasks_retried += other.tasks_retried
        self.tasks_failed += other.tasks_failed
        self.injected += other.injected
        self.backoff_seconds += other.backoff_seconds


def _call_with_timeout(
    call: Callable[[], Any],
    timeout: float,
    scope: str,
    index: int,
    attempt: int,
) -> Any:
    """Run ``call`` with a wall-clock limit; overruns raise TaskTimeout."""
    box: list = []

    def runner() -> None:
        try:
            box.append((True, call()))
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box.append((False, exc))

    thread = threading.Thread(
        target=runner, daemon=True, name="repro-task-watchdog"
    )
    thread.start()
    thread.join(timeout)
    if thread.is_alive() or not box:
        raise TaskTimeout(scope, index, attempt, timeout)
    ok, payload = box[0]
    if not ok:
        raise payload
    return payload


def run_with_retry(
    fn: Callable[[Any], Any],
    item: Any,
    *,
    scope: str,
    index: int,
    policy: RetryPolicy,
    plan: Optional[FaultPlan] = None,
    stats: Optional[RetryStats] = None,
) -> Any:
    """Execute ``fn(item)`` under ``policy``, injecting faults from ``plan``.

    Injection happens *inside* the attempt (and inside the timeout
    window), exactly where a real worker failure would occur.  A retried
    attempt re-calls ``fn`` on the original ``item``, so recovered
    output is byte-identical to a failure-free run.  After
    ``policy.max_attempts`` failures the task raises :class:`TaskFailed`
    with the full attempt history, chained to the last underlying error.
    """
    history: Tuple[AttemptRecord, ...] = ()
    for attempt in range(policy.max_attempts):
        if stats is not None:
            stats.attempts += 1
        start = time.perf_counter()

        def _attempt(attempt: int = attempt) -> Any:
            if plan is not None:
                plan.fire(scope, index, attempt)
            return fn(item)

        try:
            if policy.timeout is None:
                result = _attempt()
            else:
                result = _call_with_timeout(
                    _attempt, policy.timeout, scope, index, attempt
                )
        except policy.retryable as exc:
            if stats is not None and isinstance(exc, InjectedFault):
                stats.injected += 1
            history += (
                AttemptRecord(
                    attempt,
                    type(exc).__name__,
                    str(exc),
                    time.perf_counter() - start,
                ),
            )
            if attempt + 1 >= policy.max_attempts:
                if stats is not None:
                    stats.tasks_failed += 1
                raise TaskFailed(scope, index, history) from exc
            delay = policy.backoff_seconds(attempt + 1)
            if stats is not None:
                stats.retries += 1
                stats.backoff_seconds += delay
            if delay > 0:
                time.sleep(delay)
        else:
            if stats is not None and attempt > 0:
                stats.tasks_retried += 1
            return result
    raise AssertionError("unreachable: loop exits via return or raise")
