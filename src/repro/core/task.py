"""Anytime solver protocol: resumable, checkpointable solve tasks.

A :class:`SolveTask` (create one with
:meth:`repro.core.session.Session.task`) wraps a registered method's
*resumable engine* — :class:`repro.core.basic.BasicEngine`,
:class:`repro.core.lightweight.LightweightEngine` or
:class:`repro.core.exact_bb.ExactBBEngine` — and exposes the execution
model the serving roadmap needs:

* :meth:`SolveTask.step` runs a bounded amount of work (work units are
  FindOne calls for ``hg``, all of HeapInit and then one heap pop each
  for ``l``/``lp``, branch expansions for the exact B&B) and returns a
  :class:`TaskSnapshot`;
* :meth:`SolveTask.best` is *always* a valid disjoint k-clique set
  (Section V invariants hold at every step boundary) and
  :meth:`SolveTask.bound` an upper bound on what the run can still
  reach — together they make any interruption point a usable answer;
* :meth:`SolveTask.pause` / :meth:`SolveTask.resume` cooperatively
  suspend a task (another thread's ``pause()`` takes effect at the next
  work-unit boundary of a running ``step``);
* :meth:`SolveTask.checkpoint` serialises the run to a JSON-safe dict
  that :meth:`SolveTask.restore` (or
  :meth:`~repro.core.session.Session.restore_task`) revives in another
  process bound to an equal graph — the continued run finishes with the
  same solution and stats as an uninterrupted one;
* :meth:`SolveTask.on_progress` subscribes to improvement events
  (fired whenever ``|S|`` or the bound changed at a step boundary),
  which the serving layer streams to clients as ``progress`` messages.

``Session.solve`` runs a resumable method as exactly this task, driven
to completion by :meth:`SolveTask.run`, so the blocking and the anytime
surfaces share one path. A ``time_budget`` option (the paper's ``OOT``
marker) bounds the seconds a task spends in :meth:`SolveTask.step`;
once it is spent the step raises :class:`~repro.errors.OutOfTimeError`
with :meth:`SolveTask.best` as its ``partial``.
"""

from __future__ import annotations

import operator
import time
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Protocol

from repro.errors import InvalidParameterError, OutOfTimeError
from repro.jsonsafe import json_safe
from repro.core.result import CliqueSetResult

if TYPE_CHECKING:  # deferred at runtime: session imports this module
    from repro.core.registry import Method, SolveOptions
    from repro.core.session import Session


class StepEngine(Protocol):
    """The engine interface a resumable method factory must produce.

    One ``tick()`` performs one bounded work unit; ``state_dict()`` /
    ``load_state()`` round-trip the engine through a JSON-safe mapping
    (see :meth:`SolveTask.checkpoint`).
    """

    @property
    def finished(self) -> bool:
        """Whether the run is complete (``tick`` must not be called)."""
        ...

    @property
    def size(self) -> int:
        """Current ``|S|`` of the best-so-far solution."""
        ...

    def tick(self) -> None:
        """Perform one bounded work unit."""
        ...

    def bound(self) -> int:
        """Upper bound on the final ``|S|`` this run can reach."""
        ...

    def snapshot_result(self) -> CliqueSetResult:
        """Best-so-far solution (valid at every work-unit boundary)."""
        ...

    def result(self) -> CliqueSetResult:
        """Final solution; only meaningful once :attr:`finished`."""
        ...

    def state_dict(self) -> dict:
        """JSON-safe serialisation of the engine's run state."""
        ...

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` payload onto a fresh engine."""
        ...


#: Checkpoint schema version (bumped on incompatible layout changes).
CHECKPOINT_VERSION = 3


@dataclass(frozen=True)
class TaskSnapshot:
    """Progress summary returned by :meth:`SolveTask.step`.

    Attributes
    ----------
    state:
        Task state after the step: ``"ready" | "paused" | "done"``.
    work:
        Total work units executed since the task was created (or since
        the checkpoint it was restored from began counting).
    size:
        Current ``|S|`` of :meth:`SolveTask.best`.
    bound:
        Current upper bound (see :meth:`SolveTask.bound`).
    done:
        Whether the task has run to completion.
    """

    state: str
    work: int
    size: int
    bound: int
    done: bool


def normalize_warm_start(
    warm_start: "CliqueSetResult | Iterable[Iterable[int]] | None",
) -> list[frozenset[int]] | None:
    """Coerce a warm-start spec into a list of candidate cliques.

    Accepts a :class:`~repro.core.result.CliqueSetResult` or any
    iterable of node collections; returns ``None`` for ``None``. Nodes
    follow the package's endpoint rule (``operator.index``: Python ints,
    numpy integers and ``bool`` pass): a non-integer node, or a clique
    that is not iterable, raises :class:`InvalidParameterError`.
    Engines filter the candidates themselves (range, membership in the
    bound graph, disjointness), so stale cliques are skipped, not
    errors.
    """
    if warm_start is None:
        return None
    if isinstance(warm_start, CliqueSetResult):
        cliques: Iterable = warm_start.cliques
    else:
        cliques = warm_start
    seed: list[frozenset[int]] = []
    for clique in cliques:
        try:
            seed.append(frozenset(map(operator.index, clique)))
        except TypeError:
            raise InvalidParameterError(
                f"warm_start clique {clique!r} is not an iterable of integer nodes"
            ) from None
    return seed


class SolveTask:
    """A resumable solve: step, observe, pause, checkpoint, finish.

    Construct via :meth:`repro.core.session.Session.task` (which
    validates the method is resumable and builds the engine from the
    session's shared preprocessing). The task is single-consumer: one
    driver calls :meth:`step`; ``pause()`` may be called from any
    thread and takes effect at the next work-unit boundary.
    """

    def __init__(
        self,
        session: "Session",
        method: "Method",
        k: int,
        options: "SolveOptions",
        engine: StepEngine,
        memo_key: tuple | None = None,
    ) -> None:
        self.session = session
        self.method = method
        self.k = k
        self.options = options
        self.engine = engine
        # Where the session memoizes the result (None: it does not).
        self._memo_key = memo_key
        self.work = 0
        #: Seconds spent in :meth:`step` since the task was opened or
        #: restored (wall time, so never checkpointed).
        self.spent = 0.0
        self._budget: float | None = getattr(options, "time_budget", None)
        self._state = "done" if engine.finished else "ready"
        self._pause_requested = False
        self._callbacks: list[Callable[[TaskSnapshot], None]] = []
        self._last_reported: tuple[int, int] | None = None

    # -- observation ---------------------------------------------------
    @property
    def state(self) -> str:
        """``"ready" | "running" | "paused" | "done"``."""
        return self._state

    @property
    def done(self) -> bool:
        """Whether the underlying engine has run to completion."""
        return self.engine.finished

    def best(self) -> CliqueSetResult:
        """Best-so-far solution — valid at every step boundary.

        Always a valid disjoint k-clique set of the session's graph
        (the engines only admit verified cliques and remove their nodes
        atomically within a work unit); maximality and the paper's
        quality guarantees attach once :attr:`done` is true.
        """
        if self.engine.finished:
            return self.engine.result()
        return self.engine.snapshot_result()

    def bound(self) -> int:
        """Upper bound on the final ``|S|`` this run can reach.

        For the greedy engines this bounds what *this algorithm run*
        will return (so ``best().size / bound()`` is an anytime progress
        ratio); for the exact B&B it is a certified bound on the true
        optimum that equals ``|S|`` at completion.
        """
        return self.engine.bound()

    def snapshot(self) -> TaskSnapshot:
        """Current :class:`TaskSnapshot` without doing any work."""
        return TaskSnapshot(
            state=self._state,
            work=self.work,
            size=self.engine.size,
            bound=self.engine.bound(),
            done=self.engine.finished,
        )

    def result(self) -> CliqueSetResult:
        """Final result; raises unless the task has completed.

        A task opened without a warm start (and not restored) hands its
        result to the session's result memo on the first call.
        """
        if not self.engine.finished:
            raise InvalidParameterError(
                "task has not completed; call run(), or step() until done "
                "(best() returns the partial solution)"
            )
        result = self.engine.result()
        if self._memo_key is not None:
            self.session._remember(self._memo_key, result)
            self._memo_key = None
        return result

    # -- progress events -----------------------------------------------
    def on_progress(self, fn: Callable[[TaskSnapshot], None]) -> None:
        """Call ``fn(snapshot)`` whenever ``|S|`` or the bound improves.

        Fired at step boundaries (after the work of a :meth:`step` call,
        at most once per call) and once more on completion. Callbacks
        run on the stepping thread.
        """
        self._callbacks.append(fn)

    def _report(self, snapshot: TaskSnapshot) -> None:
        key = (snapshot.size, snapshot.bound)
        if self._callbacks and (key != self._last_reported or snapshot.done):
            self._last_reported = key
            for fn in self._callbacks:
                fn(snapshot)
        else:
            self._last_reported = key

    # -- driving -------------------------------------------------------
    def step(
        self, max_work: int | None = None, max_seconds: float | None = None
    ) -> TaskSnapshot:
        """Run up to ``max_work`` units / ``max_seconds`` seconds.

        With both limits ``None`` the task runs until completion or
        until :meth:`pause` is observed. A paused task reports its
        snapshot without working (call :meth:`resume` first); a
        completed task is a no-op. Returns the post-step snapshot.

        A ``time_budget`` option bounds the seconds summed over every
        step: the step that spends the rest of it stops there and, if
        the engine has not finished, raises
        :class:`~repro.errors.OutOfTimeError` with :meth:`best` as its
        ``partial``, and any later step raises it without working. The
        spent seconds are wall time, so a checkpoint leaves them out and
        a restored task starts a fresh budget.
        """
        if max_work is not None and max_work < 1:
            raise InvalidParameterError(
                f"max_work must be a positive int, got {max_work!r}"
            )
        if self._state in ("paused", "done"):
            return self.snapshot()
        if self._state == "running":
            raise InvalidParameterError(
                "task is already running a step (tasks are single-consumer)"
            )
        self._state = "running"
        engine = self.engine
        limit = max_seconds
        if self._budget is not None:
            left = self._budget - self.spent
            limit = left if limit is None else min(limit, left)
        started = time.monotonic() if limit is not None else 0.0
        did = 0
        try:
            while not engine.finished and not self._pause_requested:
                # Per-tick clock read: a tick can be milliseconds on big
                # graphs, so coarser checking would overshoot the slice
                # (and with it the scheduler's preemption latency).
                if limit is not None and time.monotonic() - started >= limit:
                    break
                engine.tick()
                self.work += 1
                did += 1
                if max_work is not None and did >= max_work:
                    break
        finally:
            if limit is not None:
                self.spent += time.monotonic() - started
            if engine.finished:
                self._state = "done"
            elif self._pause_requested:
                self._state = "paused"
            else:
                self._state = "ready"
        snapshot = self.snapshot()
        self._report(snapshot)
        if self._budget is not None and self.spent >= self._budget and not snapshot.done:
            raise OutOfTimeError(
                f"{self.method.tag} exceeded its time budget of {self._budget}s",
                partial=self.best(),
            )
        return snapshot

    def run(self) -> CliqueSetResult:
        """Drive the task to completion and return the final result.

        This is how ``Session.solve`` runs a resumable method. Raises
        :class:`~repro.errors.OutOfTimeError` once a ``time_budget`` is
        spent (see :meth:`step`), and raises if the task is paused
        mid-way by another thread — call :meth:`resume` and ``run()``
        again to continue.
        """
        while not self.engine.finished:
            snapshot = self.step()
            if snapshot.state == "paused":
                raise InvalidParameterError(
                    "task was paused while run() was driving it; resume() "
                    "to continue"
                )
        return self.result()

    def pause(self) -> None:
        """Request suspension at the next work-unit boundary."""
        if self._state != "done":
            self._pause_requested = True
            if self._state == "ready":
                self._state = "paused"

    def resume(self) -> None:
        """Clear a pause request so stepping can continue."""
        self._pause_requested = False
        if self._state == "paused":
            self._state = "ready"

    # -- checkpoint / restore ------------------------------------------
    def checkpoint(self) -> dict:
        """Serialise the task to a JSON-safe dict.

        The checkpoint carries the method tag, ``k``, the validated
        options, the work counter, the session's graph fingerprint and
        the engine state — but *not* the graph or its substrates, which
        the restoring session recomputes deterministically. Cannot be
        taken while a ``step`` is executing.
        """
        if self._state == "running":
            raise InvalidParameterError(
                "cannot checkpoint while a step is running; pause() first"
            )
        return {
            "version": CHECKPOINT_VERSION,
            "method": self.method.tag,
            "k": self.k,
            # Options dataclasses have object-typed fields (e.g. an
            # array-valued `order`); sanitise before they hit json.dumps.
            "options": json_safe(asdict(self.options)),
            "work": self.work,
            "fingerprint": self.session.fingerprint(),
            "engine": json_safe(self.engine.state_dict()),
        }

    @classmethod
    def restore(cls, session: "Session", checkpoint: Mapping) -> "SolveTask":
        """Revive a :meth:`checkpoint` onto ``session`` (same graph).

        The session must be bound to a graph with the same content
        fingerprint as the checkpointing one; substrates are rebuilt
        from the session's caches and the engine state is loaded on
        top, so continuing the task finishes with the same solution and
        stats as the uninterrupted run.
        """
        if not isinstance(checkpoint, Mapping):
            raise InvalidParameterError(
                f"checkpoint must be a mapping, got {type(checkpoint).__name__}"
            )
        version = checkpoint.get("version")
        if version != CHECKPOINT_VERSION:
            raise InvalidParameterError(
                f"unsupported checkpoint version {version!r} "
                f"(expected {CHECKPOINT_VERSION})"
            )
        fingerprint = checkpoint.get("fingerprint")
        if fingerprint is not None and fingerprint != session.fingerprint():
            raise InvalidParameterError(
                "checkpoint was taken on a different graph (fingerprint "
                "mismatch); restore onto a session over an equal graph"
            )
        task = session.task(
            int(checkpoint["k"]),
            checkpoint["method"],
            **dict(checkpoint.get("options") or {}),
        )
        task.engine.load_state(checkpoint["engine"])
        # Any valid state restores, so the run may not be the cold one.
        task._memo_key = None
        task.work = int(checkpoint.get("work", 0))
        task._state = "done" if task.engine.finished else "ready"
        return task

    def __repr__(self) -> str:
        return (
            f"SolveTask(method={self.method.tag!r}, k={self.k}, "
            f"state={self._state!r}, work={self.work}, "
            f"size={self.best().size})"
        )
