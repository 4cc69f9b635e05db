"""One driver for every backend call of a run.

A step is a generator of backend calls (sans-I/O, PEP 342): it yields a
``PolicyRequest`` or a ``RetrievalRequest`` and is sent the reply, or has the
call's error thrown in; or it yields a list of tasks, and is resumed once one
of them has ended. Each step runs as a ``Task`` of a ``Build``, and a run's
``Boundary`` advances every task of every build on the caller's thread. A
build's errors rank by its serial run, where each spawned task runs whole at its
spawn (Cilk-5's serial elision, PLDI 1998). A task's place in that run is its
spawner's place at the spawn, then a count of the tasks it has spawned so far:
places compare as tuples, so a child ranks before the rest of its spawner.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Generator, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar

from .errors import BackendUnavailable, BuildStopped
from .policy import PolicyRequest
from .retrieval import RetrievalRequest

T = TypeVar("T")
Steps = Generator[object, object, T]  # a step; its value is its return value


class Task:
    """One generator of a run, advanced by its boundary's driver alone."""

    __slots__ = ("gen", "build", "at", "done", "value", "waiters", "waiting")

    def __init__(self, gen: Steps, build: Build, at: Tuple[int, ...]):
        self.gen, self.build, self.at, self.done, self.value = gen, build, at, False, None
        self.waiters: list = []  # (task, the list it waited on)
        self.waiting: Optional[list] = None  # the list this task waits on


def gather(tasks: Sequence[Task]) -> Steps[None]:
    """Wait until every one of ``tasks`` has ended."""
    for task in tasks:
        while not task.done:
            yield [task]


class Build:
    """Tasks placed in one serial run, the backends they call, and their retrieval memo.

    ``run(main)`` runs ``main`` until every task has ended, and gives its value or
    the ``failure``, the error with the earliest place (``failed_at``). A serial
    run never reaches a task at or behind that place, so an error closes such
    tasks and refuses their queued calls (:class:`BuildStopped`); the tasks ahead
    run on, and an error of theirs replaces it. Only ``run`` waits for every task.

    Retrievals are memoized by their ``RetrievalRequest``, so retrieval must be a
    pure function of the request: a hit takes no slot, and a request in flight
    waits for its reply or its error, or is made again if it was refused.
    """

    def __init__(self, policy, retriever, boundary: Boundary):
        self.policy, self.retriever, self.boundary = policy, retriever, boundary
        self.memo: Dict[RetrievalRequest, object] = {}  # documents, or the tasks awaiting them
        self.live: Set[Task] = set()
        self.failure: Optional[Exception] = None
        self.failed_at: Tuple[float, ...] = (float("inf"),)  # behind every place until a failure
        self._failing = threading.Lock()

    def spawn(self, gen: Steps) -> Task:
        """Start ``gen`` as a task, placed after what its spawner in the build has done."""
        spawner, at = self.boundary._running, (0,)  # a root
        if spawner is not None and spawner.build is self:
            at, spawner.at = spawner.at + (0,), spawner.at[:-1] + (spawner.at[-1] + 1,)
        task = Task(gen, self, at)
        self.live.add(task)
        self.boundary._ready.append((task, None, None))
        return task

    def behind(self, at: Tuple[int, ...]) -> bool:  # at or behind the failure
        return at >= self.failed_at

    def fail_at(self, at: Tuple[int, ...]) -> bool:
        """Move ``failed_at`` back to ``at`` in one step, unless ``at`` is behind it."""
        with self._failing:
            self.failed_at = min(self.failed_at, at)
            return self.failed_at == at

    def run(self, main: Steps[T]) -> Steps[T]:
        main_task = self.spawn(main)
        while self.live:
            yield [next(iter(self.live))]
        if self.failure is not None:
            raise self.failure
        return main_task.value


class Boundary:
    """The driver of a run's builds, and the owner of its threads.

    At ``concurrency`` c = 1 ``run`` makes each call a task yields at once, and
    no thread starts. Above 1 it queues each call at once for c sender threads,
    which put every reply on one queue that it reads: c calls of any builds are
    in flight whenever that many are ready, and only the driver runs the steps'
    Python. Either way ``_make`` makes the call, or refuses it behind its build's
    failure or once the run halts, at an interrupt (an error that is not an
    ``Exception``) or a raise: then no queued call starts, nor any call at any c.
    ``with Boundary(c) as boundary:`` joins every thread it started.
    """

    def __init__(self, concurrency: int = 1):
        self._ready: Deque[Tuple[Task, object, Optional[BaseException]]] = deque()
        self._out = 0  # calls queued for the senders and not yet answered
        self._running: Optional[Task] = None  # the task being resumed, which spawns
        self._halted = False
        self._senders: List[threading.Thread] = []
        if concurrency > 1:
            from queue import SimpleQueue  # serial runs never load it
            self._calls, self._replies = SimpleQueue(), SimpleQueue()
            self._senders = [threading.Thread(target=self._send, name=f"ragtree-send-{i}")
                             for i in range(concurrency)]
            for sender in self._senders:
                sender.start()

    def __enter__(self) -> "Boundary":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(self, jobs: Iterable[Steps[T]]) -> List[T]:
        """Each job's value, in order. A job is a generator that waits on builds
        (``Build.run``), run as a task of the run's job build, which makes no call.
        The next job starts when no job is live, or when no task is ready and fewer
        than c calls are out: a serial boundary runs the jobs one at a time, and
        senders start as many as keep c calls out. The jobs share one place, so a
        job's error closes the other jobs and is raised, as is an interrupt."""
        waiting, tasks, build = iter(jobs), [], Build(None, None, self)
        try:
            while build.failure is None:
                free = not build.live or (not self._ready and self._out < len(self._senders))
                steps = next(waiting, None) if free else None
                if steps is not None:
                    tasks.append(build.spawn(steps))
                elif not build.live:
                    return [task.value for task in tasks]
                elif self._ready:
                    self._resume(*self._ready.popleft())
                elif self._out:
                    self._out -= 1
                    self._answer(*self._replies.get())
                else:
                    raise RuntimeError("every task of the run waits, and no call is out")
            raise build.failure
        except BaseException:
            self._halted = True
            self._ready.clear()
            raise

    def _resume(self, task: Task, reply: object, error: Optional[BaseException]) -> None:
        if task.done:  # closed behind its build's failure
            return
        self._running = task
        try:
            item = task.gen.send(reply) if error is None else task.gen.throw(error)
        except StopIteration as stop:
            task.value = stop.value
            self._ended(task)
        except Exception as exc:
            self._raised(task, exc)
        else:
            if type(item) is not list:
                self._call(task, item)
            elif any(other.done for other in item):
                self._ready.append((task, None, None))
            else:
                task.waiting = item
                for other in item:
                    other.waiters.append((task, item))
        self._running = None

    def _ended(self, task: Task) -> None:
        task.done, task.waiting = True, None
        for waiter, items in task.waiters:
            if waiter.waiting is items:
                waiter.waiting = None
                self._ready.append((waiter, None, None))
        task.waiters.clear()  # each entry holds a list that holds this task
        task.build.live.discard(task)

    def _raised(self, task: Task, error: Exception) -> None:
        build = task.build
        self._ended(task)
        if build.fail_at(task.at):  # ahead of the failure, or the place a sender recorded
            build.failure = error
            for other in list(build.live):
                if build.behind(other.at):
                    other.gen.close()
                    self._ended(other)

    def _call(self, task: Task, request) -> None:
        """Make or queue the call ``task`` yielded; a retrieval its build has made is
        answered from the memo, and one in flight parks the task on it."""
        build = task.build
        if isinstance(request, RetrievalRequest):
            entry = build.memo.get(request)
            if isinstance(entry, tuple):
                self._ready.append((task, list(entry), None))
                return
            if entry is not None:
                entry.append(task)
                return
            build.memo[request] = []
            call = build.retriever.retrieve
        else:
            call = build.policy.complete
        if self._senders:
            self._out += 1
            self._calls.put((task, call, request))
        else:
            self._answer(task, request, *self._make(task, call, request))

    def _make(self, task: Task, call, request) -> Tuple[object, Optional[BaseException]]:
        """``call(request)``'s reply and None, or None and the error it raised; a halted
        run's call, or that of a task behind its build's failure, is refused. A policy
        reply without one text per sample fails its call, as a malformed body does."""
        if self._halted or task.build.behind(task.at):
            return None, BuildStopped("the build has stopped")
        try:
            reply = call(request)
            if isinstance(request, PolicyRequest) and len(reply.texts) != (n := len(request.seeds) or 1):
                raise BackendUnavailable(f"the policy backend answered {len(reply.texts)} texts "
                                         f"for {n} samples")
            return reply, None
        except BaseException as exc:  # the driver gives it to the task, or raises it
            return None, exc

    def _answer(self, task: Task, request, reply, error: Optional[BaseException]) -> None:
        if error is not None and not isinstance(error, Exception):
            raise error  # an interrupt ends the run
        if isinstance(request, RetrievalRequest):
            parked = task.build.memo.pop(request)
            if error is None:
                task.build.memo[request] = tuple(reply)
            for other in [task, *parked]:
                if other is task or not isinstance(error, BuildStopped):
                    self._ready.append((other, None if error else list(reply), error))
                else:  # refused for its maker, behind the failure: a parked task asks again
                    self._call(other, request)
        else:
            self._ready.append((task, reply, error))

    def _send(self) -> None:
        """A sender: make each queued call and queue its reply or error. An error's
        place becomes its build's ``failed_at``, if earlier (an interrupt halts the
        run), once queued, so the driver reads it before the refusals it causes."""
        for task, call, request in iter(self._calls.get, None):
            reply, error = self._make(task, call, request)
            self._replies.put((task, request, reply, error))
            if error is not None and not isinstance(error, Exception):
                self._halted = True
            elif error is not None:
                task.build.fail_at(task.at)

    def close(self) -> None:
        """End the senders once they have made or refused every call queued."""
        for _ in self._senders:
            self._calls.put(None)
        for sender in self._senders:
            sender.join()
