"""One driver for every backend call of a run.

A step is a generator of backend calls (sans-I/O, PEP 342): it yields a
``PolicyRequest`` or a ``RetrievalRequest`` and is sent the reply, or has the
call's error thrown in; or it yields a list of tasks, and is resumed once one
of them has ended. Each step runs as a ``Task`` of a ``Build``, and a run's
``Boundary`` advances every task of every build on the caller's thread.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, Generator, Iterable, List, Optional, Sequence, Set, Tuple, TypeVar

from .errors import BuildStopped
from .retrieval import RetrievalRequest

T = TypeVar("T")
Steps = Generator[object, object, T]  # a step; its value is its return value


class Task:
    """One generator of a run, advanced by its boundary's driver alone."""

    __slots__ = ("gen", "build", "done", "value", "waiters", "waiting")

    def __init__(self, gen: Steps, build: Build):
        self.gen, self.build, self.done, self.value = gen, build, False, None
        self.waiters: list = []  # (task, the list it waited on)
        self.waiting: Optional[list] = None  # the list this task waits on


def gather(tasks: Sequence[Task]) -> Steps[None]:
    """Wait until every one of ``tasks`` has ended."""
    for task in tasks:
        while not task.done:
            yield [task]


class Build:
    """Tasks that stop as one, the backends they call, and their retrieval memo.

    ``run(main)`` runs ``main`` as the main line until every task has ended, and
    gives its value or the ``failure``, the error a task raised. Only ``run`` waits
    for every task; a task waits for the tasks it names. Another task's error
    stops the build at once: its generators are closed and its queued calls
    refused (:class:`BuildStopped`). The main line's error waits for the tasks
    still out, whose error replaces it, as in a serial build.

    Retrievals are memoized by their ``RetrievalRequest``: a hit takes no slot, a
    request in flight waits for its reply, and the requests waiting on a failure
    get its error. Retrieval must be a pure function of the request.
    """

    def __init__(self, policy, retriever, boundary: Boundary):
        self.policy, self.retriever, self.boundary = policy, retriever, boundary
        self.memo: Dict[RetrievalRequest, object] = {}  # documents, or the tasks awaiting them
        self.live: Set[Task] = set()
        self.main: Optional[Task] = None
        self.stopped = False
        self.failure: Optional[Exception] = None

    def spawn(self, gen: Steps) -> Task:
        """Start ``gen`` as a task of the build."""
        task = Task(gen, self)
        self.live.add(task)
        self.boundary._ready.append((task, None, None))
        return task

    def run(self, main: Steps[T]) -> Steps[T]:
        self.main = self.spawn(main)
        while self.live:
            yield [next(iter(self.live))]
        main, self.main = self.main, None  # a task refers to its build
        if self.failure is not None:
            raise self.failure
        return main.value


class Boundary:
    """The driver of a run's builds, and the owner of its threads.

    At ``concurrency`` c = 1 ``run`` makes each call a task yields at once, and
    no thread starts. Above 1 it queues each call at once for c sender threads,
    which put every reply on one queue that it reads: c calls of any builds are
    in flight whenever that many are ready, and only the driver runs the steps'
    Python. Either way ``_make`` makes the call, or refuses it once its build or
    the run has stopped. The first error a sender meets stops that build; an
    interrupt (an error that is not an ``Exception``) stops the run, and no queued
    call starts after it. A run that raised halts the boundary, which then refuses
    every call at any c. ``with Boundary(c) as boundary:`` joins every thread it
    started.
    """

    def __init__(self, concurrency: int = 1):
        self._ready: Deque[Tuple[Task, object, Optional[BaseException]]] = deque()
        self._out = 0  # calls queued for the senders and not yet answered
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
        senders start as many as keep c calls out. An error a job raises stops the
        job build, which closes the other jobs, and is raised; an interrupt stops the
        run and is raised."""
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
        if task.done:  # closed with its build
            return
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
        if build.failure is None or not isinstance(error, BuildStopped):
            build.failure = error  # a refusal follows the error that stopped the build
        self._ended(task)
        if task is not build.main:
            build.stopped = True
            for other in list(build.live):
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
        """``call(request)``'s reply and None, or None and the error it raised; the
        call of a stopped build or run is not made but refused (:class:`BuildStopped`)."""
        if self._halted or task.build.stopped:
            return None, BuildStopped("the build has stopped")
        try:
            return call(request), None
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
                self._ready.append((other, None if error else list(reply), error))
        else:
            self._ready.append((task, reply, error))

    def _send(self) -> None:
        """A sender: make each queued call and queue its reply or error. An error
        stops the build (an interrupt, the run) only once queued, so the driver reads
        it before the refusals it causes."""
        for task, call, request in iter(self._calls.get, None):
            reply, error = self._make(task, call, request)
            self._replies.put((task, request, reply, error))
            if error is None or isinstance(error, BuildStopped):
                continue  # answered, or refused
            if isinstance(error, Exception):
                task.build.stopped = True
            else:
                self._halted = True

    def close(self) -> None:
        """End the senders once they have made or refused every call queued."""
        for _ in self._senders:
            self._calls.put(None)
        for sender in self._senders:
            sender.join()
