"""Execution backends for the parallelisable phases.

The algorithms in :mod:`repro.core` are written against an abstract
``ParallelBackend`` so that the same code can run

* serially (the default, and fastest option in CPython for fine-grained
  loops), or
* over a thread pool, which gives genuine concurrency for coarse-grained
  work that releases the GIL (large numpy reductions) and, more importantly,
  exercises the concurrent-write primitives the way the paper's algorithms
  use them.

A module-level default backend can be set with :func:`set_backend`; code that
does not care simply calls :func:`get_backend`.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, Iterable, List, Optional, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class ParallelBackend:
    """Interface for executing independent tasks.

    Subclasses implement :meth:`map`.  ``num_workers`` reports the degree of
    parallelism the backend exposes (1 for the serial backend), which the
    cost model uses when predicting running times.
    """

    num_workers: int = 1

    def map(self, func: Callable[[T], R], items: Iterable[T]) -> List[R]:
        """Apply ``func`` to every item and return the results in order."""
        raise NotImplementedError

    def for_each(self, func: Callable[[T], None], items: Iterable[T]) -> None:
        """Apply ``func`` to every item for its side effects."""
        self.map(func, items)

    def close(self) -> None:
        """Release any resources held by the backend."""


class SerialBackend(ParallelBackend):
    """Run everything in the calling thread (deterministic order)."""

    num_workers = 1

    def map(self, func: Callable[[T], R], items: Iterable[T]) -> List[R]:
        return [func(item) for item in items]


class _ExecutorBackend(ParallelBackend):
    """Shared pool management for the executor-based backends."""

    _executor_cls: type

    def __init__(self, num_workers: Optional[int] = None) -> None:
        if num_workers is None:
            num_workers = os.cpu_count() or 1
        if num_workers < 1:
            raise ValueError("num_workers must be at least 1")
        self.num_workers = num_workers
        self._pool = self._executor_cls(max_workers=num_workers)

    def map(self, func: Callable[[T], R], items: Iterable[T]) -> List[R]:
        # Generators and other unsized iterables are materialized first:
        # the short-path below needs len(), and a half-consumed generator
        # must not be handed to the pool.
        if not hasattr(items, "__len__"):
            items = list(items)
        if len(items) <= 1:
            return [func(item) for item in items]
        return list(self._pool.map(func, items))

    def close(self) -> None:
        self._pool.shutdown(wait=True)


class ThreadBackend(_ExecutorBackend):
    """Run tasks on a shared :class:`~concurrent.futures.ThreadPoolExecutor`.

    Tasks must be thread-safe; the core algorithms only use this backend for
    independent per-item work.
    """

    _executor_cls = ThreadPoolExecutor


class ProcessBackend(_ExecutorBackend):
    """Run tasks on a :class:`~concurrent.futures.ProcessPoolExecutor`.

    Unlike the thread backend this sidesteps the GIL entirely, but both the
    function and its arguments must be picklable: a module-level function
    (or a :func:`functools.partial` of one) over flat numpy arrays.  The CSR
    graph representation (:mod:`repro.graph.csr`) exists in part so the APSP
    source chunks can be shipped to workers this way.
    """

    _executor_cls = ProcessPoolExecutor


BACKEND_NAMES = ("serial", "thread", "process")

_BACKEND_FACTORIES = {
    "serial": SerialBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
}


def make_backend(name: str, num_workers: Optional[int] = None) -> ParallelBackend:
    """Construct a backend from its name (``serial``/``thread``/``process``)."""
    try:
        factory = _BACKEND_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; expected one of {BACKEND_NAMES}"
        ) from None
    if name == "serial":
        return factory()
    return factory(num_workers=num_workers)


_DEFAULT_BACKEND: ParallelBackend = SerialBackend()


def set_backend(backend: ParallelBackend) -> None:
    """Install ``backend`` as the process-wide default."""
    global _DEFAULT_BACKEND
    _DEFAULT_BACKEND = backend


def get_backend(backend: Optional[ParallelBackend] = None) -> ParallelBackend:
    """Return ``backend`` if given, otherwise the process-wide default.

    Deliberately does *not* accept backend names: a name constructs a fresh
    pool the caller must ``close()``, so the call sites that support names
    (e.g. the APSP entry points, the CLI) resolve them with
    :func:`make_backend` and own the resulting pool explicitly.
    """
    if isinstance(backend, str):
        raise TypeError(
            f"get_backend takes an instance or None, not the name {backend!r}; "
            "construct (and close) named backends with make_backend()"
        )
    return backend if backend is not None else _DEFAULT_BACKEND
